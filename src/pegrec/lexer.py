"""Tokenizer driven by the grammar's lexical rules.

A ``TokenStream`` scans its whole text in one loop when it is built, and
keeps the tokens in columns.  The longest match wins, with declaration
order breaking ties (lexical rules in order, then anonymous literals in
order of first appearance).  Whitespace and ``//`` line comments are
skipped between tokens.  A character no rule can start is emitted as a
one-character token with kind None so the parser can report it or step
over it during recovery; a rule that matches zero characters at a
position is ignored there.

The lexical rules are compiled once per Grammar object, the first time a
text is lexed with it, and kept on the grammar's desugared form
(``model.desugar``); a Grammar must therefore not be mutated after its
first parse.  Each rule becomes one anchored ``re`` pattern.  A PEG never
backtracks into an ordered choice or a repetition, so both are atomic: a
choice becomes the atomic group ``(?>a|b)``, ``p*`` the possessive
``(?:p)*+`` and ``p+`` (desugared to ``p p*``) ``(?:p)++``.  ``!p``
becomes ``(?!p)`` and a rule reference is inlined, which ends because no
lexical rule reaches itself (``model.validate``).  A table filled lazily
per character lists the rules whose FIRST set (``model.First`` over
character ranges) holds that character, so each position tries only those.
"""

from __future__ import annotations

import bisect
import re
from typing import NamedTuple

from .model import (
    AnyToken,
    CharClass,
    Choice,
    Empty,
    EPSILON_ONLY,
    Expr,
    First,
    Grammar,
    Literal,
    NonTerminal,
    Not,
    Sequence,
    Star,
    TokenSet,
    desugar,
    nesting_guard,
    operands,
    plus_operand,
)


class Token(NamedTuple):
    kind: str | None
    text: str
    start: int
    end: int


# blanks and // line comments; the grammar text (``dsl``) uses the same
LAYOUT = re.compile(r"(?:[ \t\r\n]++|//[^\n]*+)*+")
# FIRST set of AnyToken: the range of every character
_ANY_CHAR = TokenSet(frozenset({("\0", "\U0010ffff")}))


def read_text(path) -> str:
    """The text of a UTF-8 file; one that is not UTF-8 is an OSError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc


def line_starts(text: str) -> list[int]:
    """The offset at which each line of text starts."""
    starts = [0]
    nl = text.find("\n")
    while nl >= 0:
        starts.append(nl + 1)
        nl = text.find("\n", nl + 1)
    return starts


def line_col(starts: list[int], offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset, given the text's
    ``line_starts``."""
    line = bisect.bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def _regex(e: Expr, rules: dict[str, Expr]) -> str:
    """Regex source of one lexical pattern with PEG's match semantics."""
    if isinstance(e, Literal):
        return re.escape(e.text)
    if isinstance(e, CharClass):
        parts = [re.escape(lo) if lo == hi else f"{re.escape(lo)}-{re.escape(hi)}"
                 for lo, hi in e.ranges]
        return f"[{''.join(parts)}]" if parts else "(?!)"
    if isinstance(e, AnyToken):
        return "(?s:.)"
    if isinstance(e, Empty):
        return ""
    if isinstance(e, Sequence):
        p = plus_operand(e)
        if p is not None:
            # p+ desugared to p p*, which share p: write p once
            return f"(?:{_regex(p, rules)})++"
        return _regex(e.left, rules) + _regex(e.right, rules)
    if isinstance(e, Choice):
        return f"(?>{'|'.join(_regex(a, rules) for a in operands(e, Choice))})"
    if isinstance(e, Star):
        return f"(?:{_regex(e.body, rules)})*+"
    if isinstance(e, Not):
        return f"(?!{_regex(e.body, rules)})"
    # a rule reference: the body's own choices and repetitions are atomic,
    # so it has at most one match and needs no atomic group of its own
    return f"(?:{_regex(rules[e.name], rules)})"


def _first_chars(e: Expr) -> TokenSet:
    """FIRST of a leaf or a predicate of a lexical rule (``model.First``),
    over the character ranges a match can begin with."""
    if isinstance(e, Literal):
        return TokenSet(frozenset({(e.text[0], e.text[0])})) if e.text else EPSILON_ONLY
    if isinstance(e, CharClass):
        return TokenSet(frozenset(e.ranges))
    if isinstance(e, AnyToken):
        return _ANY_CHAR
    # Empty, or !p, which consumes nothing: what follows supplies the first char
    return EPSILON_ONLY


class _Lexer:
    """The compiled lexical rules of one grammar."""

    def __init__(self, g: Grammar):
        # token kinds in priority order: named rules as declared (already
        # desugared), then literal kinds, which no rule can refer to
        rules = dict(g.lexical)
        rules.update((kind, Literal(kind[1:-1])) for kind in g.literal_kinds)
        first = First(rules, _first_chars).rules
        self.sources: dict[str, str] = {
            kind: _regex(NonTerminal(kind), rules) for kind in rules}
        self._rules = [(kind, re.compile(source).match, first[kind].kinds)
                       for kind, source in self.sources.items()]
        self.by_char: dict[str, tuple] = {}

    def candidates(self, ch: str) -> tuple:
        """(kind, match) for each rule that can start with ch, in priority
        order."""
        found = self.by_char.get(ch)
        if found is None:
            found = self.by_char[ch] = tuple(
                (kind, fn) for kind, fn, ranges in self._rules
                if any(lo <= ch <= hi for lo, hi in ranges))
        return found


def _lexer(grammar: Grammar) -> _Lexer:
    g = desugar(grammar)
    if g._lexer is None:
        with nesting_guard():
            g._lexer = _Lexer(g)
    return g._lexer


class TokenStream:
    """The tokens of one source text, kept in two columns: ``kinds`` holds
    the kind of each token (None for a stray character) and ``spans`` its
    ``(start, end)`` offsets, as exact tuples.  The whole text is scanned
    in one loop when the stream is built.  A ``Token`` is built only when
    ``token(i)`` asks for one, so scanning leaves no object behind that
    the cyclic collector has to track."""

    def __init__(self, grammar: Grammar, text: str):
        self.text = text
        self.kinds: list[str | None] = []
        self.spans: list[tuple[int, int]] = []
        # built by the first pos_info
        self._line_starts: list[int] | None = None
        kinds, spans = self.kinds, self.spans
        lexer = _lexer(grammar)
        by_char = lexer.by_char
        candidates = lexer.candidates
        skip = LAYOUT.match
        n = len(text)
        pos = skip(text, 0).end()
        while pos < n:
            ch = text[pos]
            cands = by_char.get(ch)
            if cands is None:
                cands = candidates(ch)
            kind = None
            end = pos
            for k, match in cands:
                m = match(text, pos)
                if m is not None:
                    e = m.end()
                    if e > end:
                        kind, end = k, e
            if kind is None:
                # a stray character: a one-char token of no kind
                end = pos + 1
            kinds.append(kind)
            spans.append((pos, end))
            pos = skip(text, end).end()

    def token(self, i: int) -> Token | None:
        """i-th token, or None at/after end of input; a negative i is a ValueError."""
        if i < 0:
            raise ValueError(f"negative token index {i}")
        if i < len(self.kinds):
            start, end = self.spans[i]
            return Token(self.kinds[i], self.text[start:end], start, end)
        return None

    def frontier_offset(self, i: int) -> int:
        """Character offset used to report an error at token position i:
        the end of the previous token, or the start of the very first token,
        or end of input (after trailing layout) when i is past the last."""
        if i == 0:
            return self.start_offset(0)
        if i - 1 < len(self.spans):
            return self.spans[i - 1][1]
        return self.eof_offset()

    def start_offset(self, i: int) -> int:
        """Character offset where token i starts (end of input when past)."""
        if i < len(self.spans):
            return self.spans[i][0]
        return self.eof_offset()

    def eof_offset(self) -> int:
        # only layout can follow the last token
        return len(self.text)

    def pos_info(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a character offset."""
        if self._line_starts is None:
            self._line_starts = line_starts(self.text)
        return line_col(self._line_starts, offset)
