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
lexical rule reaches itself (``model.validate``).  Each reference can
double a pattern, so a rule whose inlined size is over ``PATTERN_BUDGET``
is a GrammarError, raised before any pattern is built.

The candidates for a character are the rules whose FIRST set
(``model.First`` over character ranges) holds it.  A plan per character,
made on first sight of it, lexes a token with one ``re`` call where it
can: the characters with the same candidates share one group pattern
``(?:(A1)|(A2)|...|(.))`` followed by the layout, so a match gives the
kind (``lastindex``), the token's span, and where the next token starts.
``re`` takes the first alternative that matches, so the alternatives are
ordered to make that the token the longest-match rule picks.  A literal
text that two rules share is kept by the earlier one; the later can never
win.  A group gets one pattern when

(a) all its candidates are literals: longest first;
(b) it has no literal and one other rule, which cannot match empty: that
    rule alone (a rule that can keeps the loop, which ignores a zero-width
    match);
(c) besides literals, it has one other rule N, a run ``C0 C1*`` of two
    character classes (``C+`` is ``C C*``).  A literal K is covered
    by N when K[0] is in C0 and every later character of K in C1: where K
    matches, N matches at least as much, so K wins only where N's match is
    K's text, which is where the next character is not in C1, and only if
    K is declared before N.  Such a K becomes the alternative
    ``K(?!C1)``; a covered K declared after N never wins and is dropped.
    N stops inside an uncovered literal, which so wins wherever it
    matches; it is longer than any covered K that matches there, as a
    prefix of K would be covered too.  The uncovered literals come first,
    longest first, then the covered Ks, then N.

The last alternative, one character of no kind, matches where nothing
else does.  Any other group keeps a loop that tries each candidate and
takes the longest match, the earlier on a tie, ignoring a zero-width one;
each candidate's pattern also ends in the layout, so the winner's match
gives the next position.
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
    GrammarError,
    Literal,
    NonTerminal,
    Not,
    Sequence,
    Star,
    TokenSet,
    _walk,
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


# the largest size (``_pattern_size``) a lexical rule's pattern may have
# once its rule references are inlined; each reference can double it
PATTERN_BUDGET = 100_000
# blanks and // line comments; the grammar text (``dsl``) uses the same
LAYOUT = re.compile(r"(?:[ \t\r\n]++|//[^\n]*+)*+")
# FIRST set of AnyToken: the range of every character
_ANY_CHAR = TokenSet(frozenset({("\0", "\U0010ffff")}))


def read_text(path) -> str:
    """The text of a UTF-8 file, with ``\\r\\n`` and ``\\r`` read as ``\\n``
    as text mode reads them; one that is not UTF-8 is an OSError.  The
    bytes are decoded at once: text mode would build an incremental
    decoder per file."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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


def _pattern_size(name: str, rules: dict[str, Expr], sizes: dict[str, int]) -> int:
    """About the length of a rule's ``_regex``: one per node, and one per
    character of a literal or range of a class, each reference counting
    the size of its rule; sizes memoizes every rule reached."""
    size = sizes.get(name)
    if size is None:
        size = 0
        for node in _walk(rules[name]):
            cls = node.__class__
            if cls is NonTerminal:
                size += _pattern_size(node.name, rules, sizes)
            elif cls is Literal:
                size += len(node.text)
            elif cls is CharClass:
                size += len(node.ranges)
            size += 1
        sizes[name] = size
    return size


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


def _run(e: Expr) -> tuple[tuple, tuple] | None:
    """The ranges of C0 and C1 when e is a run ``C0 C1*`` of two character
    classes (``C+`` desugars to ``C C*``); otherwise None."""
    if e.__class__ is Sequence and e.left.__class__ is CharClass:
        star = e.right
        if star.__class__ is Star and star.body.__class__ is CharClass:
            return e.left.ranges, star.body.ranges
    return None


def _within(ch: str, ranges) -> bool:
    return any(lo <= ch <= hi for lo, hi in ranges)


# the last alternative of a group pattern: a character that no rule
# starts, or no rule matches at, is a token of no kind
_STRAY = "((?s:.))"
_stray_token = re.compile(_STRAY + LAYOUT.pattern).match


class _Lexer:
    """The lexical rules of one grammar, and the plan for each first
    character seen so far, a pair ``(match, kinds)``.  A group pattern's
    ``match`` never fails, and alternative i matched names ``kinds[i]``.
    The loop has ``match`` None and ``kinds`` the candidates as
    ``(kind, match)`` pairs."""

    def __init__(self, g: Grammar):
        # token kinds in priority order: named rules as declared (already
        # desugared), then literal kinds, which no rule can refer to
        rules = dict(g.lexical)
        rules.update((kind, Literal(kind[1:-1])) for kind in g.literal_kinds)
        self._rules = rules
        sizes: dict[str, int] = {}
        for name in g.lexical:
            size = _pattern_size(name, rules, sizes)
            if size > PATTERN_BUDGET:
                raise GrammarError(f"lexical rule {name} is too large a pattern once its rule "
                                   f"references are inlined (size {size}, budget {PATTERN_BUDGET})")
        self._first = First(rules, _first_chars).rules
        self.sources: dict[str, str] = {
            kind: _regex(NonTerminal(kind), rules) for kind in rules}
        self.by_char: dict[str, tuple] = {}
        # the candidate kinds of a character -> its plan
        self._plans: dict[tuple[str, ...], tuple] = {}

    @nesting_guard()
    def plan(self, ch: str) -> tuple:
        """The plan for a token that starts with ch; compiling a pattern
        recurses once per level of a rule's nesting."""
        group = tuple(kind for kind, f in self._first.items() if _within(ch, f.kinds))
        found = self._plans.get(group)
        if found is None:
            found = self._plans[group] = self._group_plan(group)
        self.by_char[ch] = found
        return found

    def _group_plan(self, group: tuple[str, ...]) -> tuple:
        rules, rank = self._rules, list(self._rules).index
        texts: dict[str, str] = {}  # literal text -> its earliest kind
        others = []
        for kind in group:
            if rules[kind].__class__ is Literal:
                texts.setdefault(rules[kind].text, kind)
            else:
                others.append(kind)
        # longest first, so that re's first match is the longest
        literals = sorted(texts.items(), key=lambda item: -len(item[0]))
        alts = [(re.escape(text), kind) for text, kind in literals]
        if others:
            name = others[0]
            run = _run(rules[name])
            if len(others) > 1 or (literals and run is None) or self._first[name].has_epsilon:
                return None, tuple(
                    (kind, re.compile(f"({self.sources[kind]}){LAYOUT.pattern}").match)
                    for kind in group)
            if run is not None:
                # rule (c): where a covered literal matches, the run matches
                # at least as much, so it wins only on a tie
                c0, c1 = run
                tie = f"(?!{_regex(CharClass(c1), rules)})"
                uncovered, covered = [], []
                for text, kind in literals:
                    if _within(text[0], c0) and all(_within(c, c1) for c in text[1:]):
                        if rank(kind) < rank(name):
                            covered.append((re.escape(text) + tie, kind))
                    else:
                        uncovered.append((re.escape(text), kind))
                alts = uncovered + covered
            alts.append((self.sources[name], name))
        source = "".join(f"({s})|" for s, _ in alts)
        return (re.compile(f"(?:{source}{_STRAY}){LAYOUT.pattern}").match,
                (None, *(kind for _, kind in alts), None))


def _lexer(grammar: Grammar) -> _Lexer:
    g = desugar(grammar)
    if g._lexer is None:
        with nesting_guard():
            g._lexer = _Lexer(g)
    return g._lexer


def _longest(candidates: tuple, text: str, pos: int) -> tuple[str | None, int, int]:
    """(kind, end, next) of the longest match among candidates, the
    earlier on a tie; a zero-width match does not count."""
    kind, end, after = None, pos, 0
    for k, match in candidates:
        m = match(text, pos)
        if m is not None and m.end(1) > end:
            kind, end, after = k, m.end(1), m.end()
    if kind is None:
        return None, pos + 1, _stray_token(text, pos).end()
    return kind, end, after


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
        plan = lexer.plan
        n = len(text)
        pos = LAYOUT.match(text, 0).end()
        while pos < n:
            match, names = by_char.get(text[pos]) or plan(text[pos])
            if match is not None:
                # one call: the token, then the layout after it
                m = match(text, pos)
                i = m.lastindex
                kinds.append(names[i])
                spans.append(m.span(i))
                pos = m.end()
            else:
                kind, end, after = _longest(names, text, pos)
                kinds.append(kind)
                spans.append((pos, end))
                pos = after

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
