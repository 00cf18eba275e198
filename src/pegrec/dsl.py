"""Text format for grammars.

    %start Prog ;
    Prog <- PUBLIC CLASS NAME '{' Body '}' ;      // syntactic rule
    NAME <- [a-zA-Z_][a-zA-Z0-9_]* ;              // lexical rule (ALL-CAPS)
    %recovery
    rcblk <- (!'}' .)* ;

Operators, loosest to tightest: choice ``/``, juxtaposition (sequence),
prefix ``!`` and ``&``, postfix ``*`` ``+`` ``?``.  ``[p]^l`` annotates p
with label l in syntactic rules; in lexical rules ``[...]`` is a character
class.  ``^l`` alone throws l.  ``.`` matches any token (or any character
in a lexical rule).  ``''`` is the empty expression.  ``//`` starts a
comment.  An empty choice alternative is allowed and means empty.  A name
starts with a letter or ``_`` and goes on with letters, digits and ``_``,
in any script.  The reserved kind ``EOF`` matches end of input.

The scanner runs no Python loop per character.  Layout (blanks and
comments) is skipped with the token lexer's pattern (``lexer.LAYOUT``),
a name, a quoted literal with its escapes and a character-class body are
each one ``re`` match, and punctuation is looked up by its first
character; only the members of a class are then visited one by one, to
build its ranges.  Tokens carry only their offset; a line and column
come from a table of line starts (``lexer.line_starts``), built when a
rule position or an error first needs one.  Grammar text nested too
deeply for the recursive-descent parser is a ``GrammarError``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .lexer import LAYOUT, line_col, line_starts, read_text
from .model import (
    And,
    AnyToken,
    Annotated,
    CharClass,
    Choice,
    Empty,
    Expr,
    Grammar,
    GrammarError,
    Literal,
    NonTerminal,
    Not,
    Optional,
    Plus,
    Sequence,
    Star,
    Terminal,
    Throw,
    is_lexical_name,
    literal_kind,
    validate,
)

# punctuation by its first character; '<' only starts "<-"
_PUNCT = {p[0]: p for p in
          ("<-", "/", "(", ")", "*", "+", "?", "!", "&", ".", ";", "^", "[", "]", "%")}
# Python's \w is exactly str.isalnum() or "_"; a name must also start with
# a letter (str.isalpha()) or "_", which the scanner checks on its own
_NAME = re.compile(r"\w+")
# a quoted literal: plain characters and escape pairs up to the closing
# quote; group 2 is missing when the literal is unterminated
_LITERAL = {q: re.compile(rf"{q}([^{q}\\\n]*(?:\\.[^{q}\\\n]*)*)({q})?", re.S)
            for q in "'\""}
# a character-class member: a character or an escape pair
_CLASS_CHAR = r"[^\]\\\n]|\\."
# the members up to the closing ']'; group 1 is missing when unterminated
_CLASS = re.compile(rf"(?:{_CLASS_CHAR})*(\])?", re.S)
# one class item: a member, or a range of two
_CLASS_ITEM = re.compile(rf"({_CLASS_CHAR})(?:-({_CLASS_CHAR}))?", re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def _unescape(s: str) -> str:
    if "\\" not in s:
        return s
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), s)


class _Tok(NamedTuple):
    kind: str
    text: str
    pos: int


class _Scanner:
    """Splits grammar text into tokens.  '[' is left in the raw stream
    because its meaning (annotation vs character class) depends on whether
    the enclosing rule is lexical; the parser has ``scan_class`` read a
    class body."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._starts: list[int] | None = None

    def line_col(self, pos: int) -> tuple[int, int]:
        if self._starts is None:
            self._starts = line_starts(self.text)
        return line_col(self._starts, pos)

    def error(self, msg: str, pos: int) -> GrammarError:
        return GrammarError(msg, *self.line_col(pos))

    def _stop_error(self, msg: str, stop: int) -> GrammarError:
        """The error of a literal or class whose scan stopped at ``stop``:
        reported at a newline there, otherwise at end of input (the text
        ends there, or in a lone backslash)."""
        text = self.text
        return self.error(msg, stop if text.startswith("\n", stop) else len(text))

    def next_token(self) -> _Tok:
        text = self.text
        pos = LAYOUT.match(text, self.pos).end()
        ch = text[pos:pos + 1]
        if not ch:
            self.pos = pos
            return _Tok("eof", "", pos)
        punct = _PUNCT.get(ch)
        if punct is not None and text.startswith(punct, pos):
            self.pos = pos + len(punct)
            return _Tok(punct, punct, pos)
        if ch.isalpha() or ch == "_":
            end = _NAME.match(text, pos).end()
            self.pos = end
            return _Tok("name", text[pos:end], pos)
        pattern = _LITERAL.get(ch)
        if pattern is None:
            raise self.error(f"unexpected character {ch!r}", pos)
        m = pattern.match(text, pos)
        if m[2] is None:
            raise self._stop_error("unterminated literal", m.end())
        self.pos = m.end()
        return _Tok("literal", _unescape(m[1]), pos)

    def scan_class(self) -> CharClass:
        """Called just after '['; consumes through the closing ']'."""
        text = self.text
        m = _CLASS.match(text, self.pos)
        ranges: list[tuple[str, str]] = []
        # the items tile the members; the closing ']' matches no item
        for item in _CLASS_ITEM.finditer(text, self.pos, m.end()):
            lo = _unescape(item[1])
            hi = lo if item[2] is None else _unescape(item[2])
            if hi < lo:
                raise self.error(f"bad range {lo!r}-{hi!r}", item.end())
            ranges.append((lo, hi))
        if m[1] is None:
            raise self._stop_error("unterminated character class", m.end())
        self.pos = m.end()
        return CharClass(tuple(ranges))


class _Parser:
    def __init__(self, text: str):
        self.scanner = _Scanner(text)
        self.tok = self.scanner.next_token()
        self.in_lexical = False

    def error(self, msg: str) -> GrammarError:
        return self.scanner.error(msg, self.tok.pos)

    def advance(self) -> _Tok:
        prev = self.tok
        self.tok = self.scanner.next_token()
        return prev

    def expect(self, kind: str) -> _Tok:
        if self.tok.kind != kind:
            raise self.error(f"expected {kind!r}, found {self.tok.text!r}")
        return self.advance()

    def parse_grammar(self) -> Grammar:
        start: str | None = None
        rules: dict[str, Expr] = {}
        lexical: dict[str, Expr] = {}
        recovery: dict[str, Expr] = {}
        positions: dict[str, tuple[int, int]] = {}
        in_recovery = False

        while self.tok.kind != "eof":
            if self.tok.kind == "%":
                self.advance()
                word = self.expect("name").text
                if word == "start":
                    if start is not None:
                        raise self.error("duplicate %start")
                    start = self.expect("name").text
                    self.expect(";")
                elif word == "recovery":
                    in_recovery = True
                else:
                    raise self.error(f"unknown directive %{word}")
                continue

            name_tok = self.expect("name")
            name = name_tok.text
            self.expect("<-")
            if in_recovery:
                self.in_lexical = False
                body = self.parse_choice()
                if name in recovery:
                    raise self.scanner.error(
                        f"duplicate recovery rule {name}", name_tok.pos)
                recovery[name] = body
            else:
                self.in_lexical = is_lexical_name(name)
                body = self.parse_choice()
                target = lexical if self.in_lexical else rules
                if name in rules or name in lexical:
                    raise self.scanner.error(f"duplicate rule {name}", name_tok.pos)
                target[name] = body
                positions[name] = self.scanner.line_col(name_tok.pos)
            self.expect(";")

        # no rule at all is reported by validate
        return validate(Grammar(
            rules=rules, lexical=lexical, start=start or next(iter(rules), ""),
            recovery=recovery, rule_positions=positions))

    def parse_choice(self):
        e = self.parse_sequence()
        while self.tok.kind == "/":
            self.advance()
            e = Choice(e, self.parse_sequence())
        return e

    _SEQ_STARTERS = ("name", "literal", "(", "[", "!", "&", ".", "^")

    def parse_sequence(self):
        if self.tok.kind not in self._SEQ_STARTERS:
            return Empty()  # empty alternative
        e = self.parse_prefix()
        while self.tok.kind in self._SEQ_STARTERS:
            e = Sequence(e, self.parse_prefix())
        return e

    def parse_prefix(self):
        if self.tok.kind == "!":
            self.advance()
            return Not(self.parse_prefix())
        if self.tok.kind == "&":
            self.advance()
            return And(self.parse_prefix())
        return self.parse_postfix()

    def parse_postfix(self):
        e = self.parse_atom()
        while self.tok.kind in ("*", "+", "?"):
            op = self.advance().kind
            e = {"*": Star, "+": Plus, "?": Optional}[op](e)
        return e

    def parse_atom(self):
        t = self.tok
        if t.kind == "name":
            self.advance()
            if self.in_lexical:
                if not is_lexical_name(t.text):
                    raise self.scanner.error(
                        f"lexical rules may only reference lexical rules, not {t.text!r}",
                        t.pos)
                return NonTerminal(t.text)
            if is_lexical_name(t.text):
                return Terminal(t.text)
            return NonTerminal(t.text)
        if t.kind == "literal":
            self.advance()
            if t.text == "":
                return Empty()
            if self.in_lexical:
                return Literal(t.text)
            return Terminal(literal_kind(t.text))
        if t.kind == "(":
            self.advance()
            e = self.parse_choice()
            self.expect(")")
            return e
        if t.kind == "[":
            if self.in_lexical:
                cls = self.scanner.scan_class()
                self.tok = self.scanner.next_token()
                return cls
            self.advance()
            body = self.parse_choice()
            self.expect("]")
            self.expect("^")
            lab = self.expect("name").text
            return Annotated(body, lab)
        if t.kind == ".":
            self.advance()
            return AnyToken()
        if t.kind == "^":
            self.advance()
            lab = self.expect("name").text
            return Throw(lab)
        raise self.error(f"expected an expression, found {t.text!r}")


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into a validated Grammar."""
    parser = _Parser(text)
    try:
        return parser.parse_grammar()
    except RecursionError:
        # the parser and validate recurse once per nesting level
        raise parser.error("grammar nested too deeply") from None


def load_grammar(path: str) -> Grammar:
    return parse_grammar(read_text(path))
