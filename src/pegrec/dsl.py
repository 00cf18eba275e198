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
comment.  An empty choice alternative is allowed and means empty.
"""

from __future__ import annotations

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

_PUNCT = ("<-", "/", "(", ")", "*", "+", "?", "!", "&", ".", ";", "^", "]", "%")


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


class _Scanner:
    """Splits grammar text into tokens.  '[' is left in the raw stream
    because its meaning (annotation vs character class) depends on whether
    the enclosing rule is lexical; the parser consumes class bodies
    character by character."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str) -> GrammarError:
        return GrammarError(msg, self.line, self.col)

    def _advance(self, n: int) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
            elif self.text.startswith("//", self.pos):
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance(1)
            else:
                return

    def next_token(self) -> _Tok:
        self.skip_space()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return _Tok("eof", "", line, col)
        ch = self.text[self.pos]
        if ch in "'\"":
            return _Tok("literal", self._scan_quoted(ch), line, col)
        if ch == "[":
            self._advance(1)
            return _Tok("[", "[", line, col)
        for p in _PUNCT:
            if self.text.startswith(p, self.pos):
                self._advance(len(p))
                return _Tok(p, p, line, col)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self._advance(1)
            return _Tok("name", self.text[start : self.pos], line, col)
        raise self.error(f"unexpected character {ch!r}")

    def _scan_quoted(self, quote: str) -> str:
        self._advance(1)
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated literal")
            ch = self.text[self.pos]
            if ch == quote:
                self._advance(1)
                return "".join(out)
            if ch == "\n":
                raise self.error("unterminated literal")
            if ch == "\\":
                self._advance(1)
                if self.pos >= len(self.text):
                    raise self.error("unterminated literal")
                esc = self.text[self.pos]
                out.append({"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc))
                self._advance(1)
            else:
                out.append(ch)
                self._advance(1)

    def scan_class(self) -> CharClass:
        """Called just after '['; consumes through the closing ']'."""
        ranges: list[tuple[str, str]] = []

        def read_char() -> str:
            if self.pos >= len(self.text) or self.text[self.pos] == "\n":
                raise self.error("unterminated character class")
            ch = self.text[self.pos]
            if ch == "\\":
                self._advance(1)
                if self.pos >= len(self.text):
                    raise self.error("unterminated character class")
                esc = self.text[self.pos]
                self._advance(1)
                return {"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc)
            self._advance(1)
            return ch

        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated character class")
            if self.text[self.pos] == "]":
                self._advance(1)
                return CharClass(tuple(ranges))
            lo = read_char()
            if (
                self.pos + 1 < len(self.text)
                and self.text[self.pos] == "-"
                and self.text[self.pos + 1] != "]"
            ):
                self._advance(1)
                hi = read_char()
                if hi < lo:
                    raise self.error(f"bad range {lo!r}-{hi!r}")
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))


class _Parser:
    def __init__(self, text: str):
        self.scanner = _Scanner(text)
        self.tok = self.scanner.next_token()
        self.in_lexical = False

    def error(self, msg: str) -> GrammarError:
        return GrammarError(msg, self.tok.line, self.tok.col)

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
                    raise GrammarError(
                        f"duplicate recovery rule {name}", name_tok.line, name_tok.col)
                recovery[name] = body
            else:
                self.in_lexical = is_lexical_name(name)
                body = self.parse_choice()
                target = lexical if self.in_lexical else rules
                if name in rules or name in lexical:
                    raise GrammarError(
                        f"duplicate rule {name}", name_tok.line, name_tok.col)
                target[name] = body
                positions[name] = (name_tok.line, name_tok.col)
            self.expect(";")

        if start is None:
            if not rules:
                raise GrammarError("grammar has no syntactic rules")
            start = next(iter(rules))
        g = Grammar(
            rules=rules, lexical=lexical, start=start,
            recovery=recovery, rule_positions=positions,
        )
        return validate(g)

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
                    raise GrammarError(
                        f"lexical rules may only reference lexical rules, not {t.text!r}",
                        t.line, t.col)
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
    return _Parser(text).parse_grammar()


def load_grammar(path: str) -> Grammar:
    with open(path, encoding="utf-8") as f:
        return parse_grammar(f.read())
