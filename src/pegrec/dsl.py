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
``model`` states the operators with their spellings and levels
(``OPERATORS``), the escape pairs (``ESCAPES``) and the names
(``is_name``) once, for this reader and for ``serialize_grammar``.

The parser scans each token with one ``re`` match: layout (blanks and
comments, the token lexer's ``lexer.LAYOUT``), then a name, punctuation,
a quoted literal with its escapes, or the end of the text, told apart by
the group that matched.  It keeps the current token's kind, text and
offset as attributes, and reads names and literals in the same frame as
the postfix operators after them.  A character-class body is one more
match, and only its members are visited one by one, to build its ranges.
A line and column come from a table of line starts
(``lexer.line_starts``), built when an error first needs one.  Grammar
text nested too deeply for the recursive-descent parser is a
``GrammarError``.
"""

from __future__ import annotations

import re

from .lexer import LAYOUT, line_col, line_starts, read_text
from .model import (
    ESCAPES,
    OPERATORS,
    POSTFIX,
    PREFIX,
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
    Sequence,
    Terminal,
    Throw,
    is_lexical_name,
    is_name,
    literal_kind,
    nesting_guard,
    validate,
)

# One token after layout, named by the group that matches: a name, the
# punctuation, a quoted literal (plain characters and escape pairs up to
# the closing quote, which is missing when the literal is unterminated),
# or the end of the text.  A name is a run of \w that ``is_name`` then
# checks for its first character.  No group matches at a character that
# starts no token.  ``LAYOUT`` is possessive, so a failed match cannot
# find a token inside a comment by giving back part of it.
_TOKEN = re.compile(
    LAYOUT.pattern
    + r"""(?:(?P<name>\w+)"""
    + r"""|(?P<punct><-|[/()+*?!&.;^\[\]%])"""
    + r"""|(?P<literal>'(?P<single>[^'\\\n]*(?:\\.[^'\\\n]*)*)(?P<end1>')?"""
    + r"""|"(?P<double>[^"\\\n]*(?:\\.[^"\\\n]*)*)(?P<end2>")?)"""
    + r"""|(?P<eof>\Z))""", re.S)
# a character-class member: a character or an escape pair
_CLASS_CHAR = r"[^\]\\\n]|\\."
# the members up to the closing ']'; group 1 is missing when unterminated
_CLASS = re.compile(rf"(?:{_CLASS_CHAR})*(\])?", re.S)
# one class item: a member, or a range of two
_CLASS_ITEM = re.compile(rf"({_CLASS_CHAR})(?:-({_CLASS_CHAR}))?", re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)
# the character each escape pair stands for, as ``model`` writes them
_UNESCAPES = {pair[1]: c for c, pair in ESCAPES.items()}

# the prefix and the postfix operators, as ``model`` spells them, and the
# tokens that start a sequence item
_PREFIX = {spelling: cls for cls, (spelling, level, _) in OPERATORS.items() if level == PREFIX}
_POSTFIX = {spelling: cls for cls, (spelling, level, _) in OPERATORS.items() if level == POSTFIX}
_SEQ_STARTERS = frozenset(("name", "literal", "(", "[", ".", "^", *_PREFIX))


def _unescape(s: str) -> str:
    if "\\" not in s:
        return s
    return _ESCAPE.sub(lambda m: _UNESCAPES.get(m[1], m[1]), s)


class _Parser:
    """Recursive descent over grammar text.  The current token is ``kind``
    (``name``, ``literal``, ``eof`` or the punctuation itself), ``text``
    (a literal's unescaped body) and ``pos``, its offset; ``end`` is where
    the next token's layout starts.  '[' is left as a token because its
    meaning (annotation vs character class) depends on whether the
    enclosing rule is lexical; ``scan_class`` reads a class body."""

    def __init__(self, text: str):
        self.source = text
        self.end = 0
        self._starts: list[int] | None = None
        self.in_lexical = False
        # is_lexical_name per name seen, each checked by is_name once
        self._lexical: dict[str, bool] = {}
        # per level, syntactic and lexical, the leaves of this parse by
        # spelling: a name, a quoted literal, "''", ".", "^label", or a
        # character class's ranges; ``leaves`` is the current rule's
        self._levels: tuple[dict, dict] = ({}, {})
        self.leaves = self._levels[False]
        self.advance()

    def line_col(self, pos: int) -> tuple[int, int]:
        if self._starts is None:
            self._starts = line_starts(self.source)
        return line_col(self._starts, pos)

    def error_at(self, msg: str, pos: int) -> GrammarError:
        return GrammarError(msg, *self.line_col(pos))

    def error(self, msg: str) -> GrammarError:
        return self.error_at(msg, self.pos)

    def _stop_error(self, msg: str, stop: int) -> GrammarError:
        """The error of a literal or class whose scan stopped at ``stop``:
        reported at a newline there, otherwise at end of input (the text
        ends there, or in a lone backslash)."""
        text = self.source
        return self.error_at(msg, stop if text.startswith("\n", stop) else len(text))

    def advance(self) -> None:
        """Scan the next token into ``kind``, ``text`` and ``pos``."""
        m = _TOKEN.match(self.source, self.end)
        if m is None:
            pos = LAYOUT.match(self.source, self.end).end()
            raise self.error_at(f"unexpected character {self.source[pos]!r}", pos)
        kind = m.lastgroup
        self.pos = m.start(kind)
        self.end = m.end()
        if kind == "punct":
            self.kind = self.text = m[kind]
        elif kind == "name":
            word = m[kind]
            if word not in self._lexical:
                if not is_name(word):
                    raise self.error_at(f"unexpected character {word[0]!r}", self.pos)
                self._lexical[word] = is_lexical_name(word)
            self.kind = kind
            self.text = word
        elif kind == "literal":
            body, close = ((m["single"], m["end1"]) if m["single"] is not None
                           else (m["double"], m["end2"]))
            if close is None:
                raise self._stop_error("unterminated literal", self.end)
            self.kind = kind
            self.text = _unescape(body)
        else:
            self.kind = kind
            self.text = ""

    def scan_class(self) -> CharClass:
        """Called at a '[' token; consumes through the closing ']'.  The
        caller then advances to the token after it."""
        text = self.source
        m = _CLASS.match(text, self.end)
        ranges: list[tuple[str, str]] = []
        # the items tile the members; the closing ']' matches no item
        for item in _CLASS_ITEM.finditer(text, self.end, m.end()):
            lo = _unescape(item[1])
            hi = lo if item[2] is None else _unescape(item[2])
            if hi < lo:
                raise self.error_at(f"bad range {lo!r}-{hi!r}", item.end())
            ranges.append((lo, hi))
        if m[1] is None:
            raise self._stop_error("unterminated character class", m.end())
        self.end = m.end()
        ranges = tuple(ranges)
        return self.leaf(ranges, CharClass, ranges)

    def leaf(self, key, cls: type, *field) -> Expr:
        """The one node ``cls(*field)`` spelled ``key`` at this level of
        this parse.  A leaf is immutable and has no child, so every place
        that spells it can share it."""
        node = self.leaves.get(key)
        if node is None:
            node = self.leaves[key] = cls(*field)
        return node

    def expect(self, kind: str) -> str:
        """The current token's text, which must be of this kind; then
        advance."""
        if self.kind != kind:
            raise self.error(f"expected {kind!r}, found {self.text!r}")
        text = self.text
        self.advance()
        return text

    def parse_grammar(self) -> Grammar:
        start: str | None = None
        rules: dict[str, Expr] = {}
        lexical: dict[str, Expr] = {}
        recovery: dict[str, Expr] = {}
        in_recovery = False

        while self.kind != "eof":
            if self.kind == "%":
                self.advance()
                word = self.expect("name")
                if word == "start":
                    if start is not None:
                        raise self.error("duplicate %start")
                    start = self.expect("name")
                    self.expect(";")
                elif word == "recovery":
                    in_recovery = True
                else:
                    raise self.error(f"unknown directive %{word}")
                continue

            name_pos = self.pos
            name = self.expect("name")
            self.expect("<-")
            if in_recovery:
                self.in_lexical = False
                self.leaves = self._levels[False]
                body = self.parse_choice()
                if name in recovery:
                    raise self.error_at(f"duplicate recovery rule {name}", name_pos)
                recovery[name] = body
            else:
                self.in_lexical = self._lexical[name]
                self.leaves = self._levels[self.in_lexical]
                body = self.parse_choice()
                target = lexical if self.in_lexical else rules
                if name in rules or name in lexical:
                    raise self.error_at(f"duplicate rule {name}", name_pos)
                target[name] = body
            self.expect(";")

        # no rule at all is reported by validate
        return validate(Grammar(
            rules=rules, lexical=lexical, start=start or next(iter(rules), ""),
            recovery=recovery))

    def parse_choice(self) -> Expr:
        """Alternatives separated by '/', each a sequence; an empty one
        is the empty expression."""
        choice = None
        while True:
            if self.kind in _SEQ_STARTERS:
                e = self.parse_prefix()
                while self.kind in _SEQ_STARTERS:
                    e = Sequence(e, self.parse_prefix())
            else:
                e = self.leaf("''", Empty)
            choice = e if choice is None else Choice(choice, e)
            if self.kind != "/":
                return choice
            self.advance()

    def parse_prefix(self) -> Expr:
        """A sequence item: a prefix operator and its operand, or an atom
        and its postfix operators.  A name or a literal is read here."""
        kind = self.kind
        if kind == "name":
            name = self.text
            pos = self.pos
            self.advance()
            lexical = self._lexical[name]
            if self.in_lexical and not lexical:
                raise self.error_at(
                    f"lexical rules may only reference lexical rules, not {name!r}", pos)
            e = self.leaves.get(name)
            if e is None:
                e = self.leaves[name] = (Terminal if lexical and not self.in_lexical
                                         else NonTerminal)(name)
        elif kind == "literal":
            text = self.text
            self.advance()
            spelled = literal_kind(text)
            e = self.leaves.get(spelled)
            if e is None:
                e = self.leaves[spelled] = (Empty() if text == "" else Literal(text)
                                            if self.in_lexical else Terminal(spelled))
        elif kind in _PREFIX:
            self.advance()
            return _PREFIX[kind](self.parse_prefix())
        else:
            e = self.parse_atom()
        while True:
            op = _POSTFIX.get(self.kind)
            if op is None:
                return e
            self.advance()
            e = op(e)

    def parse_atom(self) -> Expr:
        """A parenthesized choice, an annotation or a character class,
        ``.``, or a throw."""
        kind = self.kind
        if kind == "(":
            self.advance()
            e = self.parse_choice()
            self.expect(")")
            return e
        if kind == "[":
            if self.in_lexical:
                cls = self.scan_class()
                self.advance()
                return cls
            self.advance()
            body = self.parse_choice()
            self.expect("]")
            self.expect("^")
            return Annotated(body, self.expect("name"))
        if kind == ".":
            self.advance()
            return self.leaf(".", AnyToken)
        if kind == "^":
            self.advance()
            label = self.expect("name")
            return self.leaf("^" + label, Throw, label)
        raise self.error(f"expected an expression, found {self.text!r}")


def parse_grammar(text: str) -> Grammar:
    """Parse grammar text into a validated Grammar."""
    parser = _Parser(text)
    with nesting_guard():
        try:
            return parser.parse_grammar()
        except RecursionError:
            # the parser and validate recurse once per nesting level
            raise parser.error("grammar nested too deeply") from None


def load_grammar(path: str) -> Grammar:
    return parse_grammar(read_text(path))
