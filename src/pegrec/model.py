"""Grammar data model.

A grammar is a two-level PEG.  Syntactic rules match over a token stream;
lexical rules (ALL-CAPS names) describe the tokens themselves as
character-level patterns.  Failures carry labels: the distinguished label
``fail`` backtracks normally, every other label aborts ordinary alternatives
and repetitions and can only be fielded by a recovery expression or a
syntactic predicate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

FAIL = "fail"
EOF_KIND = "EOF"


class GrammarError(Exception):
    """Raised for malformed grammar text or an inconsistent grammar."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


# --- expression nodes ------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Empty(Expr):
    pass


@dataclass(frozen=True)
class Terminal(Expr):
    """Matches one token of the given kind.  The reserved kind ``EOF``
    succeeds without consuming exactly at end of input."""

    kind: str


@dataclass(frozen=True)
class NonTerminal(Expr):
    name: str


@dataclass(frozen=True)
class Sequence(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Choice(Expr):
    first: Expr
    second: Expr


@dataclass(frozen=True)
class Star(Expr):
    body: Expr


@dataclass(frozen=True)
class Not(Expr):
    body: Expr


@dataclass(frozen=True)
class Throw(Expr):
    label: str


@dataclass(frozen=True)
class AnyToken(Expr):
    """One token at the syntactic level, one character at the lexical level."""


@dataclass(frozen=True)
class Literal(Expr):
    """Exact character string; lexical rules only."""

    text: str


@dataclass(frozen=True)
class CharClass(Expr):
    """Set of character ranges; lexical rules only."""

    ranges: tuple[tuple[str, str], ...]


# Surface sugar.  Desugaring removes these four.

@dataclass(frozen=True)
class Annotated(Expr):
    """[p]^l -- p, and on plain failure throw l."""

    body: Expr
    label: str


@dataclass(frozen=True)
class Optional(Expr):
    body: Expr


@dataclass(frozen=True)
class Plus(Expr):
    body: Expr


@dataclass(frozen=True)
class And(Expr):
    body: Expr


def is_lexical_name(name: str) -> bool:
    # Single uppercase letters still name syntactic rules; token kinds need
    # at least two characters and no lowercase.
    return len(name) >= 2 and any(c.isalpha() for c in name) and name.upper() == name


def is_literal_kind(kind: str) -> bool:
    return kind.startswith("'")


def literal_kind(text: str) -> str:
    return "'" + text + "'"


def describe(e: Expr) -> str:
    """Short human-readable name for what an expression expects."""
    if isinstance(e, Terminal):
        return e.kind
    if isinstance(e, NonTerminal):
        return e.name
    return render_expr(e)


# --- grammar ----------------------------------------------------------------

@dataclass(eq=False)
class Grammar:
    """Rules, token definitions, and the error-handling side tables.

    ``rules`` and ``lexical`` are ordered; lexical order is the token
    priority for longest-match ties.  ``labels`` collects every label thrown
    or attached anywhere.  ``recovery`` maps a label to the expression run
    when that label is thrown; ``messages`` maps a label to diagnostic text.
    """

    rules: dict[str, Expr]
    lexical: dict[str, Expr]
    start: str
    labels: set[str] = field(default_factory=set)
    recovery: dict[str, Expr] = field(default_factory=dict)
    messages: dict[str, str] = field(default_factory=dict)
    literal_kinds: tuple[str, ...] = ()
    label_descriptions: dict[str, str] = field(default_factory=dict)
    rule_positions: dict[str, tuple[int, int]] = field(default_factory=dict)
    desugared: bool = False

    def token_kinds(self) -> tuple[str, ...]:
        return tuple(self.lexical) + self.literal_kinds

    def sorted_kinds(self, kinds) -> list[str]:
        order = {k: i for i, k in enumerate(self.token_kinds())}
        return sorted(kinds, key=lambda k: (order.get(k, len(order) + 1), k))


# --- validation -------------------------------------------------------------

def _walk(e: Expr):
    yield e
    for child in _children(e):
        yield from _walk(child)


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Sequence):
        return (e.left, e.right)
    if isinstance(e, Choice):
        return (e.first, e.second)
    if isinstance(e, (Star, Not, Optional, Plus, And)):
        return (e.body,)
    if isinstance(e, Annotated):
        return (e.body,)
    return ()


def operands(e: Expr, cls: type) -> list[Expr]:
    """Operands of a chain of cls nodes (Sequence or Choice), left to
    right.  Both operators are associative, so a chain can run as one
    n-ary node."""
    out: list[Expr] = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack.extend(reversed(_children(node)))
        else:
            out.append(node)
    return out


def annotation_parts(e: Expr) -> tuple[Expr, str] | None:
    """Return (body, label) when e is an annotation, sugared or not."""
    if isinstance(e, Annotated):
        return e.body, e.label
    if isinstance(e, Choice) and isinstance(e.second, Throw):
        return e.first, e.second.label
    return None


def _collect_label_sites(e: Expr, into: dict[str, str]) -> None:
    parts = annotation_parts(e)
    if parts is not None:
        body, lab = parts
        into.setdefault(lab, describe(body))
    for child in _children(e):
        _collect_label_sites(child, into)


def validate(g: Grammar) -> Grammar:
    """Check structural consistency and fill the derived tables.

    Rejects undefined references, left recursion (direct or through nullable
    prefixes), throws of the reserved label ``fail``, and recovery rules for
    labels that are never thrown.  Also collects anonymous literal token
    kinds, the label set, and default per-label descriptions/messages.
    """
    if not g.rules:
        raise GrammarError("grammar has no syntactic rules")
    if g.start not in g.rules:
        raise GrammarError(f"start rule {g.start!r} is not defined")

    literals: list[str] = []
    labels: set[str] = set()

    def note_literals_and_labels(e: Expr) -> None:
        for node in _walk(e):
            if isinstance(node, Terminal) and is_literal_kind(node.kind):
                if node.kind not in literals:
                    literals.append(node.kind)
            if isinstance(node, Throw):
                if node.label == FAIL:
                    raise GrammarError(f"label {FAIL!r} is reserved and cannot be thrown")
                labels.add(node.label)
            if isinstance(node, Annotated):
                if node.label == FAIL:
                    raise GrammarError(f"label {FAIL!r} is reserved and cannot be thrown")
                labels.add(node.label)

    def check_syntactic_refs(rule: str, e: Expr) -> None:
        for node in _walk(e):
            if isinstance(node, NonTerminal):
                if node.name not in g.rules:
                    raise GrammarError(f"undefined nonterminal {node.name!r} in {rule}")
            elif isinstance(node, Terminal):
                if node.kind == EOF_KIND or is_literal_kind(node.kind):
                    continue
                if node.kind not in g.lexical:
                    raise GrammarError(f"undefined token kind {node.kind!r} in {rule}")
            elif isinstance(node, (Literal, CharClass)):
                raise GrammarError(
                    f"character-level pattern in syntactic rule {rule}")

    def check_lexical_refs(rule: str, e: Expr) -> None:
        for node in _walk(e):
            if isinstance(node, NonTerminal):
                if node.name not in g.lexical:
                    raise GrammarError(
                        f"lexical rule {rule} references {node.name!r}, "
                        "which is not a lexical rule")
            elif isinstance(node, (Throw, Annotated)):
                raise GrammarError(f"labels are not allowed in lexical rule {rule}")
            elif isinstance(node, Terminal):
                raise GrammarError(
                    f"token reference in lexical rule {rule}; use a literal")

    for name, body in g.rules.items():
        note_literals_and_labels(body)
        check_syntactic_refs(name, body)
    for name, body in g.lexical.items():
        check_lexical_refs(name, body)
    for lab, body in g.recovery.items():
        note_literals_and_labels(body)
        check_syntactic_refs(f"recovery for {lab}", body)
    for lab in g.recovery:
        if lab not in labels:
            raise GrammarError(f"recovery rule for undeclared label {lab!r}")

    g.literal_kinds = tuple(literals)
    g.labels = labels

    descriptions: dict[str, str] = {}
    for body in g.rules.values():
        _collect_label_sites(body, descriptions)
    g.label_descriptions = descriptions
    for lab, desc in descriptions.items():
        g.messages.setdefault(lab, f"expected {desc}")

    _check_left_recursion(g.rules, "rule")
    _check_left_recursion(g.lexical, "lexical rule")
    return g


def _nullable_map(rules: dict[str, Expr]) -> dict[str, bool]:
    nullable = {name: False for name in rules}

    def expr_nullable(e: Expr) -> bool:
        if isinstance(e, (Empty, Star, Not, And, Optional)):
            return True
        if isinstance(e, Terminal):
            return e.kind == EOF_KIND
        if isinstance(e, (AnyToken, Throw, CharClass)):
            return False
        if isinstance(e, Literal):
            return e.text == ""
        if isinstance(e, NonTerminal):
            return nullable.get(e.name, False)
        if isinstance(e, Sequence):
            return expr_nullable(e.left) and expr_nullable(e.right)
        if isinstance(e, Choice):
            return expr_nullable(e.first) or expr_nullable(e.second)
        if isinstance(e, (Plus, Annotated)):
            return expr_nullable(e.body)
        raise TypeError(f"unknown expression {e!r}")

    changed = True
    while changed:
        changed = False
        for name, body in rules.items():
            v = expr_nullable(body)
            if v and not nullable[name]:
                nullable[name] = True
                changed = True
    return nullable


def _check_left_recursion(rules: dict[str, Expr], what: str) -> None:
    """Conservative reachability check: a rule must not be able to reinvoke
    itself before any input has necessarily been consumed."""
    nullable = _nullable_map(rules)

    def heads(e: Expr, out: set[str]) -> None:
        if isinstance(e, NonTerminal):
            out.add(e.name)
        elif isinstance(e, Sequence):
            heads(e.left, out)
            if _expr_nullable_with(e.left, nullable):
                heads(e.right, out)
        elif isinstance(e, Choice):
            heads(e.first, out)
            heads(e.second, out)
        elif isinstance(e, (Star, Not, And, Optional, Plus)):
            heads(e.body, out)
        elif isinstance(e, Annotated):
            heads(e.body, out)

    head_map: dict[str, set[str]] = {}
    for name, body in rules.items():
        out: set[str] = set()
        heads(body, out)
        head_map[name] = out

    for name in rules:
        seen: set[str] = set()
        frontier = set(head_map[name])
        while frontier:
            n = frontier.pop()
            if n == name:
                raise GrammarError(f"left recursion detected in {what} {name}")
            if n in seen or n not in head_map:
                continue
            seen.add(n)
            frontier |= head_map[n]


def _expr_nullable_with(e: Expr, nullable: dict[str, bool]) -> bool:
    if isinstance(e, (Empty, Star, Not, And, Optional)):
        return True
    if isinstance(e, Terminal):
        return e.kind == EOF_KIND
    if isinstance(e, (AnyToken, Throw, CharClass)):
        return False
    if isinstance(e, Literal):
        return e.text == ""
    if isinstance(e, NonTerminal):
        return nullable.get(e.name, False)
    if isinstance(e, Sequence):
        return _expr_nullable_with(e.left, nullable) and _expr_nullable_with(e.right, nullable)
    if isinstance(e, Choice):
        return _expr_nullable_with(e.first, nullable) or _expr_nullable_with(e.second, nullable)
    if isinstance(e, (Plus, Annotated)):
        return _expr_nullable_with(e.body, nullable)
    raise TypeError(f"unknown expression {e!r}")


# --- desugaring and label stripping ----------------------------------------

def desugar_expr(e: Expr) -> Expr:
    """Rewrite to the core constructors: [p]^l -> (p / throw l), p? -> (p / empty),
    p+ -> p p*, &p -> !!p."""
    if isinstance(e, Annotated):
        return Choice(desugar_expr(e.body), Throw(e.label))
    if isinstance(e, Optional):
        return Choice(desugar_expr(e.body), Empty())
    if isinstance(e, Plus):
        b = desugar_expr(e.body)
        return Sequence(b, Star(b))
    if isinstance(e, And):
        return Not(Not(desugar_expr(e.body)))
    if isinstance(e, Sequence):
        return Sequence(desugar_expr(e.left), desugar_expr(e.right))
    if isinstance(e, Choice):
        return Choice(desugar_expr(e.first), desugar_expr(e.second))
    if isinstance(e, Star):
        return Star(desugar_expr(e.body))
    if isinstance(e, Not):
        return Not(desugar_expr(e.body))
    return e


def desugar(g: Grammar) -> Grammar:
    """Desugared copy of g.  Idempotent; label set and derived tables kept."""
    if g.desugared:
        return g
    out = Grammar(
        rules={n: desugar_expr(b) for n, b in g.rules.items()},
        lexical={n: desugar_expr(b) for n, b in g.lexical.items()},
        start=g.start,
        labels=set(g.labels),
        recovery={l: desugar_expr(b) for l, b in g.recovery.items()},
        messages=dict(g.messages),
        rule_positions=dict(g.rule_positions),
        desugared=True,
    )
    return validate(out)


@dataclass(eq=False)
class Program:
    """What one grammar compiles to.  ``grammar`` is its desugared,
    validated form; the lexer and the engine fill in ``lexer`` and
    ``matcher`` the first time they need them."""

    grammar: Grammar
    lexer: object = None
    matcher: object = None


# Keyed on the Grammar object: an entry lives as long as its grammar.  A
# grammar changed after its first parse would keep a stale entry.
_PROGRAMS: "weakref.WeakKeyDictionary[Grammar, Program]" = weakref.WeakKeyDictionary()


def program(g: Grammar) -> Program:
    """The compiled program of g, desugaring and validating g only the
    first time it is asked for."""
    prog = _PROGRAMS.get(g)
    if prog is None:
        d = desugar(g)
        if d is g:
            # an entry that refers to its own key would never be dropped
            d = replace(g)
        prog = _PROGRAMS[g] = Program(d)
    return prog


def strip_labels_expr(e: Expr) -> Expr:
    parts = annotation_parts(e)
    if parts is not None:
        return strip_labels_expr(parts[0])
    if isinstance(e, Sequence):
        return Sequence(strip_labels_expr(e.left), strip_labels_expr(e.right))
    if isinstance(e, Choice):
        return Choice(strip_labels_expr(e.first), strip_labels_expr(e.second))
    if isinstance(e, Star):
        return Star(strip_labels_expr(e.body))
    if isinstance(e, Not):
        return Not(strip_labels_expr(e.body))
    if isinstance(e, (Optional, Plus, And)):
        return type(e)(strip_labels_expr(e.body))
    return e


def strip_labels(g: Grammar) -> Grammar:
    """Remove every annotation site; bare throws are left alone."""
    rules = {n: strip_labels_expr(b) for n, b in g.rules.items()}
    out = Grammar(
        rules=rules,
        lexical=dict(g.lexical),
        start=g.start,
        rule_positions=dict(g.rule_positions),
        desugared=g.desugared,
    )
    validate(out)
    out.recovery = {l: b for l, b in g.recovery.items() if l in out.labels}
    out.messages = {l: t for l, t in g.messages.items() if l in out.labels}
    return out


# --- serialization ----------------------------------------------------------

_ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", "\\": "\\\\"}


def _quote(text: str) -> str:
    out = []
    for ch in text:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ch == "'":
            out.append("\\'")
        else:
            out.append(ch)
    return "'" + "".join(out) + "'"


def _class_text(ranges: tuple[tuple[str, str], ...]) -> str:
    def esc(ch: str) -> str:
        if ch in _ESCAPES:
            return _ESCAPES[ch]
        if ch in "]-[\\":
            return "\\" + ch
        return ch

    parts = []
    for lo, hi in ranges:
        parts.append(esc(lo) if lo == hi else f"{esc(lo)}-{esc(hi)}")
    return "[" + "".join(parts) + "]"


# Precedence levels: choice < sequence < prefix < postfix.
_CHOICE, _SEQ, _PREFIX, _POSTFIX = 0, 1, 2, 3


def render_expr(e: Expr, prec: int = _CHOICE) -> str:
    parts = annotation_parts(e)
    if parts is not None:
        body, lab = parts
        return f"[{render_expr(body)}]^{lab}"
    if isinstance(e, Empty):
        return "''"
    if isinstance(e, Terminal):
        return e.kind  # literal kinds already carry their quotes
    if isinstance(e, NonTerminal):
        return e.name
    if isinstance(e, Throw):
        return f"^{e.label}"
    if isinstance(e, AnyToken):
        return "."
    if isinstance(e, Literal):
        return _quote(e.text)
    if isinstance(e, CharClass):
        return _class_text(e.ranges)
    if isinstance(e, Sequence):
        # left-associative: a left-nested chain prints flat and reparses
        # to the same shape; right-nesting keeps explicit parens
        text = f"{render_expr(e.left, _SEQ)} {render_expr(e.right, _PREFIX)}"
        return f"({text})" if prec > _SEQ else text
    if isinstance(e, Choice):
        text = f"{render_expr(e.first, _CHOICE)} / {render_expr(e.second, _SEQ)}"
        return f"({text})" if prec > _CHOICE else text
    if isinstance(e, Star):
        return f"{render_expr(e.body, _POSTFIX + 1)}*"
    if isinstance(e, Plus):
        return f"{render_expr(e.body, _POSTFIX + 1)}+"
    if isinstance(e, Optional):
        return f"{render_expr(e.body, _POSTFIX + 1)}?"
    if isinstance(e, Not):
        return f"!{render_expr(e.body, _POSTFIX + 1)}"
    if isinstance(e, And):
        return f"&{render_expr(e.body, _POSTFIX + 1)}"
    raise TypeError(f"cannot render {e!r}")


def serialize_grammar(g: Grammar) -> str:
    """Canonical text form.  Annotation sites print as [p]^l whether stored
    sugared or as (p / throw), so annotated grammars diff cleanly."""
    lines = [f"%start {g.start} ;", ""]
    for name, body in g.rules.items():
        lines.append(f"{name} <- {render_expr(body)} ;")
    if g.lexical:
        lines.append("")
        for name, body in g.lexical.items():
            lines.append(f"{name} <- {render_expr(body)} ;")
    if g.recovery:
        lines.append("")
        lines.append("%recovery")
        for lab, body in g.recovery.items():
            lines.append(f"{lab} <- {render_expr(body)} ;")
    return "\n".join(lines) + "\n"


# --- structural equality ----------------------------------------------------

def _normalize(e: Expr) -> Expr:
    if isinstance(e, Annotated):
        return Choice(_normalize(e.body), Throw(e.label))
    if isinstance(e, Sequence):
        return Sequence(_normalize(e.left), _normalize(e.right))
    if isinstance(e, Choice):
        return Choice(_normalize(e.first), _normalize(e.second))
    if isinstance(e, Star):
        return Star(_normalize(e.body))
    if isinstance(e, Not):
        return Not(_normalize(e.body))
    if isinstance(e, (Optional, Plus, And)):
        return type(e)(_normalize(e.body))
    return e


def expr_eq(a: Expr, b: Expr) -> bool:
    """Equality up to annotation sugar: [p]^l and (p / throw l) are the same."""
    return _normalize(a) == _normalize(b)


def grammar_eq(a: Grammar, b: Grammar) -> bool:
    """Structural equality of the parts that carry meaning.  Rule order
    matters (it is token priority on the lexical side); messages and source
    positions do not."""
    if list(a.rules) != list(b.rules) or list(a.lexical) != list(b.lexical):
        return False
    if a.start != b.start or a.labels != b.labels:
        return False
    if set(a.recovery) != set(b.recovery):
        return False
    for name in a.rules:
        if not expr_eq(a.rules[name], b.rules[name]):
            return False
    for name in a.lexical:
        if not expr_eq(a.lexical[name], b.lexical[name]):
            return False
    for lab in a.recovery:
        if not expr_eq(a.recovery[lab], b.recovery[lab]):
            return False
    return True
