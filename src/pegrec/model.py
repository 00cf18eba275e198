"""Grammar data model.

A grammar is a two-level PEG.  Syntactic rules match over a token stream;
lexical rules (ALL-CAPS names) describe the tokens themselves as
character-level patterns, which may not reach themselves, so each is
regular.  Failures carry labels: the distinguished label
``fail`` backtracks normally, every other label aborts ordinary alternatives
and repetitions and can only be fielded by a recovery expression or a
syntactic predicate.

A grammar is checked once (``validate``): by ``parse_grammar``, or, when
built by hand, on first use (``checked``: parse, match, annotate, Analysis).
``validate`` is the one gate: the tables ``_scan_nodes`` reads decide
what a node may be and hold, and the layers after it assume those shapes
with no fallback of their own.  The passes keep validity, so their outputs
are not checked again.  A grammar remembers that it is valid, its
desugared form (``desugar``) and what is compiled from that, in fields of
its own: do not mutate it after its first use.

The grammar text is stated here once, for ``dsl``'s reader and for
``serialize_grammar``: the operators (``OPERATORS``), the escape pairs
(``ESCAPES``) and the names (``is_name``).

Nodes are plain classes with ``__slots__`` on one base, ``FrozenRecord``:
immutable, and with ``==``, ``hash`` and ``repr`` over the fields each
class lists in ``_fields``.  All three run on explicit stacks, so they
work at any depth; a node's hash is computed once and kept, and ``==``
compares each pair of nodes once.  Importing the module generates no
code.

The walks of a pass (``_walk``, and the checks and tables built from it)
run on an explicit stack too and dispatch on the exact class of a node
(``node.__class__ is Choice``): every ``Expr`` class is defined here, no
node class is subclassed, and ``validate`` rejects an object of any other.
Two rules of sharing: a leaf, which has no child, may have any number of
parents (``dsl`` builds one per spelling in a parse), and desugaring
``p+`` to ``p p*`` gives both parts the same p; no other node has two
parents.  Every walk and rewrite but ``annotate._Annotator._labexp``,
which unfolds the sharing, finds that p with ``plus_operand`` and visits
it once, so it stays linear in the size of the DAG, not of the tree it
unfolds to.
``First`` is the one FIRST-set and nullability computation: ``analysis``,
the lexer, the matcher's guards and the left-recursion check each run it
with a ``leaf`` function of their own; on a validated grammar it computes
each rule's set once, with no fixpoint rounds.  Every public call runs its
recursive work under ``nesting_guard``, the one owner of the stack budget.
"""

from __future__ import annotations

import _thread
import copy
import operator
import sys
from contextlib import ContextDecorator

FAIL = "fail"
EOF_KIND = "EOF"
STACK_BUDGET = 20000  # frames; the matcher takes about six per nesting level
_lock, _calls_in_flight, _limit_found = _thread.allocate_lock(), 0, 0
# the limit found could not be restored where the last call left
_restore_pending = False


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


# --- records ----------------------------------------------------------------

_set = object.__setattr__


class Record:
    """Base of pegrec's record classes: ``==`` and ``repr`` over the fields
    a class names in ``_fields``, in that order, as a dataclass's would.
    A field that holds a record of the same class on both sides is compared
    on an explicit stack, with a memo of the pairs of nodes already
    compared, so no nesting is too deep and a shared node is compared once
    per pair.  ``repr`` also runs on a stack.  A mutable record is not
    hashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        seen = set()
        while pairs:
            a, b = pairs.pop()
            for name in a._fields:
                x = getattr(a, name)
                y = getattr(b, name)
                if x is y:
                    continue
                if isinstance(x, Record) and x.__class__ is y.__class__:
                    key = (id(x), id(y))
                    if key not in seen:
                        seen.add(key)
                        pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        out = []
        # a record still to render, or the text of what is rendered already
        stack = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Record):
                out.append(item)
                continue
            parts = [f"{item.__class__.__qualname__}("]
            for i, name in enumerate(item._fields):
                value = getattr(item, name)
                parts.append(f"{', ' if i else ''}{name}=")
                parts.append(value if isinstance(value, Record) else repr(value))
            parts.append(")")
            stack.extend(reversed(parts))
        return "".join(out)


class FrozenRecord(Record):
    """A record that cannot change: assigning or deleting an attribute
    raises ``AttributeError``.  Its hash is computed once, children first
    on an explicit stack, and kept.  A copy is built by the constructor
    from the fields, so every field is a constructor argument in order."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            rec = stack[-1]
            if hasattr(rec, "_hash"):
                stack.pop()
                continue
            values = tuple(getattr(rec, name) for name in rec._fields)
            below = [v for v in values
                     if isinstance(v, FrozenRecord) and not hasattr(v, "_hash")]
            if below:
                stack.extend(below)
            else:
                stack.pop()
                # each record below returns the hash it keeps: no recursion
                _set(rec, "_hash", hash(values))
        return self._hash


# --- expression nodes ------------------------------------------------------

class Expr(FrozenRecord):
    __slots__ = ()


class Empty(Expr):
    __slots__ = ()


class Terminal(Expr):
    """Matches one token of the given kind.  The reserved kind ``EOF``
    succeeds without consuming exactly at end of input."""

    __slots__ = _fields = ("kind",)

    def __init__(self, kind: str):
        _set(self, "kind", kind)


class NonTerminal(Expr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Sequence(Expr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)


class Choice(Expr):
    __slots__ = _fields = ("first", "second")

    def __init__(self, first: Expr, second: Expr):
        _set(self, "first", first)
        _set(self, "second", second)


class _Unary(Expr):
    """The fields of the nodes with one subexpression; never built itself."""

    __slots__ = _fields = ("body",)

    def __init__(self, body: Expr):
        _set(self, "body", body)


class Star(_Unary):
    __slots__ = ()


class Not(_Unary):
    __slots__ = ()


class Throw(Expr):
    __slots__ = _fields = ("label",)

    def __init__(self, label: str):
        _set(self, "label", label)


class AnyToken(Expr):
    """One token at the syntactic level, one character at the lexical level."""

    __slots__ = ()


class Literal(Expr):
    """Exact character string; lexical rules only."""

    __slots__ = _fields = ("text",)

    def __init__(self, text: str):
        _set(self, "text", text)


class CharClass(Expr):
    """Set of character ranges; lexical rules only."""

    __slots__ = _fields = ("ranges",)

    def __init__(self, ranges: tuple[tuple[str, str], ...]):
        _set(self, "ranges", ranges)


# Surface sugar.  Desugaring removes these three.

class Optional(_Unary):
    __slots__ = ()


class Plus(_Unary):
    __slots__ = ()


class And(_Unary):
    __slots__ = ()


def Annotated(body: Expr, label: str) -> Expr:
    """[p]^l -- p, and on plain failure throw l.  The annotation is the
    choice p / ^l and is stored as that choice."""
    return Choice(body, Throw(label))


def is_lexical_name(name: str) -> bool:
    # Single uppercase letters still name syntactic rules; token kinds need
    # at least two characters and no lowercase.
    return len(name) >= 2 and name.upper() == name and any(c.isalpha() for c in name)


def is_name(text: str) -> bool:
    """Whether grammar text can spell text as a name: a letter or "_", then
    letters, digits and "_", in any script (``re``'s ``\\w``)."""
    return (text[:1].isalpha() or text[:1] == "_") and text.replace("_", "a").isalnum()


def is_literal_kind(kind: str) -> bool:
    return kind.startswith("'")


def literal_kind(text: str) -> str:
    return "'" + text + "'"


# --- grammar ----------------------------------------------------------------

class Grammar(Record):
    """Rules, token definitions, and the error-handling side tables.

    ``rules`` and ``lexical`` are ordered; lexical order is the token
    priority for longest-match ties.  ``recovery`` maps a label to the
    expression run when that label is thrown.  Validating g fills
    ``labels`` (every label thrown or attached anywhere), ``literal_kinds``
    and ``label_descriptions``, what each label's annotation site expects,
    which a parse's default message ``expected <description>`` reads.

    The private fields, which the constructor starts empty, hold what is
    built from it on first use: whether it is known valid, its desugared
    form (``desugar``), and on that form the lexer and the matcher.  Two
    grammars are equal only when they are the same object (``grammar_eq``
    compares their parts).
    """

    _fields = ("rules", "lexical", "start", "labels", "recovery", "literal_kinds",
               "label_descriptions")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rules: dict[str, Expr], lexical: dict[str, Expr], start: str,
                 recovery: dict[str, Expr] | None = None):
        self.rules = rules
        self.lexical = lexical
        self.start = start
        self.labels: set[str] = set()
        self.recovery = {} if recovery is None else recovery
        self.literal_kinds: tuple[str, ...] = ()
        self.label_descriptions: dict[str, str] = {}
        self._valid = False
        self._compiled: Grammar | None = None
        self._lexer = None
        self._matcher = None

    def token_kinds(self) -> tuple[str, ...]:
        return tuple(self.lexical) + self.literal_kinds


# --- traversal --------------------------------------------------------------

# the classes whose one subexpression is ``body``
_UNARY = frozenset((Star, Not, Optional, Plus, And))


def children(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of e, left to right."""
    cls = e.__class__
    if cls is Sequence:
        return (e.left, e.right)
    if cls is Choice:
        return (e.first, e.second)
    if cls in _UNARY:
        return (e.body,)
    return ()


def plus_operand(e: Expr) -> Expr | None:
    """p, when e is ``p p*`` as desugaring writes ``p+``: a sequence whose
    star repeats the very node on its left.  Otherwise None."""
    if e.__class__ is Sequence:
        right = e.right
        if right.__class__ is Star and right.body is e.left:
            return e.left
    return None


def map_children(e: Expr, f) -> Expr:
    """e rebuilt with f applied to each direct subexpression, to the p of
    ``p p*`` once, so it stays shared; e itself when f returns each of
    them unchanged, as for a leaf."""
    p = plus_operand(e)
    if p is not None:
        q = f(p)
        return e if q is p else Sequence(q, Star(q))
    kids = children(e)
    new = tuple(map(f, kids))
    return e if all(map(operator.is_, new, kids)) else type(e)(*new)


def _walk(e: Expr) -> list[Expr]:
    """Every node of e, each before the nodes below it.  The p of ``p p*``
    is listed, and walked below, once, after its star."""
    out: list[Expr] = []
    stack = [e]
    pop, push, add = stack.pop, stack.append, out.append
    while stack:
        node = pop()
        add(node)
        cls = node.__class__
        if cls is Sequence:
            right = node.right
            if right.__class__ is Star and right.body is node.left:
                add(right)  # the star of p p*, whose p is pushed next
            else:
                push(right)
            push(node.left)
        elif cls is Choice:
            push(node.second)
            push(node.first)
        elif cls in _UNARY:
            push(node.body)
    return out


def operands(e: Expr, cls: type) -> list[Expr]:
    """Operands of a chain of cls nodes (Sequence or Choice), left to
    right.  Both operators are associative, so a chain can run as one
    n-ary node."""
    out: list[Expr] = []
    stack = [e]
    while stack:
        node = stack.pop()
        if node.__class__ is cls:
            stack.extend(reversed(children(node)))
        else:
            out.append(node)
    return out


def annotation_parts(e: Expr) -> tuple[Expr, str] | None:
    """Return (body, label) when e is an annotation [p]^l, i.e. p / ^l."""
    if e.__class__ is Choice and e.second.__class__ is Throw:
        return e.first, e.second.label
    return None


# --- validation -------------------------------------------------------------

class nesting_guard(ContextDecorator):
    """Run the body at a recursion limit of at least ``STACK_BUDGET``, and
    raise a RecursionError inside as GrammarError(message); as a decorator,
    each call of the function runs so.  The first guarded call in flight,
    in any thread, raises a lower limit and the last to leave restores it;
    other threads see the raise meanwhile.  When the last call to leave
    is deeper in its thread's stack than the limit found allows, it does
    not raise: the restore waits for the next guarded call to leave from
    a frame where it can, and a call entered meanwhile does not take the
    raised limit for the caller's.  A guard keeps no state of its own, so
    one instance serves any number of calls at once."""

    def __init__(self, message: str = "grammar nested too deeply"):
        self.message = message

    def __enter__(self) -> None:
        global _calls_in_flight, _limit_found, _restore_pending
        _lock.acquire()
        try:
            if not _calls_in_flight:
                limit = sys.getrecursionlimit()
                # unless the caller has set a limit since, the one found
                # before is still to be restored
                if not (_restore_pending and limit == max(_limit_found, STACK_BUDGET)):
                    _limit_found = limit
                _restore_pending = False
                sys.setrecursionlimit(max(_limit_found, STACK_BUDGET))
            _calls_in_flight += 1
        finally:
            _lock.release()

    def __exit__(self, kind, value, traceback) -> None:
        global _calls_in_flight, _restore_pending
        _lock.acquire()
        try:
            _calls_in_flight -= 1
            if not _calls_in_flight:
                try:
                    sys.setrecursionlimit(_limit_found)
                except RecursionError:
                    # this frame is deeper than that limit allows
                    _restore_pending = True
        finally:
            _lock.release()
        if isinstance(value, RecursionError):
            raise GrammarError(self.message) from None


def checked(g: Grammar) -> Grammar:
    """g, validated the first time it is used unless it is known valid.  A
    hand-built grammar nested too deeply for ``validate`` to walk is a
    GrammarError."""
    if g._valid:
        return g
    with nesting_guard():
        return validate(g)


def check_expr(g: Grammar, e: Expr, where: str) -> None:
    """``validate``'s checks of a syntactic rule, on e, named ``where``."""
    _scan_nodes(g, where, _walk(e), False, ({}, set(), None))


# the Expr classes with nothing of their own to check
_PLAIN = frozenset((Empty, Sequence, Choice, AnyToken)) | _UNARY
# the other Expr classes: the one field of each, and what it must hold
_SHAPES = {Terminal: ("kind", "a str"), NonTerminal: ("name", "a str"),
           Throw: ("label", "a str"), Literal: ("text", "a str"),
           CharClass: ("ranges", "a tuple of (lo, hi) pairs of single characters")}
# the classes each level bans, by whether it is lexical
_BANNED = {False: dict.fromkeys((Literal, CharClass),
                                "character-level pattern in syntactic rule {}"),
           True: {Throw: "labels are not allowed in lexical rule {}",
                  Terminal: "token reference in lexical rule {}; use a literal"}}


def _scan_nodes(g: Grammar, where: str, nodes: list, lexical: bool, tables,
                check: bool = True) -> None:
    """One pass over the nodes (``_walk``) of ``where``, lexical or not:
    with ``check``, reject what a node may not hold, and add what it holds
    to ``tables``, ``(literals, labels, sites)``: the literal kinds in
    order of first appearance (a dict), the labels thrown, and, unless
    ``sites`` is None, the annotation sites p / ^l in order."""
    literals, labels, sites = tables
    banned = _BANNED[lexical]
    for node in nodes:
        cls = node.__class__
        if cls in _PLAIN:
            if cls is Choice and sites is not None and node.second.__class__ is Throw:
                sites.append(node)
            continue
        if check:
            if cls not in _SHAPES:
                raise GrammarError(f"{where} holds a {cls.__name__}, not an expression")
            field, shape = _SHAPES[cls]
            value = getattr(node, field)
            if not (isinstance(value, str) if cls is not CharClass else isinstance(value, tuple)
                    and all(isinstance(pair, tuple) and len(pair) == 2 and all(
                        isinstance(c, str) and len(c) == 1 for c in pair) for pair in value)):
                raise GrammarError(f"{cls.__name__}.{field} in {where} must be {shape}")
            if cls is CharClass:
                for lo, hi in value:
                    if hi < lo:
                        raise GrammarError(f"bad range {lo!r}-{hi!r} in {where}")
            if cls in banned:
                raise GrammarError(banned[cls].format(where))
            if cls is NonTerminal and value not in (g.lexical if lexical else g.rules):
                raise GrammarError(
                    f"lexical rule {where} references {value!r}, which is not a lexical rule"
                    if lexical else f"undefined nonterminal {value!r} in {where}")
            if cls is Terminal and not (is_literal_kind(value) or value == EOF_KIND
                                        or value in g.lexical):
                raise GrammarError(f"undefined token kind {value!r} in {where}")
            if cls is Throw and value == FAIL:
                raise GrammarError(f"label {FAIL!r} is reserved and cannot be thrown")
        if cls is Terminal:
            if node.kind.startswith("'"):  # is_literal_kind
                literals.setdefault(node.kind)
        elif cls is Throw:
            labels.add(node.label)


def validate(g: Grammar) -> Grammar:
    """Check structural consistency and fill the derived tables.

    Rejects parts that are not dicts keyed by str, malformed nodes, rule
    names of the wrong kind (the grammar text tells syntactic from lexical
    rules by the name alone), a lexical rule for the reserved kind ``EOF``,
    undefined references, left recursion (direct or through nullable
    prefixes), a lexical rule that reaches itself (a token is a regular
    pattern), throws of the reserved label ``fail``, and recovery rules for
    labels that are never thrown.  Also collects anonymous literal token
    kinds, the label set, and the per-label descriptions.
    """
    for field in ("rules", "lexical", "recovery"):
        part = getattr(g, field)
        if not isinstance(part, dict) or not all(isinstance(k, str) for k in part):
            raise GrammarError(f"Grammar.{field} must be a dict keyed by str")
    if not g.rules:
        raise GrammarError("grammar has no syntactic rules")
    if not isinstance(g.start, str) or g.start not in g.rules:
        raise GrammarError(f"start rule {g.start!r} is not defined")
    for name in g.rules:
        if is_lexical_name(name):
            raise GrammarError(f"syntactic rule {name!r} has an ALL-CAPS (lexical) name")
    for name in g.lexical:
        if not is_lexical_name(name):
            raise GrammarError(f"lexical rule {name!r} needs an ALL-CAPS name")
    if EOF_KIND in g.lexical:
        raise GrammarError(f"token kind {EOF_KIND!r} is reserved for end of input")

    lexical_nodes = _fill_tables(g, check=True)
    for lab in g.recovery:
        if lab not in g.labels:
            raise GrammarError(f"recovery rule for undeclared label {lab!r}")

    _check_left_recursion(g.rules, "rule")
    _check_left_recursion(g.lexical, "lexical rule")
    # a token is a regular pattern, so a lexical rule may not reach itself
    # by any path, even after consuming input
    name = _self_reaching({
        rule: {node.name for node in nodes if node.__class__ is NonTerminal}
        for rule, nodes in zip(g.lexical, lexical_nodes)})
    if name is not None:
        raise GrammarError(f"lexical rule {name} reaches itself; "
                           "a token must be a regular pattern")
    g._valid = True
    return g


def _fill_tables(g: Grammar, check: bool) -> list[list[Expr]]:
    """Fill g's derived tables in one pass over the nodes of each rule and
    recovery body (``_scan_nodes``): the literal kinds in order of first
    appearance, the label set, and each label's description, rendered from
    its first annotation site once every node is known to be sound.  With
    ``check``, the pass runs ``validate``'s node checks, in order, on the
    lexical rules too, and returns their nodes.  What g was given is left
    alone."""
    literals: dict[str, None] = {}
    labels: set[str] = set()
    sites: list[Expr] = []
    for name, body in g.rules.items():
        _scan_nodes(g, name, _walk(body), False, (literals, labels, sites), check)
    lexical_nodes = [_walk(body) for body in g.lexical.values()] if check else []
    for name, nodes in zip(g.lexical, lexical_nodes):
        _scan_nodes(g, name, nodes, True, (literals, labels, None))
    scanned = set()
    for lab, body in g.recovery.items():
        # labels can share one body, as annotate's do: it holds the same
        # for each; annotation sites in recovery expressions describe nothing
        if id(body) not in scanned:
            scanned.add(id(body))
            _scan_nodes(g, f"recovery for {lab}", _walk(body), False,
                        (literals, labels, None), check)
    descriptions: dict[str, str] = {}
    for node in sites:
        if node.second.label not in descriptions:
            descriptions[node.second.label] = render_expr(node.first)
    g.literal_kinds = tuple(literals)
    g.labels = labels
    g.label_descriptions = descriptions
    return lexical_nodes


def valid_by_construction(g: Grammar) -> Grammar:
    """g, built by a pass from a valid grammar in a way that keeps it valid:
    its tables are filled and it is remembered as valid, with no check."""
    _fill_tables(g, check=False)
    g._valid = True
    return g


def rule_fixpoint(rules: dict, value, bottom) -> dict:
    """Per rule, the least fixed point of a monotone ``value(rules[name],
    table)``, where ``table`` is the result itself, from ``bottom``.  The
    rounds run through the rules forwards and backwards in turn, so that
    a value flows from rule to rule in one round whether the grammar is
    written top down or bottom up."""
    table = {name: bottom for name in rules}
    order = list(rules.items())
    changed = True
    while changed:
        changed = False
        for name, body in order:
            new = value(body, table)
            if new != table[name]:
                table[name] = new
                changed = True
        order.reverse()
    return table


# --- FIRST sets -------------------------------------------------------------

class TokenSet(FrozenRecord):
    """A set of symbols plus an epsilon flag.  The symbols are token kinds
    at the syntactic level and character ranges at the lexical level.
    ``==`` compares the two fields directly, and an operation whose result
    equals an operand returns that operand."""

    __slots__ = _fields = ("kinds", "has_epsilon")
    # defining __eq__ would otherwise drop the inherited hash
    __hash__ = FrozenRecord.__hash__

    def __init__(self, kinds: frozenset, has_epsilon: bool = False):
        _set(self, "kinds", kinds)
        _set(self, "has_epsilon", has_epsilon)

    def __eq__(self, other):
        if other.__class__ is not TokenSet:
            return NotImplemented
        return self.has_epsilon == other.has_epsilon and self.kinds == other.kinds

    def union(self, other: "TokenSet") -> "TokenSet":
        eps = self.has_epsilon or other.has_epsilon
        if eps == self.has_epsilon and other.kinds <= self.kinds:
            return self
        if eps == other.has_epsilon and self.kinds <= other.kinds:
            return other
        return TokenSet(self.kinds | other.kinds, eps)

    def without_epsilon(self) -> "TokenSet":
        return TokenSet(self.kinds, False) if self.has_epsilon else self

    def with_epsilon(self) -> "TokenSet":
        return self if self.has_epsilon else TokenSet(self.kinds, True)

    def disjoint(self, other: "TokenSet") -> bool:
        return not (self.kinds & other.kinds)

    def __contains__(self, kind) -> bool:
        return kind in self.kinds


EMPTY_SET = TokenSet(frozenset())
EPSILON_ONLY = TokenSet(frozenset(), True)


class _Pending(Exception):
    """Raised by ``First._of`` at a rule whose set is not computed yet."""


class First:
    """FIRST sets over one set of rules: the symbols a match of an
    expression can begin with, and epsilon when it can match empty.

    The walk knows sequence, choice, ``*``, ``?``, ``+`` and rule
    references; ``leaf(node)`` gives the set of any other node, and so the
    alphabet: token kinds for ``analysis``, character ranges for the lexer.
    ``rules`` holds each rule's set, in the order of ``rules``, computed
    when the First is built.  In a validated grammar no rule reaches
    itself before it consumes, so each set is computed once, the rules a
    body begins with first.  A body that reads a rule not computed yet
    raises ``_Pending``, and a loop pushes that rule on an explicit stack
    and tries the body again, so a long chain of rules costs no frames.
    Only ``_check_left_recursion``, which runs before the grammar is known
    to be free of such cycles, passes ``fixpoint=True``: the sets are then
    a least fixed point (``rule_fixpoint``), computed with the memo off
    while they grow.

    A call remembers its result by the node's ``id`` and keeps the node
    alive, so no other node can take over the id.  A hit by id costs
    neither the first hash of the node, which walks its subtree, nor a
    field-by-field comparison with an equal node built apart, as a memo
    keyed by the node would.  A chain of sequences or choices that nests
    to the left, as the grammar text writes ``a b c``, is read as a list
    of its operands, so its length costs no frames either.  The walk reads
    the p of ``p p*`` once (``plus_operand``), so it stays linear on the
    DAG desugaring makes."""

    def __init__(self, rules: dict[str, Expr], leaf, fixpoint: bool = False):
        self.leaf = leaf
        # id(node) -> (node, FIRST(node))
        self._memo: dict[int, tuple[Expr, TokenSet]] = {}
        if fixpoint:
            self.rules: dict[str, TokenSet] = rule_fixpoint(rules, self._of, EMPTY_SET)
            return
        table: dict[str, TokenSet] = {}
        # a grammar is most often written top down, callers first, so the
        # last rule is tried first and few bodies wait for a callee
        for name in reversed(rules):
            if name in table:
                continue
            stack = [name]
            while stack:
                try:
                    table[stack[-1]] = self._of(rules[stack[-1]], table, self._memo)
                except _Pending as pending:
                    if len(stack) > len(rules):  # a cycle: the rules are not validated
                        raise GrammarError(f"left recursion through rule {pending.args[0]}")
                    stack.append(pending.args[0])
                else:
                    stack.pop()
        self.rules = {name: table[name] for name in rules}

    def __call__(self, e: Expr) -> TokenSet:
        try:
            return self._of(e, self.rules, self._memo)
        except RecursionError:
            # too deep for the caller's limit: once more within the budget
            with nesting_guard():
                return self._of(e, self.rules, self._memo)

    def scratch(self) -> "First":
        """These FIRST sets with a memo of their own, for nodes that should
        be remembered only as long as the copy is."""
        other = copy.copy(self)
        other._memo = {}
        return other

    def _of(self, e: Expr, rules: dict[str, TokenSet], memo=None) -> TokenSet:
        """FIRST of e, given the rule sets computed so far (``_Pending`` at
        a rule not among them); ``memo`` is None while they grow toward a
        fixed point."""
        if memo is not None:
            key = id(e)
            hit = memo.get(key)
            if hit is not None:
                return hit[1]
        cls = e.__class__
        if cls is NonTerminal:
            f = rules.get(e.name)
            if f is None:
                raise _Pending(e.name)
        elif cls is Sequence and plus_operand(e) is not None:
            # p p* begins as p does, and is nullable when p is
            f = self._of(e.left, rules, memo)
        elif cls is Sequence or cls is Choice:
            # the left spine of the chain, down to its first operand: a node
            # of another class, a p p*, or a node in the memo
            spine = []
            node = e
            while True:
                spine.append(node)
                node = node.left if cls is Sequence else node.first
                if (node.__class__ is not cls or plus_operand(node) is not None
                        or memo is not None and id(node) in memo):
                    break
            f = self._of(node, rules, memo)
            for node in reversed(spine):
                if cls is Choice:
                    f = f.union(self._of(node.second, rules, memo))
                elif f.has_epsilon:
                    f = f.without_epsilon().union(self._of(node.right, rules, memo))
                if memo is not None and node is not e:
                    memo[id(node)] = (node, f)
        elif cls is Star or cls is Optional:
            f = self._of(e.body, rules, memo).with_epsilon()
        elif cls is Plus:
            f = self._of(e.body, rules, memo)
        else:
            f = self.leaf(e)
        if memo is not None:
            memo[key] = (e, f)
        return f


def _nullable_leaf(e: Expr) -> TokenSet:
    """FIRST of a leaf or a predicate, reduced to what the left-recursion
    check asks: whether it matches empty."""
    cls = e.__class__
    if (cls is Empty or cls is Not or cls is And or (cls is Literal and not e.text)
            or cls is Terminal and e.kind == EOF_KIND):
        return EPSILON_ONLY
    return EMPTY_SET


def _check_left_recursion(rules: dict[str, Expr], what: str) -> None:
    """Conservative reachability check: a rule must not be able to reinvoke
    itself before any input has necessarily been consumed."""
    first = First(rules, _nullable_leaf, fixpoint=True)

    def heads(e: Expr) -> set[str]:
        """Rules e can call before it consumes input, inside predicates too."""
        out: set[str] = set()
        stack = [e]
        while stack:
            node = stack.pop()
            cls = node.__class__
            if cls is NonTerminal:
                out.add(node.name)
            elif cls is Sequence:
                # the right side only after a nullable left; the star of p p*
                # repeats p, which is on the stack already
                if first(node.left).has_epsilon and plus_operand(node) is None:
                    stack.append(node.right)
                stack.append(node.left)
            else:
                stack.extend(children(node))
        return out

    head_map = {name: heads(body) for name, body in rules.items()}
    name = _self_reaching(head_map)
    if name is not None:
        raise GrammarError(f"left recursion detected in {what} {name}")


def _self_reaching(calls: dict[str, set[str]]) -> str | None:
    """The first rule, in order, that can reach itself through ``calls``
    (the rules each rule can call), or None.  A rule is safe when all its
    callees are; only a rule that this least fixed point leaves unproven is
    searched for a path back to itself."""
    free = rule_fixpoint(calls, lambda callees, table: all(map(table.get, callees)),
                         False)
    for name in calls:
        if free[name]:
            continue
        seen: set[str] = set()
        frontier = set(calls[name])
        while frontier:
            n = frontier.pop()
            if n == name:
                return name
            if n in seen or n not in calls:
                continue
            seen.add(n)
            frontier |= calls[n]
    return None


# --- desugaring and label stripping ----------------------------------------

def desugar_expr(e: Expr) -> Expr:
    """Rewrite to the core constructors: p? -> (p / empty), p+ -> p p*,
    &p -> !!p."""
    cls = e.__class__
    if cls is Optional:
        return Choice(desugar_expr(e.body), Empty())
    if cls is Plus:
        b = desugar_expr(e.body)
        return Sequence(b, Star(b))
    if cls is And:
        return Not(Not(desugar_expr(e.body)))
    return map_children(e, desugar_expr)


def desugar(g: Grammar) -> Grammar:
    """g in the core constructors, validated: g itself when no rule holds
    a ``?``, ``+`` or ``&``, else a copy with g's tables (``[p+]^l`` still
    expects ``p+``).  It is built once and kept on g, the lexer and the
    matcher keep theirs on it, and desugaring it again returns it."""
    if g._compiled is None:
        parts = (checked(g).rules, g.lexical, g.recovery)
        with nesting_guard():
            new = [{k: desugar_expr(b) for k, b in part.items()} for part in parts]
        d = g
        if any(done[k] is not b for part, done in zip(parts, new) for k, b in part.items()):
            d = copy.copy(g)
            d.rules, d.lexical, d.recovery = new
        g._compiled = d._compiled = d
    return g._compiled


def strip_labels_expr(e: Expr) -> Expr:
    parts = annotation_parts(e)
    if parts is not None:
        return strip_labels_expr(parts[0])
    return map_children(e, strip_labels_expr)


@nesting_guard()
def strip_labels(g: Grammar) -> Grammar:
    """Remove every annotation site; bare throws are left alone."""
    rules = {n: strip_labels_expr(b) for n, b in checked(g).rules.items()}
    thrown = {node.label for body in rules.values() for node in _walk(body)
              if node.__class__ is Throw}
    return valid_by_construction(Grammar(
        rules, g.lexical, g.start, {l: b for l, b in g.recovery.items() if l in thrown}))


# --- serialization ----------------------------------------------------------

# The grammar text's escape pairs, which ``dsl`` reads back; any other
# character after a backslash stands for itself.
ESCAPES = {"\n": "\\n", "\t": "\\t", "\r": "\\r", "\\": "\\\\"}
_QUOTE_ESCAPES = str.maketrans(ESCAPES | {"'": "\\'"})
_CLASS_ESCAPES = str.maketrans(ESCAPES | {c: "\\" + c for c in "]-["})


def _quote(text: str) -> str:
    return "'" + text.translate(_QUOTE_ESCAPES) + "'"


def _class_text(ranges: tuple[tuple[str, str], ...]) -> str:
    esc = _CLASS_ESCAPES
    return "[" + "".join(lo.translate(esc) if lo == hi
                         else f"{lo.translate(esc)}-{hi.translate(esc)}"
                         for lo, hi in ranges) + "]"


# The grammar text's operators, which ``dsl`` reads back, loosest first:
# each class's spelling, its level, and the level each operand needs to go
# without parentheses (chains nest to the left; ``p**``, ``!!p``, ``!p*``).
CHOICE, SEQUENCE, PREFIX, POSTFIX = range(4)
OPERATORS = {Choice: (" / ", CHOICE, (CHOICE, SEQUENCE)),
             Sequence: (" ", SEQUENCE, (SEQUENCE, PREFIX)),
             Not: ("!", PREFIX, (PREFIX,)), And: ("&", PREFIX, (PREFIX,)),
             Star: ("*", POSTFIX, (POSTFIX,)), Plus: ("+", POSTFIX, (POSTFIX,)),
             Optional: ("?", POSTFIX, (POSTFIX,))}


def render_expr(e: Expr, prec: int = CHOICE) -> str:
    cls = e.__class__
    if cls is Terminal:
        return _quote(e.kind[1:-1]) if is_literal_kind(e.kind) else e.kind
    if cls is NonTerminal:
        return e.name
    if cls is Empty:
        return "''"
    if cls is Throw:
        return f"^{e.label}"
    if cls is AnyToken:
        return "."
    if cls is Literal:
        return _quote(e.text)
    if cls is CharClass:
        return _class_text(e.ranges)
    parts = annotation_parts(e) if cls is Choice else None
    if parts is not None:
        body, lab = parts
        return f"[{render_expr(body)}]^{lab}"
    spelling, level, needs = OPERATORS[cls]
    if level == PREFIX:
        text = spelling + render_expr(e.body, needs[0])
    elif level == POSTFIX:
        text = render_expr(e.body, needs[0]) + spelling
    else:
        first, second = children(e)
        text = render_expr(first, needs[0]) + spelling + render_expr(second, needs[1])
    return f"({text})" if prec > level else text


def _check_writable(g: Grammar) -> None:
    """Raise GrammarError at a part of g that would not read back as itself:
    a rule name or label that is not ``is_name`` (a named token kind is a
    lexical rule's name), a literal kind that is not a quoted text, or an
    empty literal.  Names are looked at first, rules in order and labels
    sorted, then the literals in the order they are written."""
    for what, names in (("rule name", [*g.rules, *g.lexical]), ("label", sorted(g.labels))):
        for name in names:
            if not is_name(name):
                raise _unwritable(what, name)
    for kind in g.literal_kinds:
        if len(kind) < 3 or not kind.endswith("'"):
            raise _unwritable("token kind", kind)
    for body in g.lexical.values():
        for node in _walk(body):
            if node.__class__ is Literal and not node.text:
                raise _unwritable("literal", node.text)


def _unwritable(what: str, value: str) -> GrammarError:
    return GrammarError(f"cannot write {what} {value!r} as grammar text")


@nesting_guard()
def serialize_grammar(g: Grammar) -> str:
    """Canonical text form, which ``parse_grammar`` reads back as g.
    Annotation sites (p / ^l) print as [p]^l, so annotated grammars diff
    cleanly.  A hand-built g is checked first, and one that the text cannot
    spell (``_check_writable``) is a GrammarError."""
    _check_writable(checked(g))
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

def grammar_eq(a: Grammar, b: Grammar) -> bool:
    """Structural equality of the parts that carry meaning.  Rule order
    matters (it is token priority on the lexical side)."""
    return (list(a.rules) == list(b.rules) and list(a.lexical) == list(b.lexical)
            and a.start == b.start and a.labels == b.labels
            and a.rules == b.rules and a.lexical == b.lexical
            and a.recovery == b.recovery)
