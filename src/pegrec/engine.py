"""Parsing with labeled failures and recovery.

Positions are token indices.  A failure is either the plain ``fail`` label,
which ordered choice and repetition absorb by backtracking, or a named
label, which propagates until something fields it: a recovery expression
registered for that label, a syntactic predicate, or the top level.

Recovery for label l runs the grammar's recovery expression from the throw
position, typically skipping tokens until a synchronization point.  The
skipped region becomes an ErrorNode standing in for the subtree that could
not be built, and parsing resumes after it.  Recovery is suppressed inside
predicates, inside another recovery, after max_errors diagnostics, and when
the same label has already been attempted at the same position (so a loop
of throw/recover/backtrack cannot diverge).

A grammar is compiled once per Grammar object, on its first parse, and the
result is kept for as long as the Grammar lives (``model.program``): the
desugared and validated grammar, its lexer, and one closure per syntactic
rule and per recovery expression.  A Grammar must therefore not be mutated
after its first parse.  ``match_expr`` checks its one expression against
the grammar and compiles it on the spot.

A ``Session`` scans the whole text when it is built.  The matcher then
reads the token kinds from a column that ends in ``EOF`` at the token
count (and up to the start position, for a match past the end), so a
terminal compares the kind at its position and dispatch reads it, with no
bounds check; only ``.`` and ``EOF`` compare the position with the token
count.

Choices, repetitions and predicates dispatch on the current token's kind
(one-token lookahead; ``EOF`` past the end of input).  Each alternative of
a choice, each star body and each predicate body gets a guard when it can
only fail plainly unless it consumes a token first: it is not nullable,
and it reaches no throw, no predicate and no ``.`` before its first
token.  Its guard is then its FIRST set, and at a token outside that set
it is skipped, since running it would only have failed there.  The one
trace such a failure leaves, moving ``farthest`` up to the position, is
made by the skip instead.  A choice takes the alternatives to try from a
per-kind table built at compile time; a star ends its loop, and ``!p``
succeeds without running p.  Any other expression has no guard and always
runs.  FIRST sets alone would not do: FIRST(^l) is empty, so ``[X]^l / Y``
pruned by FIRST(X) would match Y silently where it must throw l.  So the
guards come from a ``model.First`` over the token kinds plus one marker,
which a throw, a predicate and ``.`` put in their sets: a node whose set
holds epsilon or the marker gets no guard.

Two fast paths skip work the general case does.  A terminal alternative
that its guard lets run matches, so no alternative after it runs there
(``[X]^l`` at an X is just X).  Where the one alternative a choice runs at
a kind is its last or such a terminal, its failure is the choice's own, so
the choice calls it without noting where to roll back ``acc`` and the
error list.  A sequence tests the guard of a guarded star in it before it
calls the star, which would only end at once.

A parse builds its syntax tree as one column of ints, ``acc``, in
postorder (``Tree``): a terminal appends its token index, a rule appends
one row that names it and the row where its subtree began, and recovery
appends one row that points into a short list of ``ErrorNode``s.  The
matcher makes no node object, so a tree of any size is a few lists that
the cyclic collector walks as one object each, and a choice, a star or a
predicate drops what a failed alternative built with ``del acc[n:]``.
``tree_to_json``, ``Tree.root`` (the tree as exact tuples, built on
request) and ``evaluate.ast_structural_eq`` read the columns with stacks
of their own, so no tree is too deep for them.
"""

from __future__ import annotations

import copy
import reprlib
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import (
    AnyToken,
    Choice,
    Empty,
    EOF_KIND,
    EPSILON_ONLY,
    Expr,
    FAIL,
    First,
    Grammar,
    GrammarError,
    NonTerminal,
    Not,
    Sequence,
    Star,
    Terminal,
    Throw,
    TokenSet,
    check_expr,
    desugar_expr,
    nesting_guard,
    operands,
    program,
)
from .lexer import TokenStream


# --- syntax trees -----------------------------------------------------------

def TokenLeaf(kind: str | None, span: tuple[int, int]) -> tuple:
    """A token leaf: the exact tuple ``(kind, span)``.  ``kind`` is None for
    a stray character taken by ``.``."""
    return (kind, span)


def RuleNode(name: str, span: tuple[int, int], children: tuple = ()) -> tuple:
    """A rule node: the exact tuple ``(name, span, children)``, where
    ``children`` is an exact tuple of nodes."""
    return (name, span, tuple(children))


class ErrorNode(NamedTuple):
    """Placeholder for input that was skipped (or found missing) while
    recovering from ``label``.  ``expected`` names what should have been
    here: the annotated expression's terminal kind or rule name."""

    label: str
    expected: str
    span: tuple[int, int]


def _code_bits(nrules: int) -> int:
    """Bits of a row's code for a grammar of nrules rules: codes run from
    0 to ``2 * nrules``."""
    return (2 * nrules).bit_length()


class Tree:
    """A syntax tree kept in columns.  ``rows`` holds one int per node, in
    postorder:

    - a token leaf is its token index, ``>= 0``, into ``kinds`` and
      ``spans``;
    - every other node is ``~(arg << shift | code)``, below 0.  With n
      rule names, a code below n closes the rule ``names[code]`` whose
      subtree began at row ``arg``; ``n + r`` is the empty rule
      ``names[r]`` at token position ``arg``; ``2 * n`` is the error node
      ``error_nodes[arg]``.

    A rule node's span runs from its first child's start to its last
    child's end; an empty rule's starts and ends where token ``arg``
    starts, or at ``eof`` past the last token.  ``root`` builds the tuple
    nodes on each read.  Trees compare equal when their roots do."""

    __slots__ = ("rows", "kinds", "spans", "names", "error_nodes", "eof", "shift")

    def __init__(self, rows: list[int], kinds: list, spans: list,
                 names: tuple[str, ...], error_nodes: list, eof: int):
        self.rows = rows
        self.kinds = kinds
        self.spans = spans
        self.names = names
        self.error_nodes = error_nodes
        self.eof = eof
        self.shift = _code_bits(len(names))

    @property
    def root(self) -> tuple:
        """The start rule's node as exact tuples: ``(name, span,
        children)`` and ``(kind, span)``, with the ``ErrorNode``s."""
        return _tuple_nodes(self)[0]

    def __eq__(self, other):
        if other.__class__ is not Tree:
            return NotImplemented
        return self.root == other.root

    __hash__ = None

    def __repr__(self) -> str:
        return f"<Tree of {len(self.rows)} nodes>"


def _tuple_nodes(tree: Tree) -> list:
    """The top-level nodes of the rows as exact tuples, left to right.  A
    token leaf holds the ``spans`` tuple, and a rule node with one child
    holds that child's span tuple."""
    rows, kinds, spans, names = tree.rows, tree.kinds, tree.spans, tree.names
    n, shift = len(names), tree.shift
    mask = (1 << shift) - 1
    done: list = []            # nodes whose parent is not closed yet
    depth = [0] * len(rows)    # len(done) where the subtree of a row began
    for i, x in enumerate(rows):
        if x >= 0:
            depth[i] = len(done)
            done.append((kinds[x], spans[x]))
            continue
        c = ~x
        code = c & mask
        if code < n:
            d = depth[c >> shift]
            children = tuple(done[d:])
            del done[d:]
            first = children[0]
            span = first.span if first.__class__ is ErrorNode else first[1]
            if len(children) > 1:
                last = children[-1]
                end = last.span if last.__class__ is ErrorNode else last[1]
                span = (span[0], end[1])
            done.append((names[code], span, children))
            continue
        depth[i] = len(done)
        if code < 2 * n:
            anchor = _anchor(tree, c >> shift)
            done.append((names[code - n], (anchor, anchor), ()))
        else:
            done.append(tree.error_nodes[c >> shift])
    return done


def _anchor(tree: Tree, pos: int) -> int:
    spans = tree.spans
    return spans[pos][0] if pos < len(spans) else tree.eof


def tree_to_json(tree: Tree) -> dict:
    """The tree as nested dicts and lists, the shape ``pegrec parse --json``
    prints.  It walks the rows once with a stack of its own, so a tree of
    any depth converts."""
    rows, kinds, spans, names = tree.rows, tree.kinds, tree.spans, tree.names
    n, shift = len(names), tree.shift
    mask = (1 << shift) - 1
    done: list = []            # nodes whose parent is not closed yet
    depth = [0] * len(rows)    # len(done) where the subtree of a row began
    for i, x in enumerate(rows):
        if x >= 0:
            depth[i] = len(done)
            span = spans[x]
            done.append({"token": kinds[x], "span": [span[0], span[1]]})
            continue
        c = ~x
        code = c & mask
        if code < n:
            d = depth[c >> shift]
            children = done[d:]
            del done[d:]
            done.append({"rule": names[code],
                         "span": [children[0]["span"][0], children[-1]["span"][1]],
                         "children": children})
            continue
        depth[i] = len(done)
        if code < 2 * n:
            anchor = _anchor(tree, c >> shift)
            done.append({"rule": names[code - n], "span": [anchor, anchor],
                         "children": []})
        else:
            node = tree.error_nodes[c >> shift]
            done.append({"error": node.label, "expected": node.expected,
                         "span": list(node.span)})
    return done[0]


def ast_structural_eq(got: Tree, want: Tree) -> bool:
    """Structural tree equality ignoring spans.  An ErrorNode on either side
    matches one node whose rule name or token kind equals its expectation;
    two ErrorNodes match when they expect the same thing.

    It walks the rows of both trees in step, from the root down and right
    to left: in reverse postorder a node comes before its subtree, and a
    rule row says where its subtree begins, so a node an ErrorNode stands
    in for is skipped in one step."""
    rows_a, kinds_a, names_a, nodes_a = got.rows, got.kinds, got.names, got.error_nodes
    rows_b, kinds_b, names_b, nodes_b = want.rows, want.kinds, want.names, want.error_nodes
    n_a, shift_a = len(names_a), got.shift
    n_b, shift_b = len(names_b), want.shift
    mask_a, mask_b = (1 << shift_a) - 1, (1 << shift_b) - 1
    i, j = len(rows_a) - 1, len(rows_b) - 1
    # the first rows of the children being compared, one pair per open
    # rule node; the tree itself is the one child of (0, 0)
    lo_a = lo_b = 0
    opened: list = []
    while True:
        if i < lo_a or j < lo_b:
            if i >= lo_a or j >= lo_b:
                return False  # one node has more children
            if not opened:
                return True
            lo_a, lo_b = opened.pop()
            continue
        # each side's node: its name, kind or expectation, the first row
        # of its subtree, and whether it is a rule node or an error node
        x = rows_a[i]
        if x >= 0:
            key_a, first_a, rule_a, error_a = kinds_a[x], i, False, False
        else:
            c = ~x
            code = c & mask_a
            if code < n_a:
                key_a, first_a, rule_a, error_a = names_a[code], c >> shift_a, True, False
            elif code < 2 * n_a:
                key_a, first_a, rule_a, error_a = names_a[code - n_a], i, True, False
            else:
                key_a, first_a, rule_a, error_a = nodes_a[c >> shift_a].expected, i, False, True
        y = rows_b[j]
        if y >= 0:
            key_b, first_b, rule_b, error_b = kinds_b[y], j, False, False
        else:
            c = ~y
            code = c & mask_b
            if code < n_b:
                key_b, first_b, rule_b, error_b = names_b[code], c >> shift_b, True, False
            elif code < 2 * n_b:
                key_b, first_b, rule_b, error_b = names_b[code - n_b], j, True, False
            else:
                key_b, first_b, rule_b, error_b = nodes_b[c >> shift_b].expected, j, False, True
        if key_a != key_b:
            return False
        if error_a or error_b:
            # the whole node, subtree and all
            i, j = first_a - 1, first_b - 1
            continue
        if rule_a is not rule_b:
            return False
        if rule_a:
            opened.append((lo_a, lo_b))
            lo_a, lo_b = first_a, first_b
        i -= 1
        j -= 1


_CLOSE = object()


def tree_from_json(data) -> Tree:
    """The tree ``tree_to_json`` turned into data.  A rule node's span is
    not kept but read off its children, as for a parsed tree, and an empty
    rule's ends where it starts.  Data of any other shape is a ValueError
    that says what is wrong with it."""
    kinds: list = []
    spans: list = []
    error_nodes: list = []
    rule_ids: dict[str, int] = {}
    # a token leaf is its index; any other row is (kind, rule id, arg)
    # until the rule count is known: kind 0 closes a rule whose subtree
    # began at row arg, 1 is an empty rule anchored at spans[arg], an
    # entry of its own that no token row points to, and 2 is
    # error_nodes[arg]
    rows: list = []
    # nodes to read; a rule to close is pushed as its id, its first row
    # and _CLOSE
    todo = [data]
    while todo:
        item = todo.pop()
        if item is _CLOSE:
            start = todo.pop()
            rows.append((0, todo.pop(), start))
            continue
        if item.__class__ is not dict:
            raise ValueError(f"tree node is not an object: {_short(item)}")
        if "rule" in item:
            children = item.get("children")
            if children.__class__ is not list:
                raise ValueError(f"'children' of a tree node is not a list: {_short(children)}")
            rid = rule_ids.setdefault(_json_text(item, "rule"), len(rule_ids))
            start = _json_span(item)[0]
            if children:
                todo += (rid, len(rows), _CLOSE)
                todo.extend(reversed(children))
            else:
                kinds.append(None)
                spans.append((start, start))
                rows.append((1, rid, len(spans) - 1))
        elif "token" in item:
            kind = item["token"]
            kinds.append(kind if kind is None else _json_text(item, "token"))
            spans.append(_json_span(item))
            rows.append(len(spans) - 1)
        elif "error" in item:
            error_nodes.append(ErrorNode(_json_text(item, "error"),
                                         _json_text(item, "expected"),
                                         _json_span(item)))
            rows.append((2, 0, len(error_nodes) - 1))
        else:
            raise ValueError(f"tree node has no 'rule', 'token' or 'error': {_short(item)}")
    n = len(rule_ids)
    shift = _code_bits(n)
    base = (0, n, 2 * n)
    rows = [row if row.__class__ is int
            else ~((row[2] << shift) | (base[row[0]] + row[1])) for row in rows]
    return Tree(rows, kinds, spans, tuple(rule_ids), error_nodes, 0)


def _json_text(data: dict, key: str) -> str:
    value = data.get(key)
    if value.__class__ is not str:
        raise ValueError(f"{key!r} of a tree node is not a string: {_short(value)}")
    return value


def _json_span(data: dict) -> tuple[int, int]:
    span = data.get("span")
    if (span.__class__ is not list or len(span) != 2
            or span[0].__class__ is not int or span[1].__class__ is not int):
        raise ValueError(f"span is not two ints: {_short(span)}")
    return (span[0], span[1])


_short = reprlib.repr


# --- diagnostics ------------------------------------------------------------

@dataclass(frozen=True)
class ParseError:
    """One recorded syntax error.  ``offset``/``line``/``col`` point at the
    end of the last token consumed before the failure (start of input when
    nothing was consumed, end of input when everything was)."""

    label: str
    message: str
    offset: int
    line: int
    col: int
    token_index: int


@dataclass
class ParseOutcome:
    status: str  # "matched" or "failed"
    tree: Tree | None
    errors: list[ParseError]
    end: int | None = None
    fail_label: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "matched" and not self.errors


@dataclass
class MatchResult:
    """Result of matching a single expression (not a whole file)."""

    status: str
    end: int | None
    fail_label: str | None = None
    errors: list[ParseError] = field(default_factory=list)
    children: tuple = ()


class _Fail:
    __slots__ = ("label", "pos", "logged")

    def __init__(self, label: str, pos: int, logged: bool = False):
        self.label = label
        self.pos = pos
        self.logged = logged


DEFAULT_MAX_ERRORS = 50


# --- compilation ------------------------------------------------------------
#
# Every desugared expression becomes a closure f(session, pos, acc) that
# returns the end position or a _Fail and appends the rows of the subtrees
# it builds to acc.  Sequences and choices are flattened into one closure
# each, so a parse takes no more stack frames per nesting level than a
# tree walk.  For the same reason the token dispatch of choices, stars and
# predicates runs inside their own closures, not in closures of its own.
# A node that several parents share (desugaring p+ to p p* shares p) is
# compiled once, and a shared sequence runs as one item of the sequences
# around it.

# Plain failures carry no position of their own: each one moves farthest
# to at least where it happened, and farthest is where a parse that ends
# in a plain failure reports it.  So one instance serves for all of them.
_FAILED = _Fail(FAIL, -1)


def _fail(s: "Session", pos: int) -> _Fail:
    if pos > s.farthest:
        s.farthest = pos
    return _FAILED


def _empty(s, pos, acc):
    return pos


def _nothing(s, pos, acc):
    # what a choice runs last when it skips its last alternative
    return _FAILED


def _eof(s, pos, acc):
    if pos < s._count:
        return _fail(s, pos)
    return pos


def _any_token(s, pos, acc):
    if pos < s._count:
        acc.append(pos)
        return pos + 1
    return _fail(s, pos)


def _terminal(kind: str):
    def terminal(s, pos, acc):
        if s._kinds[pos] == kind:
            acc.append(pos)
            return pos + 1
        if pos > s.farthest:
            s.farthest = pos
        return _FAILED
    return terminal


def _sequence(items: list, guards: list):
    """A sequence of items.  ``guards[i]`` is item i's guard when item i is
    a guarded star: the sequence tests it itself and calls the star only
    when its body can start, since otherwise the star would end at once."""
    if len(items) == 2 and guards[0] is None:
        first, second = items
        guard = guards[1]
        if guard is None:
            def pair(s, pos, acc):
                r = first(s, pos, acc)
                if r.__class__ is _Fail:
                    return r
                return second(s, r, acc)
            return pair

        def pair_star(s, pos, acc):
            r = first(s, pos, acc)
            if r.__class__ is _Fail:
                return r
            if s._kinds[r] in guard:
                return second(s, r, acc)
            if r > s.farthest:
                s.farthest = r
            return r
        return pair_star

    steps = tuple(zip(items, guards))

    def sequence(s, pos, acc):
        kinds = s._kinds
        for item, guard in steps:
            if guard is not None and kinds[pos] not in guard:
                if pos > s.farthest:
                    s.farthest = pos
                continue
            pos = item(s, pos, acc)
            if pos.__class__ is _Fail:
                return pos
        return pos
    return sequence


def _plan(alts: list, guards: list, terminal: list, kind):
    """What a choice does at a token of this kind: the alternatives it tries
    first, each rolled back when it fails; the one it runs last, whose
    failure is the choice's own (``_nothing`` when it skips its last
    alternative); and whether it skips an alternative that would have run
    had its guard let it.  ``terminal[i]`` says whether alternative i is a
    terminal other than ``EOF``: one whose guard lets it run here matches,
    so no alternative after it would run, and none of those counts as
    skipped."""
    tried = [i for i, guard in enumerate(guards) if guard is None or kind in guard]
    for n, i in enumerate(tried):
        if terminal[i] and guards[i] is not None:
            # n of the i alternatives before i are tried
            return tuple(alts[j] for j in tried[:n]), alts[i], n < i
    skipped = len(tried) < len(alts)
    if tried and tried[-1] == len(alts) - 1:
        return tuple(alts[i] for i in tried[:-1]), alts[tried[-1]], skipped
    return tuple(alts[i] for i in tried), _nothing, skipped


def _choice(alts: list, guards: list, terminal: list):
    table = {kind: _plan(alts, guards, terminal, kind)
             for kind in set().union(*filter(None, guards))}
    # kinds no guard holds: stray tokens, end of input
    other = _plan(alts, guards, terminal, None)

    def choice(s, pos, acc):
        init, last, skipped = table.get(s._kinds[pos], other)
        if skipped and pos > s.farthest:
            s.farthest = pos
        if init:
            n_acc = len(acc)
            errors = s.errors
            n_err = len(errors)
            for alt in init:
                r = alt(s, pos, acc)
                if r is not _FAILED:
                    return r
                del acc[n_acc:]
                del errors[n_err:]
        return last(s, pos, acc)
    return choice


def _star(body, guard):
    def star(s, pos, acc):
        kinds = s._kinds
        errors = s.errors
        while True:
            if guard is not None and kinds[pos] not in guard:
                if pos > s.farthest:
                    s.farthest = pos
                return pos
            n_acc, n_err = len(acc), len(errors)
            r = body(s, pos, acc)
            if r.__class__ is _Fail:
                if r is not _FAILED:
                    return r
            elif r != pos:
                pos = r
                continue
            # a plain failure ends the loop; so does no progress, where a
            # nullable body would loop forever
            del acc[n_acc:]
            del errors[n_err:]
            return pos
    return star


def _not(body, guard):
    def not_(s, pos, acc):
        if guard is not None and s._kinds[pos] not in guard:
            if pos > s.farthest:
                s.farthest = pos
            return pos
        n_acc = len(acc)
        errors = s.errors
        n_err = len(errors)
        s.pred_depth += 1
        try:
            r = body(s, pos, acc)
        finally:
            s.pred_depth -= 1
        del acc[n_acc:]
        del errors[n_err:]
        if r.__class__ is _Fail:
            return pos
        return _fail(s, pos)
    return not_


def _rule(name: str, rules: dict, rid: int, nrules: int, shift: int):
    """The rule closure: it closes its subtree with one row (``Tree``)."""
    close = ~rid
    empty = ~(nrules + rid)

    def rule(s, pos, acc):
        n = len(acc)
        r = rules[name](s, pos, acc)
        if r.__class__ is _Fail:
            return r
        if len(acc) > n:
            acc.append(close - (n << shift))
        else:
            acc.append(empty - (pos << shift))
        return r
    return rule


def _throw(label: str):
    def throw(s, pos, acc):
        return s._throw(label, pos, acc)
    return throw


# In the FIRST sets of the guards, the mark of a node that can act before
# it consumes a token: a throw, a predicate or "."
_ACTS = object()
_ACTS_SET = TokenSet(frozenset((_ACTS,)))


def _guard_leaf(e: Expr) -> TokenSet:
    """FIRST of a leaf or a predicate of a desugared syntactic rule, as the
    guards see it (``model.First``)."""
    cls = e.__class__
    if cls is Terminal:
        return EPSILON_ONLY if e.kind == EOF_KIND else TokenSet(frozenset((e.kind,)))
    return EPSILON_ONLY if cls is Empty else _ACTS_SET


class _Matcher:
    """The syntactic rules and recovery expressions of one desugared
    grammar, compiled."""

    def __init__(self, g: Grammar):
        self.first = First(g.rules, _guard_leaf)
        # a rule's id is its index in names (``Tree``)
        self.names = tuple(g.rules)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.shift = _code_bits(len(self.names))
        self.rules: dict = {}
        # one memo for the whole grammar: g keeps its nodes alive
        memo: dict = {}
        for name, body in g.rules.items():
            self.rules[name] = self.compile(body, memo)
        self.recovery = {lab: self.compile(b, memo) for lab, b in g.recovery.items()}
        self.start = self.compile(NonTerminal(g.start))

    def guard(self, e: Expr) -> frozenset | None:
        """The token kinds at which e can do anything but fail plainly
        without consuming, or None when e must run at every token: when it
        is nullable or can act before consuming."""
        first = self.first(e)
        if first.has_epsilon or _ACTS in first.kinds:
            return None
        return first.kinds

    def compile_expr(self, e: Expr):
        """Closure for desugared e from outside the grammar.  Its FIRST
        sets go to a memo of their own, so the matcher keeps nothing of
        it."""
        view = copy.copy(self)
        view.first = self.first.scratch()
        return view.compile(e)

    def compile(self, e: Expr, memo: dict | None = None):
        """Closure for desugared e.  A rule reference looks its rule up
        when it runs, so rules may be compiled in any order.  ``memo``
        holds, by ``id``, the closure of every node compiled so far, so a
        node shared by several parents (desugaring ``p+`` to ``p p*``
        shares p) is compiled once; it must keep those nodes alive."""
        if memo is None:
            memo = {}
        key = id(e)
        found = memo.get(key)
        if found is None:
            found = memo[key] = self._compile_node(e, memo)
        return found

    def _compile_node(self, e: Expr, memo: dict):
        cls = e.__class__
        if cls is Empty:
            return _empty
        if cls is Terminal:
            return _eof if e.kind == EOF_KIND else _terminal(e.kind)
        if cls is AnyToken:
            return _any_token
        if cls is Sequence:
            items = self._sequence_items(e, memo)
            return _sequence([self.compile(x, memo) for x in items],
                             [self.guard(x.body) if x.__class__ is Star else None
                              for x in items])
        if cls is Choice:
            alts = operands(e, Choice)
            return _choice([self.compile(x, memo) for x in alts],
                           [self.guard(x) for x in alts],
                           [x.__class__ is Terminal and x.kind != EOF_KIND
                            for x in alts])
        if cls is Star:
            return _star(self.compile(e.body, memo), self.guard(e.body))
        if cls is Not:
            return _not(self.compile(e.body, memo), self.guard(e.body))
        if cls is NonTerminal:
            return _rule(e.name, self.rules, self.ids[e.name], len(self.names),
                         self.shift)
        if cls is Throw:
            return _throw(e.label)
        raise TypeError(f"unexpected node in syntactic rule: {e!r}")

    def _sequence_items(self, e: Sequence, memo: dict) -> list[Expr]:
        """The operands of the sequence chain e, left to right, as
        ``operands`` gives them, except that a sequence inside e that is
        compiled already runs as one item.  The operands are compiled right
        to left, so in ``p p*`` the star compiles p first and p is then
        one item, not flattened again."""
        items: list[Expr] = []
        stack = [e.left, e.right]
        while stack:
            node = stack.pop()
            if node.__class__ is Sequence and id(node) not in memo:
                stack.append(node.left)
                stack.append(node.right)
            else:
                self.compile(node, memo)
                items.append(node)
        items.reverse()
        return items


class Session:
    """One parse over one input text."""

    def __init__(self, grammar: Grammar, text: str,
                 max_errors: int = DEFAULT_MAX_ERRORS,
                 messages: dict[str, str] | None = None):
        prog = program(grammar)
        if prog.matcher is None:
            with nesting_guard():
                prog.matcher = _Matcher(prog.grammar)
        self.grammar = prog.grammar
        self._matcher: _Matcher = prog.matcher
        self.stream = stream = TokenStream(grammar, text)
        # the columns the matcher reads; ``_kinds`` ends in EOF_KIND at the
        # token count, and up to where a match past the end starts
        self._count = len(stream.kinds)
        self._kinds: list[str | None] = stream.kinds + [EOF_KIND]
        self._spans = stream.spans
        self.max_errors = max_errors
        self.messages = dict(self.grammar.messages)
        if messages:
            self.messages.update(messages)
        self.errors: list[ParseError] = []
        # what the error rows of acc point to (``Tree``); a row rolled back
        # leaves its node here unused
        self.error_nodes: list[ErrorNode] = []
        self.guard: set[tuple[str, int]] = set()
        self.pred_depth = 0
        self.rec_depth = 0
        self.farthest = 0
        limit = sys.getrecursionlimit()
        if limit < 20000:
            sys.setrecursionlimit(20000)

    # -- error records --------------------------------------------------------

    def _message_for(self, label: str) -> str:
        msg = self.messages.get(label)
        if msg is None:
            msg = f"unexpected input ({label})"
        return msg

    def _record(self, label: str, pos: int, message: str | None = None) -> None:
        offset = self.stream.frontier_offset(pos)
        line, col = self.stream.pos_info(offset)
        self.errors.append(ParseError(
            label=label,
            message=message if message is not None else self._message_for(label),
            offset=offset, line=line, col=col, token_index=pos,
        ))

    def _throw(self, label: str, pos: int, acc: list):
        recovery = self._matcher.recovery.get(label)
        if (recovery is None or self.pred_depth > 0 or self.rec_depth > 0):
            return _Fail(label, pos)
        if (label, pos) in self.guard:
            return _Fail(label, pos)
        if len(self.errors) >= self.max_errors:
            return _Fail(label, pos, logged=True)
        self.guard.add((label, pos))
        self._record(label, pos)
        scratch: list = []
        self.rec_depth += 1
        try:
            r = recovery(self, pos, scratch)
        finally:
            self.rec_depth -= 1
        if isinstance(r, _Fail):
            return _Fail(label, pos, logged=True)
        expected = self.grammar.label_descriptions.get(label, label)
        if r > pos:
            # the recovery consumed tokens pos .. r-1
            span = (self._spans[pos][0], self._spans[r - 1][1])
        else:
            anchor = self.stream.start_offset(pos)
            span = (anchor, anchor)
        nodes = self.error_nodes
        matcher = self._matcher
        acc.append(~((len(nodes) << matcher.shift) | 2 * len(matcher.names)))
        nodes.append(ErrorNode(label, expected, span))
        return r

    # -- entry points -----------------------------------------------------------

    def _too_deep(self) -> list[ParseError]:
        """The errors of a parse that ran out of stack.  Those recorded so
        far may belong to alternatives that never finished, so only one
        fatal error is kept, at the farthest position reached."""
        self.errors = []
        self._record(FAIL, self.farthest, "input nested too deeply")
        return self.errors

    def _tree(self, rows: list[int]) -> Tree:
        stream = self.stream
        return Tree(rows, stream.kinds, stream.spans, self._matcher.names,
                    self.error_nodes, stream.eof_offset())

    def parse(self) -> ParseOutcome:
        acc: list[int] = []
        try:
            r = self._matcher.start(self, 0, acc)
        except RecursionError:
            return ParseOutcome(status="failed", tree=None,
                                errors=self._too_deep(), fail_label=FAIL)
        if isinstance(r, _Fail):
            if r is _FAILED:
                self._record(FAIL, self.farthest, "unexpected input")
            elif not r.logged:
                self._record(r.label, r.pos)
            return ParseOutcome(status="failed", tree=None,
                                errors=self.errors, fail_label=r.label)
        if r < self._count:
            self._record(FAIL, r, "expected end of input")
        return ParseOutcome(status="matched", tree=self._tree(acc),
                            errors=self.errors, end=r)

    def match_expr(self, expr: Expr, pos: int = 0) -> MatchResult:
        """Match expr at token index pos.  An expr that refers to an
        undefined rule or token kind, or that ``validate`` would reject in
        a rule for another reason, is a GrammarError."""
        try:
            expr = desugar_expr(expr)
            check_expr(self.grammar, expr, "matched expression")
            body = self._matcher.compile_expr(expr)
        except RecursionError:
            raise GrammarError("expression nested too deeply") from None
        acc: list[int] = []
        self._kinds += [EOF_KIND] * (pos + 1 - len(self._kinds))
        try:
            r = body(self, pos, acc)
        except RecursionError:
            return MatchResult(status="failed", end=None, fail_label=FAIL,
                               errors=self._too_deep())
        if isinstance(r, _Fail):
            return MatchResult(status="failed", end=None,
                               fail_label=r.label, errors=self.errors)
        return MatchResult(status="matched", end=r,
                           errors=self.errors,
                           children=tuple(_tuple_nodes(self._tree(acc))))


def parse(grammar: Grammar, text: str,
          max_errors: int = DEFAULT_MAX_ERRORS,
          messages: dict[str, str] | None = None) -> ParseOutcome:
    """Parse text from the grammar's start rule."""
    return Session(grammar, text, max_errors=max_errors, messages=messages).parse()


def match(grammar: Grammar, expr: Expr, text: str, pos: int = 0,
          max_errors: int = DEFAULT_MAX_ERRORS) -> MatchResult:
    """Match one expression against text starting at token index pos."""
    return Session(grammar, text, max_errors=max_errors).match_expr(expr, pos)
