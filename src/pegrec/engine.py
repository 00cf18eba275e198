"""Parsing with labeled failures and recovery.

Positions are token indices.  A failure is either the plain ``fail`` label,
which ordered choice and repetition absorb by backtracking, or a named
label, which propagates until something fields it: a recovery expression
registered for that label, a syntactic predicate, or the top level.

Recovery for label l runs the grammar's recovery expression from the throw
position, typically skipping tokens until a synchronization point.  The
skipped region becomes an ErrorNode standing in for the subtree that could
not be built, and parsing resumes after it.  Recovery is suppressed inside
predicates and inside another recovery (one counter, ``Session.quiet``,
counts both), after max_errors diagnostics, and when the same label has
already been attempted at the same position (so a loop of
throw/recover/backtrack cannot diverge).  All of that state belongs to one
run: each ``parse`` or ``match_expr`` starts it afresh.

A grammar is compiled once per Grammar object, on its first parse, and the
result is kept on the grammar, so both are freed together: its desugared
and validated form (``model.desugar``), and on that form its lexer and
generated Python source, one function per syntactic rule plus helpers,
compiled one function at a time (see "compilation" below); a recovery
expression's function is compiled when a parse first recovers with it.
A Grammar must therefore not be mutated after its first parse.
``match_expr`` checks its one expression against the grammar and
compiles it on the spot, unless it is a rule reference, which runs the
rule's own function.

A ``Session`` scans the whole text when it is built.  The matcher then
reads the token kinds from a column that ends in ``EOF`` at the token
count and one past it, where a match past the end runs, so every
test of the matcher, ``.`` and ``EOF`` too, compares the kind at its
position, with no bounds check.  No token has the kind ``EOF``.

Choices, repetitions and predicates look at the current token's kind
(one-token lookahead; ``EOF`` past the end of input).  Each alternative of
a choice, each star body and each predicate body gets a guard when it can
only fail plainly unless it consumes a token first: it is not nullable,
and it reaches no throw, no predicate and no ``.`` before its first
token.  Its guard is then its FIRST set, and at a token outside that set
it is skipped, since running it would only have failed there.  The one
trace such a failure leaves, moving ``farthest`` up to the position, is
made by the skip instead: a choice moves it before its first alternative
at a kind where it skips one, a star when its loop ends, and ``!p`` when
it succeeds without running p.  Any other expression has no guard and
always runs.  FIRST sets alone would not do: FIRST(^l) is empty, so
``[X]^l / Y`` pruned by FIRST(X) would match Y silently where it must
throw l.  So the guards come from a ``model.First`` over the token kinds
plus one marker, which a throw, a predicate and ``.`` put in their sets:
a node whose set holds epsilon or the marker gets no guard.

A terminal alternative that its guard lets run matches, so no alternative
after it runs there (``[X]^l`` at an X is just X), and the choice appends
the token without testing its kind again.  Every alternative but the
last is rolled back when it fails plainly; the last one's failure is the
choice's own.

A parse builds its syntax tree as one column of ints, ``acc``, in
postorder (``Tree``): a terminal appends its token index, a rule appends
one row that names it and the row where its subtree began, and recovery
appends one row that points into a short list of ``ErrorNode``s.  The
matcher makes no node object, so a tree of any size is a few lists that
the cyclic collector walks as one object each, and a choice, a star or a
predicate drops what a failed alternative built with ``del acc[n:]``.
An error recorded by a recovery whose row is gone so is dropped the next
time the error list is read (``Session._live``).  ``tree_to_json``
(dicts, a tree's one Python shape), ``tree_to_json_text`` (one reverse
pass, whose texts ``Tree.__eq__`` compares) and ``ast_structural_eq``
read the columns with stacks of their own, so no tree is too deep.
``tree_to_json`` gives a rule with one child that child's span list, so
a chain of one-child rules shares the span of the node at its foot, and
on tiny-Java the collector tracks about 2.1 dicts and lists per node
where it tracked 2.6; nothing else in them is shared.
"""

from __future__ import annotations

import copy
import json
import reprlib
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
    FrozenRecord,
    Grammar,
    GrammarError,
    NonTerminal,
    Not,
    Record,
    Sequence,
    Star,
    Terminal,
    Throw,
    TokenSet,
    check_expr,
    desugar,
    desugar_expr,
    nesting_guard,
    operands,
    plus_operand,
)
from .lexer import TokenStream


# --- syntax trees -----------------------------------------------------------

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
    starts, or at ``eof`` past the last token.  Trees compare equal when
    their JSON texts (``tree_to_json_text``) do."""

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

    def __eq__(self, other):
        if other.__class__ is not Tree:
            return NotImplemented
        return tree_to_json_text(self) == tree_to_json_text(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"<Tree of {len(self.rows)} nodes>"


def _anchor(tree: Tree, pos: int) -> int:
    spans = tree.spans
    return spans[pos][0] if pos < len(spans) else tree.eof


def _json_nodes(tree: Tree) -> list[dict]:
    """The top-level nodes of the rows, left to right, as ``tree_to_json``'s."""
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
            if d == len(done) - 1:  # one child: its span is the rule's too
                child = done[d]
                done[d] = {"rule": names[code], "span": child["span"], "children": [child]}
                continue
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
    return done


def tree_to_json(tree: Tree) -> dict:
    """The tree as ``pegrec parse --json`` prints it: ``{"rule", "span",
    "children"}``, ``{"token", "span"}`` and ``{"error", "expected", "span"}``.
    Every dict and every ``children`` list is new, and so is every span
    list but a one-child rule's, which is its child's own: edit a copy,
    ``json.loads(json.dumps(...))``, which shares nothing."""
    return _json_nodes(tree)[0]


def tree_to_json_text(tree: Tree) -> str:
    """``json.dumps(tree_to_json(tree), separators=(",", ":"))``, written
    backwards in one pass over the rows from the root down and right to
    left (reverse postorder).  A rule's close row precedes its subtree,
    whose first row closes nothing: the rule ends where the next such row
    ends, and starts where its first row starts, where its opener goes.
    Each node's text up to its span's numbers is made once per token kind
    and rule name."""
    rows, kinds, spans, names, nodes = tree.rows, tree.kinds, tree.spans, tree.names, tree.error_nodes
    n, shift = len(names), tree.shift
    mask = (1 << shift) - 1
    rule_open = ['{"rule":%s,"span":[' % json.dumps(s) for s in names]
    token_open: dict = {}  # the same per token kind, made on first use
    out: list[str] = []
    # [first row, close row, end] per open rule; the last pending lack end
    opened: list[list[int]] = []
    pending = 0
    for i in range(len(rows) - 1, -1, -1):
        if opened and i != opened[-1][1] - 1:
            out.append(",")  # i has a right sibling
        x = rows[i]
        if x >= 0:
            start, end = spans[x]
            kind = kinds[x]
            opener = token_open.get(kind)
            if opener is None:
                opener = token_open[kind] = '{"token":%s,"span":[' % json.dumps(kind)
            out.append(f"{opener}{start},{end}]}}")
        else:
            c = ~x
            code = c & mask
            if code < n:
                out.append("]}")
                opened.append([c >> shift, i, 0])
                pending += 1
                continue
            if code < 2 * n:
                start = end = _anchor(tree, c >> shift)
                out.append(f'{rule_open[code - n]}{start},{end}],"children":[]}}')
            else:
                node = nodes[c >> shift]
                start, end = node.span
                out.append('{"error":%s,"expected":%s,"span":[%d,%d]}'
                           % (json.dumps(node.label), json.dumps(node.expected), start, end))
        while pending:
            opened[-pending][2] = end
            pending -= 1
        while opened and opened[-1][0] == i:
            _, last, stop = opened.pop()
            out.append(f'{rule_open[~rows[last] & mask]}{start},{stop}],"children":[')
    out.reverse()
    return "".join(out)


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

class ParseError(FrozenRecord):
    """One recorded syntax error.  ``offset``/``line``/``col`` point at the
    end of the last token consumed before the failure (start of input when
    nothing was consumed, end of input when everything was)."""

    _fields = ("label", "message", "offset", "line", "col", "token_index")

    def __init__(self, label: str, message: str, offset: int, line: int, col: int,
                 token_index: int):
        vars(self).update(label=label, message=message, offset=offset, line=line,
                          col=col, token_index=token_index)


class ParseOutcome(Record):
    _fields = ("status", "tree", "errors", "end", "fail_label")

    def __init__(self, status: str, tree: Tree | None, errors: list[ParseError],
                 end: int | None = None, fail_label: str | None = None):
        self.status = status  # "matched" or "failed"
        self.tree = tree
        self.errors = errors
        self.end = end
        self.fail_label = fail_label

    @property
    def ok(self) -> bool:
        return self.status == "matched" and not self.errors


class MatchResult(Record):
    """Result of matching a single expression; its ``children`` are ``tree_to_json`` nodes."""

    _fields = ("status", "end", "fail_label", "errors", "children")

    def __init__(self, status: str, end: int | None, fail_label: str | None = None,
                 errors: list[ParseError] | None = None, children: tuple = ()):
        self.status = status
        self.end = end
        self.fail_label = fail_label
        self.errors = [] if errors is None else errors
        self.children = children


DEFAULT_MAX_ERRORS = 50


# --- compilation ------------------------------------------------------------
#
# Every syntactic rule becomes one generated Python function r<id>(s, pos,
# acc), where s is the Session and acc the rows of the tree being built
# (``Tree``).  It returns the end position, or a failure below 0: -1
# (_FAILED) for the plain ``fail`` label, -2 (_THROWN) for a named label,
# whose (label, pos, logged) the session keeps in ``failure``: where it
# was thrown, and whether its error is recorded already.  Only
# ``Session._throw`` makes a -2, and only ``!`` and a recovery expression
# stop one, so one slot is enough.  A rule function appends its own row.
#
# The code of an expression is written where it is used: a sequence as
# straight-line code that returns on failure, a terminal as a test of
# ``kinds[pos]``, a choice as its alternatives in turn, each behind its
# guard, a star as a while loop and ``!`` as a block.  An operand of a
# choice, a star or ``!`` that is not a leaf becomes a helper function
# h<n> instead, written once, and so does the p of a p p*, the one node
# desugaring shares (``model.plus_operand``): the sequence calls it as
# its star does.  So the source stays linear in the size of the grammar,
# and no function nests blocks more than a few levels deep.  One
# exception saves a frame per call: a choice's last alternative is
# written in place when the choice is not itself inside such an
# alternative.  A recovery expression is a helper too.  Each function is
# compiled on its own, into one namespace per grammar, and helpers of
# the same source are compiled once.  Compiling takes about a
# microsecond per token of source, which is most of what building a
# matcher costs, so ``[X]^l``, the most common choice, is two lines, and
# a recovery expression is compiled only when a parse first recovers
# with it.

_FAILED = -1
_THROWN = -2


def _fail(s: "Session", pos: int) -> int:
    if pos > s.farthest:
        s.farthest = pos
    return _FAILED


def _skip_throw(s: "Session", label: str, pos: int, acc: list) -> int:
    """A throw where a choice skipped an alternative."""
    if pos > s.farthest:
        s.farthest = pos
    return s._throw(label, pos, acc)


def _kind_test(var: str, kinds, among: bool = True) -> str:
    """Source that tests whether the kind in var is one of kinds (never
    empty), or with ``among`` false, none of them."""
    kinds = sorted(kinds)
    if len(kinds) == 1:
        return f"{var} {'==' if among else '!='} {kinds[0]!r}"
    return f"{var} {'in' if among else 'not in'} {{{', '.join(map(repr, kinds))}}}"


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


_PLACED = (Sequence, Star, Not)


class _Matcher:
    """The syntactic rules and recovery expressions of one desugared
    grammar, compiled: ``rules`` maps a rule name to its function, and
    ``recovery`` a label to its recovery expression's, compiled the first
    time it runs (``recover``).  The functions are written by the methods
    below and defined in ``namespace``."""

    def __init__(self, g: Grammar):
        self.first = First(g.rules, _guard_leaf)
        # a rule's id is its index in names (``Tree``)
        self.names = tuple(g.rules)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.shift = _code_bits(len(self.names))
        self.namespace: dict = {"fail": _fail, "throw": _skip_throw}
        self.helpers: dict[int, str] = {}   # id(node) -> its helper's name
        self.sources: dict[str, str] = {}   # a helper's body -> its name
        # past every helper name the namespace holds
        self.count = len(self.namespace)
        for rid, body in enumerate(g.rules.values()):
            self.rule(rid, body)
        self.rules = {name: self.namespace[f"r{rid}"] for rid, name in enumerate(self.names)}
        self.start = self.rules[g.start]
        self.recovery_exprs = g.recovery
        self.recovery: dict = {}

    def recover(self, label: str):
        """The function of label's recovery expression.  Only a parse that
        recovers runs one, so each is compiled the first time it is asked
        for."""
        found = self.recovery.get(label)
        if found is None:
            found = self.recovery[label] = self.namespace[
                self.function(self.recovery_exprs[label])]
        return found

    def guard(self, e: Expr) -> frozenset | None:
        """The token kinds at which e can do anything but fail plainly
        without consuming, or None when e must run at every token: when it
        is nullable or can act before consuming."""
        first = self.first(e)
        if first.has_epsilon or _ACTS in first.kinds:
            return None
        return first.kinds

    def admitted(self, e: Expr) -> frozenset | None:
        """The kinds at which e is sure to match one token, when e is a
        terminal other than ``EOF`` or a choice of such: their kinds."""
        alts = operands(e, Choice) if e.__class__ is Choice else (e,)
        for x in alts:
            if x.__class__ is not Terminal or x.kind == EOF_KIND:
                return None
        return frozenset(x.kind for x in alts)

    def stops(self, e: Expr) -> frozenset | None:
        """The kinds p matches when the star e is ``(!p .)*`` and p a
        terminal or a choice of terminals, as in the recovery expressions the
        annotator writes: e then takes the tokens up to one of them or the
        end, and moves farthest to where it stops.  For ``(!EOF .)*`` it is
        the empty set."""
        body = e.body
        if (body.__class__ is Sequence and body.left.__class__ is Not
                and body.right.__class__ is AnyToken):
            p = body.left.body
            if p.__class__ is Terminal and p.kind == EOF_KIND:
                return frozenset()
            return self.admitted(p)
        return None

    def compile_expr(self, e: Expr):
        """Function for desugared e from outside the grammar: a rule's own
        function for a rule reference, else one compiled into a copy of the
        namespace, with FIRST sets in a memo of their own, so the matcher
        keeps nothing of it."""
        if e.__class__ is NonTerminal:
            return self.rules[e.name]
        view = copy.copy(self)
        view.first = self.first.scratch()
        view.namespace = dict(self.namespace)
        view.helpers, view.sources, view.count = {}, {}, len(view.namespace)
        return view.namespace[view.function(e)]

    def rule(self, rid: int, body: Expr) -> None:
        """Define r<rid>, the function of the rule with that id: it closes
        its subtree with one row."""
        out = ["    n = len(acc)"]
        close = f"acc.append({~rid} - (n << {self.shift}))"
        if self._appends(body):
            self._seq(body, out, "    ", 0)
            out.append(f"    {close}")
        else:
            out.append("    p = pos")
            self._seq(body, out, "    ", 0)
            out.append(f"    if len(acc) > n: {close}")
            out.append(f"    else: acc.append({~(len(self.names) + rid)} - (p << {self.shift}))")
        out.append("    return pos")
        self._define(f"r{rid}", out)

    def function(self, e: Expr) -> str:
        """The name of the helper that matches e."""
        name = self.helpers.get(id(e))
        if name is None:
            out: list[str] = []
            self._seq(e, out, "    ", 0)
            out.append("    return pos")
            key = "\n".join(out)
            name = self.sources.get(key)
            if name is None:
                name = self.sources[key] = f"h{self.count}"
                self.count += 1
                self._define(name, out)
            self.helpers[id(e)] = name
        return name

    def _define(self, name: str, body: list[str]) -> None:
        # a function that reads the kind column loads it once
        if any("kinds[" in line for line in body):
            body.insert(0, "    kinds = s._kinds")
        source = f"def {name}(s, pos, acc):\n" + "\n".join(body) + "\n"
        try:
            code = compile(source, "<pegrec grammar>", "exec")
        except (SyntaxError, MemoryError):
            raise GrammarError("grammar nested too deeply") from None
        exec(code, self.namespace)

    def _appends(self, e: Expr) -> bool:
        """Whether every match of e appends a row: a token, a rule or an
        error node."""
        cls = e.__class__
        if cls is Terminal:
            return e.kind != EOF_KIND
        if cls is Sequence:
            return self._appends(e.left) or self._appends(e.right)
        if cls is Choice:
            return self._appends(e.first) and self._appends(e.second)
        return cls is AnyToken or cls is NonTerminal or cls is Throw

    def _call(self, e: Expr) -> str:
        cls = e.__class__
        if cls is NonTerminal:
            return f"r{self.ids[e.name]}(s, pos, acc)"
        if cls is Throw:
            return f"s._throw({e.label!r}, pos, acc)"
        return f"{self.function(e)}(s, pos, acc)"

    def _seq(self, e: Expr, out: list, ind: str, depth: int) -> None:
        """Code that matches e at pos: it leaves the end in pos and returns
        a failure.  ``depth`` is 1 inside an alternative written in place."""
        # the operands of the sequence chain e, each with whether it may be
        # written in place: not the p of p p*, which the star calls too
        items, stack = [], [(e, True)]
        while stack:
            node, placed = stack.pop()
            if node.__class__ is Sequence and placed:
                stack += ((node.right, True), (node.left, plus_operand(node) is None))
            else:
                items.append((node, placed))
        for item, placed in items:
            cls = item.__class__
            if (cls is Choice and item.second.__class__ is Throw
                    and item.first.__class__ is Terminal
                    and self.admitted(item.first) is not None):
                # [X]^l, the most common choice: two lines, where _choice
                # writes six, and compiling costs per token of source
                out.append(f"{ind}if kinds[pos] == {item.first.kind!r}: acc.append(pos); pos += 1")
                out.append(f"{ind}elif (pos := throw(s, {item.second.label!r}, pos, acc)) < 0: "
                           "return pos")
            elif cls is Terminal and item.kind != EOF_KIND:
                out.append(f"{ind}if kinds[pos] != {item.kind!r}: return fail(s, pos)")
                out.append(f"{ind}acc.append(pos); pos += 1")
            elif cls is Terminal:
                out.append(f"{ind}if kinds[pos] != 'EOF': return fail(s, pos)")
            elif cls is AnyToken:
                out.append(f"{ind}if kinds[pos] == 'EOF': return fail(s, pos)")
                out.append(f"{ind}acc.append(pos); pos += 1")
            elif cls is Empty:
                out.append(f"{ind}pass")
            elif cls is Choice and placed:
                self._choice(item, out, ind, depth)
            elif cls is Star and placed:
                self._star(item, out, ind)
            elif cls is Not and placed:
                self._not(item.body, out, ind)
            else:
                out.append(f"{ind}if (pos := {self._call(item)}) < 0: return pos")

    def _result(self, e: Expr, out: list, ind: str, admitted: bool = False) -> None:
        """Code that matches e at pos and leaves its end or failure in r.
        ``admitted``: e is a terminal that the current kind is known to
        be, as every caller knows a terminal other than ``EOF`` to be."""
        cls = e.__class__
        if cls is Terminal and e.kind == EOF_KIND:
            out.append(f"{ind}r = pos if kinds[pos] == 'EOF' else fail(s, pos)")
        elif admitted:
            out.append(f"{ind}acc.append(pos); r = pos + 1")
        elif cls is AnyToken:
            out.append(f"{ind}if kinds[pos] != 'EOF': acc.append(pos); r = pos + 1")
            out.append(f"{ind}else: r = fail(s, pos)")
        elif cls is Empty:
            out.append(f"{ind}r = pos")
        else:
            out.append(f"{ind}r = {self._call(e)}")

    def _star(self, e: Expr, out: list, ind: str) -> None:
        stop = self.stops(e)
        if stop is not None:
            stop = _kind_test("kinds[pos]", stop | {EOF_KIND}, False)
            out.append(f"{ind}while {stop}: acc.append(pos); pos += 1")
            out.append(f"{ind}if pos > s.farthest: s.farthest = pos")
            return
        body = e.body
        admitted = self.admitted(body)
        guard = self.guard(body) if admitted is None else admitted
        inner = ind + "    "
        out.append(f"{ind}while {'True' if guard is None else _kind_test('kinds[pos]', guard)}:")
        if admitted is not None:
            out.append(f"{inner}acc.append(pos); pos += 1")
        else:
            out.append(f"{inner}na = len(acc)")
            self._result(body, out, inner)
            out.append(f"{inner}if r > pos: pos = r; continue")
            # a plain failure ends the loop; so does no progress, where a
            # nullable body would loop forever
            out.append(f"{inner}if r < -1: return r")
            out.append(f"{inner}del acc[na:]")
            out.append(f"{inner}break")
        if guard is not None:
            out.append(f"{ind}else:")
            out.append(f"{inner}if pos > s.farthest: s.farthest = pos")

    def _not(self, body: Expr, out: list, ind: str) -> None:
        admitted = self.admitted(body)
        if admitted is not None:
            out.append(f"{ind}if {_kind_test('kinds[pos]', admitted)}: return fail(s, pos)")
            out.append(f"{ind}if pos > s.farthest: s.farthest = pos")
            return
        guard = self.guard(body)
        inner = ind
        if guard is not None:
            out.append(f"{ind}if {_kind_test('kinds[pos]', guard)}:")
            inner = ind + "    "
        out.append(f"{inner}na = len(acc)")
        out.append(f"{inner}s.quiet += 1")
        self._result(body, out, inner)
        out.append(f"{inner}s.quiet -= 1")
        out.append(f"{inner}del acc[na:]")
        out.append(f"{inner}if r >= 0: return fail(s, pos)")
        if guard is not None:
            out.append(f"{ind}elif pos > s.farthest: s.farthest = pos")

    def _choice(self, e: Expr, out: list, ind: str, depth: int) -> None:
        """The alternatives in turn, each behind its guard, leaving the
        result in r.  Each but the last is rolled back when it fails
        plainly; the last one's failure is the choice's own."""
        alts = operands(e, Choice)
        guards = [self.guard(x) for x in alts]
        admitted = [self.admitted(x) is not None for x in alts]
        # a kind at which the choice skips an alternative that would have
        # run moves farthest to pos, as that alternative's failure would
        # have moved it; kept holds the kinds at which none is skipped
        skips = any(guard is not None for guard in guards)
        kept = set()
        for kind in set().union(*filter(None, guards)):
            for x, guard, terminal in zip(alts, guards, admitted):
                if guard is not None and kind not in guard:
                    break
                if terminal:
                    kept.add(kind)
                    break
            else:
                kept.add(kind)
        # most often, kept is the first alternative's guard, and the skip
        # goes with not running it
        skip_first = guards[0] is not None and kept == guards[0]
        if skips and not skip_first:
            test = f"{_kind_test('kinds[pos]', kept, False)} and " if kept else ""
            out.append(f"{ind}if {test}pos > s.farthest: s.farthest = pos")
            if guards[0] is not None:
                out.append(f"{ind}r = -1")
        for i, x in enumerate(alts):
            test = [] if i == 0 else ["r == -1"]
            if guards[i] is not None:
                test.append(_kind_test("kinds[pos]", guards[i]))
            at = ind
            if test:
                out.append(f"{ind}if {' and '.join(test)}:")
                at = ind + "    "
            if i < len(alts) - 1:
                if admitted[i]:
                    out.append(f"{at}acc.append(pos); r = pos + 1")
                else:
                    out.append(f"{at}na = len(acc)")
                    self._result(x, out, at)
                    out.append(f"{at}if r == -1: del acc[na:]")
                if i == 0 and skip_first:
                    out.append(f"{ind}else: r = fail(s, pos)")
            elif x.__class__ in _PLACED and depth == 0:
                # written in place, returning its failure, which saves a
                # frame per call
                self._seq(x, out, at, 1)
                out.append(f"{ind}elif r < 0: return r")
                out.append(f"{ind}else: pos = r")
                return
            else:
                self._result(x, out, at, admitted[i])
        out.append(f"{ind}if r < 0: return r")
        out.append(f"{ind}pos = r")


class Session:
    """One input text, scanned when the Session is built.  Each ``parse``
    and ``match_expr`` on it is a run of its own, from fresh state
    (``_run``), so every call answers as it would on a new Session."""

    def __init__(self, grammar: Grammar, text: str,
                 max_errors: int = DEFAULT_MAX_ERRORS,
                 messages: dict[str, str] | None = None):
        # a parse that may record no error fails with none to report
        if max_errors < 1:
            raise ValueError(f"max_errors must be at least 1, got {max_errors}")
        self.grammar = g = desugar(grammar)
        if g._matcher is None:
            with nesting_guard():
                g._matcher = _Matcher(g)
        self._matcher: _Matcher = g._matcher
        self.stream = stream = TokenStream(grammar, text)
        # the columns the matcher reads; ``_kinds`` ends in EOF_KIND at the
        # token count and one past it, where a match past the end runs
        self._count = len(stream.kinds)
        self._kinds: list[str | None] = stream.kinds + [EOF_KIND, EOF_KIND]
        self._spans = stream.spans
        self.max_errors = max_errors
        self.messages = messages or {}

    # -- error records --------------------------------------------------------

    def _message_for(self, label: str) -> str:
        msg = self.messages.get(label)
        if msg is None:
            desc = self.grammar.label_descriptions.get(label)
            msg = f"unexpected input ({label})" if desc is None else f"expected {desc}"
        return msg

    def _record(self, label: str, pos: int, message: str | None = None) -> None:
        offset = self.stream.frontier_offset(pos)
        line, col = self.stream.pos_info(offset)
        self.errors.append(ParseError(
            label=label,
            message=message if message is not None else self._message_for(label),
            offset=offset, line=line, col=col, token_index=pos,
        ))

    def _live(self, acc: list) -> list[ParseError]:
        """``errors`` without those whose error rows were rolled back.  A
        failed alternative deletes the rows it appended to acc and leaves
        its errors, which are dropped here instead.  Rows are deleted from
        the end of acc, so those errors are the last ones."""
        rows = self._error_rows
        while rows:
            i, at, row = rows[-1]
            if at < len(acc) and acc[at] == row:
                break
            rows.pop()
            del self.errors[i:]
        return self.errors

    def _throw(self, label: str, pos: int, acc: list) -> int:
        if (label not in self._matcher.recovery_exprs or self.quiet
                or (label, pos) in self.guard):
            self.failure = (label, pos, False)
            return _THROWN
        if len(self._live(acc)) >= self.max_errors:
            self.failure = (label, pos, True)
            return _THROWN
        self.guard.add((label, pos))
        self._record(label, pos)
        recovery = self._matcher.recover(label)
        self.quiet += 1
        r = recovery(self, pos, [])
        self.quiet -= 1
        if r < 0:
            self.failure = (label, pos, True)
            return _THROWN
        expected = self.grammar.label_descriptions.get(label, label)
        if r > pos:
            # the recovery consumed tokens pos .. r-1
            span = (self._spans[pos][0], self._spans[r - 1][1])
        else:
            anchor = self.stream.start_offset(pos)
            span = (anchor, anchor)
        nodes = self.error_nodes
        matcher = self._matcher
        row = ~((len(nodes) << matcher.shift) | 2 * len(matcher.names))
        self._error_rows.append((len(self.errors) - 1, len(acc), row))
        acc.append(row)
        nodes.append(ErrorNode(label, expected, span))
        return r

    # -- entry points -----------------------------------------------------------

    def _run(self, body, pos: int) -> tuple[int, list[int]]:
        """Run the function body at token index pos from fresh state, and
        return its end or failure with the rows it appended.  Only the
        errors whose rows are kept are left in ``errors``.  A run out of
        stack fails with one fatal error at the farthest position reached,
        since the errors recorded so far may belong to alternatives that
        never finished."""
        self.errors: list[ParseError] = []
        # (index in errors, index in acc, row) of each error recorded with
        # an error row (``_live``)
        self._error_rows: list[tuple[int, int, int]] = []
        # what the error rows of acc point to (``Tree``); a row rolled back
        # leaves its node here unused
        self.error_nodes: list[ErrorNode] = []
        # the (label, position) pairs a recovery has run at
        self.guard: set[tuple[str, int]] = set()
        # the named failure a function returned _THROWN for
        self.failure: tuple[str, int, bool] | None = None
        # above 0 inside a predicate or a recovery, where a throw only fails
        self.quiet = 0
        self.farthest = 0
        acc: list[int] = []
        with nesting_guard():
            try:
                r = body(self, pos, acc)
            except RecursionError:
                self.errors = []
                self._record(FAIL, self.farthest, "input nested too deeply")
                self.failure = (FAIL, self.farthest, True)
                return _THROWN, acc
        self._live(acc)
        return r, acc

    def _tree(self, rows: list[int]) -> Tree:
        stream = self.stream
        return Tree(rows, stream.kinds, stream.spans, self._matcher.names,
                    self.error_nodes, stream.eof_offset())

    def parse(self) -> ParseOutcome:
        r, acc = self._run(self._matcher.start, 0)
        if r < 0:
            if r == _FAILED:
                label = FAIL
                self._record(FAIL, self.farthest, "unexpected input")
            else:
                label, pos, logged = self.failure
                if not logged:
                    self._record(label, pos)
            return ParseOutcome(status="failed", tree=None,
                                errors=self.errors, fail_label=label)
        if r < self._count:
            self._record(FAIL, r, "expected end of input")
        return ParseOutcome(status="matched", tree=self._tree(acc),
                            errors=self.errors, end=r)

    def match_expr(self, expr: Expr, pos: int = 0) -> MatchResult:
        """Match expr at token index pos.  An expr that refers to an
        undefined rule or token kind, or that ``validate`` would reject in
        a rule for another reason, is a GrammarError.  A negative pos is a
        ValueError."""
        if pos < 0:
            raise ValueError(f"negative token index {pos}")
        with nesting_guard("expression nested too deeply"):
            expr = desugar_expr(expr)
            check_expr(self.grammar, expr, "matched expression")
            body = self._matcher.compile_expr(expr)
        # a match past the end consumes nothing: it runs one past the last token
        at = min(pos, self._count + 1)
        r, acc = self._run(body, at)
        if at < pos:
            self.farthest = pos if self.farthest == at else self.farthest
            self.errors = [ParseError(**{**vars(e), "token_index": pos})
                           if e.token_index == at else e for e in self.errors]
        if r < 0:
            return MatchResult(status="failed", end=None,
                               fail_label=FAIL if r == _FAILED else self.failure[0],
                               errors=self.errors)
        return MatchResult(status="matched", end=r - at + pos,
                           errors=self.errors,
                           children=tuple(_json_nodes(self._tree(acc))))


def parse(grammar: Grammar, text: str,
          max_errors: int = DEFAULT_MAX_ERRORS,
          messages: dict[str, str] | None = None) -> ParseOutcome:
    """Parse text from the grammar's start rule."""
    return Session(grammar, text, max_errors=max_errors, messages=messages).parse()


def match(grammar: Grammar, expr: Expr, text: str, pos: int = 0,
          max_errors: int = DEFAULT_MAX_ERRORS) -> MatchResult:
    """Match one expression against text starting at token index pos.  A
    negative pos is a ValueError, as for ``Session.match_expr``."""
    return Session(grammar, text, max_errors=max_errors).match_expr(expr, pos)
