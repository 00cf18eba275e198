"""FIRST and FOLLOW set computation over the token alphabet.

FIRST(p) is the set of token kinds that can begin a successful match of p,
plus an epsilon marker when p can succeed consuming nothing.  FOLLOW(A) is
the set of kinds that can appear immediately after a complete match of a
syntactic rule A, seeded with EOF for the start rule.  Both are least fixed
points.  Conventions:

  - FIRST(throw l) is empty: a throw never begins a match.
  - FIRST(!p) = FIRST(&p) = {epsilon}: predicates consume nothing.
  - FIRST(.) is every declared kind.  "." also accepts stray-character
    tokens outside the alphabet, so this is the declared approximation.
  - Predicate bodies contribute nothing to FOLLOW.
  - FOLLOW sets never contain epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    And,
    AnyToken,
    Choice,
    Empty,
    EOF_KIND,
    Expr,
    Grammar,
    NonTerminal,
    Not,
    Optional,
    Plus,
    Sequence,
    Star,
    Terminal,
    Throw,
    checked,
    rule_fixpoint,
)


@dataclass(frozen=True)
class TokenSet:
    """A set of token kinds plus an epsilon flag."""

    kinds: frozenset[str]
    has_epsilon: bool = False

    def union(self, other: "TokenSet") -> "TokenSet":
        return TokenSet(self.kinds | other.kinds, self.has_epsilon or other.has_epsilon)

    def without_epsilon(self) -> "TokenSet":
        return TokenSet(self.kinds, False)

    def with_epsilon(self) -> "TokenSet":
        return TokenSet(self.kinds, True)

    def disjoint(self, other: "TokenSet") -> bool:
        return not (self.kinds & other.kinds)

    def __contains__(self, kind: str) -> bool:
        return kind in self.kinds

    def __iter__(self):
        return iter(self.kinds)

    def __bool__(self) -> bool:
        return bool(self.kinds) or self.has_epsilon


EMPTY_SET = TokenSet(frozenset())
EPSILON_ONLY = TokenSet(frozenset(), True)


class Analysis:
    """FIRST/FOLLOW tables for one grammar.

    Works on sugared or desugared grammars; one built by hand is validated
    here on first use.  Token kinds are the lexical rule names plus the
    anonymous literal kinds; EOF is tracked as the epsilon-like pseudo-kind
    of the Terminal("EOF") expression, not as a member of the alphabet.

    The per-rule FIRST sets are computed when the Analysis is built.  From
    then on ``first_of`` remembers its result for each expression node it
    is given, so FOLLOW, the annotator and the matcher's guards compute
    FIRST of a subtree once.  The memo is keyed by ``id`` and keeps the
    node alive with its value, so no other node can take over the id while
    the Analysis lives; it is not keyed by the node itself, whose frozen
    dataclass hash and equality walk the whole subtree.  The FOLLOW
    fixpoint runs on the first ``follow_of`` call, so a user of FIRST sets
    alone never pays for it.
    """

    def __init__(self, grammar: Grammar):
        self.grammar = checked(grammar)
        kinds = grammar.token_kinds()
        self.all_kinds = frozenset(kinds)
        self._kind_order = {k: i for i, k in enumerate(kinds)}
        # id(node) -> (node, FIRST(node)); off while the rule sets still grow
        self._memo: dict[int, tuple[Expr, TokenSet]] | None = None
        self._first = rule_fixpoint(grammar.rules, self._first_step, EMPTY_SET)
        self._memo = {}
        self._follow: dict[str, TokenSet] | None = None

    # -- FIRST ---------------------------------------------------------------

    def first_of(self, e: Expr) -> TokenSet:
        memo = self._memo
        if memo is not None:
            hit = memo.get(id(e))
            if hit is not None:
                return hit[1]
        cls = e.__class__
        if cls is Terminal:
            # EOF matches only at end of input, consuming nothing
            f = EPSILON_ONLY if e.kind == EOF_KIND else TokenSet(frozenset((e.kind,)))
        elif cls is NonTerminal:
            f = self._first[e.name]
        elif cls is Sequence:
            f = self.first_of(e.left)
            if f.has_epsilon:
                f = f.without_epsilon().union(self.first_of(e.right))
        elif cls is Choice:
            f = self.first_of(e.first).union(self.first_of(e.second))
        elif cls is Star or cls is Optional:
            f = self.first_of(e.body).with_epsilon()
        elif cls is Plus:
            f = self.first_of(e.body)
        elif cls is Empty or cls is Not or cls is And:
            f = EPSILON_ONLY
        elif cls is Throw:
            f = EMPTY_SET
        elif cls is AnyToken:
            f = TokenSet(self.all_kinds)
        else:
            raise TypeError(f"no FIRST for {e!r}")
        if memo is not None:
            memo[id(e)] = (e, f)
        return f

    def _first_step(self, body: Expr, table: dict[str, TokenSet]) -> TokenSet:
        # first_of reads rule sets from self._first: the growing table
        self._first = table
        return self.first_of(body)

    # -- FOLLOW --------------------------------------------------------------

    def calck(self, e: Expr, flw: TokenSet) -> TokenSet:
        """Kinds that can follow the current point when e then flw remain:
        FIRST(e) if e is not nullable, else (FIRST(e) minus epsilon) with flw."""
        f = self.first_of(e)
        if not f.has_epsilon:
            return f
        return f.without_epsilon().union(flw.without_epsilon())

    def _compute_follow(self) -> None:
        g = self.grammar
        self._follow = {n: EMPTY_SET for n in g.rules}
        self._follow[g.start] = TokenSet(frozenset((EOF_KIND,)))

        def visit(e: Expr, flw: TokenSet) -> None:
            cls = e.__class__
            if cls is NonTerminal:
                merged = self._follow[e.name].union(flw.without_epsilon())
                if merged != self._follow[e.name]:
                    self._follow[e.name] = merged
                    self._dirty = True
            elif cls is Sequence:
                visit(e.left, self.calck(e.right, flw))
                visit(e.right, flw)
            elif cls is Choice:
                visit(e.first, flw)
                visit(e.second, flw)
            elif cls is Star or cls is Plus:
                inner = self.first_of(e.body).without_epsilon().union(flw.without_epsilon())
                visit(e.body, inner)
            elif cls is Optional:
                visit(e.body, flw)
            # Not, And: predicates consume nothing; their bodies follow nothing

        self._dirty = True
        while self._dirty:
            self._dirty = False
            for name, body in g.rules.items():
                visit(body, self._follow[name])

    def follow_of(self, rule: str) -> TokenSet:
        if self._follow is None:
            self._compute_follow()
        return self._follow[rule]

    def first_of_rule(self, rule: str) -> TokenSet:
        return self._first[rule]

    # -- display -------------------------------------------------------------

    def ordered_kinds(self, ts: TokenSet) -> list[str]:
        """The kinds of ts in declaration order, EOF last.  Epsilon is left
        out; each caller spells it its own way."""
        order = self._kind_order
        return sorted(ts.kinds,
                      key=lambda k: (k == EOF_KIND, order.get(k, len(order)), k))

    def format_set(self, ts: TokenSet) -> str:
        """Declaration-order rendering; epsilon prints last."""
        parts = self.ordered_kinds(ts)
        if ts.has_epsilon:
            parts.append("''")
        return "{ " + ", ".join(parts) + " }" if parts else "{ }"
