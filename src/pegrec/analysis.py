"""FIRST and FOLLOW set computation over the token alphabet.

FIRST(p) is the set of token kinds that can begin a successful match of p,
plus an epsilon marker when p can succeed consuming nothing.  FOLLOW(A) is
the set of kinds that can appear immediately after a complete match of a
syntactic rule A, seeded with EOF for the start rule.  Both are least fixed
points.  FIRST is a ``model.First`` over the token kinds.  FOLLOW is a
``model.rule_fixpoint`` over call sites: one walk of each rule body lists
every rule it calls with the kinds that can come after the call.
``TokenSet`` is re-exported from ``model``.  Conventions:

  - FIRST(throw l) is empty: a throw never begins a match.
  - FIRST(!p) = FIRST(&p) = {epsilon}: predicates consume nothing.
  - FIRST(.) is every declared kind.  "." also accepts stray-character
    tokens outside the alphabet, so this is the declared approximation.
  - Predicate bodies contribute nothing to FOLLOW.
  - FOLLOW sets never contain epsilon.
"""

from __future__ import annotations

from .model import (
    And,
    AnyToken,
    Choice,
    Empty,
    EMPTY_SET,
    EOF_KIND,
    EPSILON_ONLY,
    Expr,
    First,
    Grammar,
    GrammarError,
    NonTerminal,
    Not,
    Optional,
    Plus,
    Sequence,
    Star,
    Terminal,
    Throw,
    TokenSet,
    checked,
    nesting_guard,
    plus_operand,
    rule_fixpoint,
)


class Analysis:
    """FIRST/FOLLOW tables for one grammar.

    Works on sugared or desugared grammars; one built by hand is validated
    here on first use.  Token kinds are the lexical rule names plus the
    anonymous literal kinds; EOF is tracked as the epsilon-like pseudo-kind
    of the Terminal("EOF") expression, not as a member of the alphabet.

    ``first_of`` is a ``model.First`` over the token kinds: the per-rule
    FIRST sets are computed when the Analysis is built, and from then on
    it remembers its result for each expression node it is given, so
    FOLLOW and the annotator compute FIRST of a subtree once.  The FOLLOW
    fixpoint runs on the first ``follow_of`` call, so a user of FIRST sets
    alone never pays for it.
    """

    def __init__(self, grammar: Grammar):
        self.grammar = checked(grammar)
        kinds = grammar.token_kinds()
        self.all_kinds = frozenset(kinds)
        self._kind_order = {k: i for i, k in enumerate(kinds)}
        self._any = TokenSet(self.all_kinds)
        # kind -> the set of that kind alone, built once
        self._kind_sets: dict[str, TokenSet] = {}
        with nesting_guard():
            self.first_of = First(grammar.rules, self._leaf)
        self._follow: dict[str, TokenSet] | None = None

    # -- FIRST ---------------------------------------------------------------

    def _leaf(self, e: Expr) -> TokenSet:
        cls = e.__class__
        if cls is Terminal:
            kind = e.kind
            if kind == EOF_KIND:
                return EPSILON_ONLY
            found = self._kind_sets.get(kind)
            if found is None:
                found = self._kind_sets[kind] = TokenSet(frozenset((kind,)))
            return found
        if cls is Empty or cls is Not or cls is And:
            return EPSILON_ONLY
        if cls is Throw:
            return EMPTY_SET
        if cls is AnyToken:
            return self._any
        raise TypeError(f"no FIRST for {e!r}")

    # -- FOLLOW --------------------------------------------------------------

    def calck(self, e: Expr, flw: TokenSet) -> TokenSet:
        """Kinds that can follow the current point when e then flw remain:
        FIRST(e) if e is not nullable, else (FIRST(e) minus epsilon) with
        flw, epsilon included."""
        f = self.first_of(e)
        if not f.has_epsilon:
            return f
        return f.without_epsilon().union(flw)

    def _compute_follow(self) -> None:
        """One walk per rule body lists each rule's call sites as (caller,
        kinds after the call), epsilon meaning that the caller's own FOLLOW
        comes after it too; ``rule_fixpoint`` then solves the lists."""
        g = self.grammar
        calck, first = self.calck, self.first_of
        sites: dict[str, list] = {name: [] for name in g.rules}
        sites[g.start].append((None, TokenSet(frozenset((EOF_KIND,)))))
        for caller, body in g.rules.items():
            stack = [(body, EPSILON_ONLY)]
            while stack:
                e, flw = stack.pop()
                cls = e.__class__
                if cls is NonTerminal:
                    sites[e.name].append((caller, flw))
                elif cls is Sequence:
                    # the p of p p* is followed by what its star body is
                    if plus_operand(e) is None:
                        stack.append((e.left, calck(e.right, flw)))
                    stack.append((e.right, flw))
                elif cls is Choice:
                    stack.append((e.first, flw))
                    stack.append((e.second, flw))
                elif cls is Star or cls is Plus:
                    stack.append((e.body, first(e.body).without_epsilon().union(flw)))
                elif cls is Optional:
                    stack.append((e.body, flw))
                # Not, And: predicates consume nothing; their bodies follow nothing

        def follow(calls: list, table: dict[str, set]) -> set:
            kinds = set()
            for caller, flw in calls:
                kinds |= flw.kinds
                if flw.has_epsilon:
                    kinds |= table[caller]
            return kinds
        # the rounds compare plain sets; each rule's TokenSet is built once
        self._follow = {name: TokenSet(frozenset(kinds))
                        for name, kinds in rule_fixpoint(sites, follow, set()).items()}

    def follow_of(self, rule: str) -> TokenSet:
        """FOLLOW(rule); an unknown rule, or a grammar nested too deeply
        for the FIRST sets FOLLOW reads, is a GrammarError."""
        if rule not in self.grammar.rules:
            raise GrammarError(f"unknown rule '{rule}'")
        if self._follow is None:
            with nesting_guard():
                self._compute_follow()
        return self._follow[rule]

    def first_of_rule(self, rule: str) -> TokenSet:
        if rule not in self.grammar.rules:
            raise GrammarError(f"unknown rule '{rule}'")
        return self.first_of.rules[rule]

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
