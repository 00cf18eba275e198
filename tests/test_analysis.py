import copy
import random
import sys

import pytest

from pegrec import engine, lexer
from pegrec.analysis import Analysis, TokenSet
from pegrec.annotate import annotate
from pegrec.dsl import parse_grammar
from pegrec.engine import Session, _Matcher, match
from pegrec.model import (
    Choice,
    First,
    Grammar,
    GrammarError,
    Literal,
    Optional,
    Sequence,
    Star,
    Terminal,
    _walk,
    desugar,
    strip_labels,
)

from helpers import (
    ALPHABET,
    all_inputs,
    count_first_calls,
    naive_match,
    nullable_rules,
    random_grammar,
    reference_first,
    reference_first_of,
    reference_follow,
    reference_guard,
    render_input,
)


def kinds(ts: TokenSet) -> set[str]:
    return set(ts.kinds)


def test_first_sets_tiny_java(tiny_java):
    a = Analysis(tiny_java)
    assert kinds(a.first_of_rule("Prog")) == {"PUBLIC"}
    assert kinds(a.first_of_rule("Stmt")) == {
        "IF", "WHILE", "PRINTLN", "INT", "NAME", "LCUR"}
    for rule in ("Exp", "RelExp", "AddExp", "MulExp", "AtomExp"):
        assert kinds(a.first_of_rule(rule)) == {"LPAR", "NUMBER", "NAME"}
    assert not a.first_of_rule("Stmt").has_epsilon


def test_follow_sets_tiny_java(tiny_java):
    a = Analysis(tiny_java)
    stmt_follow = {"IF", "ELSE", "WHILE", "PRINTLN", "INT", "LCUR", "RCUR", "NAME"}
    for rule in ("Stmt", "IfStmt", "WhileStmt", "DecStmt", "AssignStmt",
                 "PrintStmt", "BlockStmt"):
        assert kinds(a.follow_of(rule)) == stmt_follow, rule
    assert kinds(a.follow_of("Prog")) == {"EOF"}
    assert kinds(a.follow_of("Exp")) == {"RPAR", "SEMI"}
    assert kinds(a.follow_of("RelExp")) == {"EQ", "RPAR", "SEMI"}
    assert kinds(a.follow_of("AddExp")) == {"LT", "EQ", "RPAR", "SEMI"}
    assert kinds(a.follow_of("MulExp")) == {"PLUS", "MINUS", "LT", "EQ",
                                            "RPAR", "SEMI"}
    assert kinds(a.follow_of("AtomExp")) == {"TIMES", "DIV", "PLUS", "MINUS",
                                             "LT", "EQ", "RPAR", "SEMI"}


def test_equality_operator_is_not_in_follow_of_exp(tiny_java):
    # EQ can follow RelExp but never a complete Exp, which is what makes
    # the comparison tail annotatable
    a = Analysis(tiny_java)
    assert "EQ" not in a.follow_of("Exp")
    assert "EQ" in a.follow_of("RelExp")


def test_follow_never_contains_epsilon(tiny_java):
    a = Analysis(tiny_java)
    for rule in tiny_java.rules:
        assert not a.follow_of(rule).has_epsilon


def test_predicate_first_is_epsilon():
    g = parse_grammar("start <- !AA BB ;\nAA <- 'a' ;\nBB <- 'b' ;")
    a = Analysis(g)
    assert kinds(a.first_of_rule("start")) == {"BB"}


def test_throw_contributes_nothing_to_first():
    g = parse_grammar("start <- AA / ^boom ;\nAA <- 'a' ;")
    a = Analysis(g)
    assert kinds(a.first_of_rule("start")) == {"AA"}
    assert not a.first_of_rule("start").has_epsilon


def test_star_body_follow_includes_its_own_first():
    g = parse_grammar("start <- Item* CC ;\nItem <- AA BB ;" +
                      "\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")
    a = Analysis(g)
    assert kinds(a.follow_of("Item")) == {"AA", "CC"}


def test_predicate_body_gets_no_follow():
    g = parse_grammar("start <- !Item CC Item BB ;\nItem <- AA ;" +
                      "\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")
    a = Analysis(g)
    # only the real occurrence contributes
    assert kinds(a.follow_of("Item")) == {"BB"}


@pytest.mark.parametrize("method", ["first_of_rule", "follow_of"])
def test_an_unknown_rule_is_a_grammar_error(method):
    a = Analysis(parse_grammar("start <- AA ;\nAA <- 'a' ;"))
    with pytest.raises(GrammarError, match="^unknown rule 'Nope'$"):
        getattr(a, method)("Nope")
    # a lexical rule is no rule of FIRST or FOLLOW either
    with pytest.raises(GrammarError, match="^unknown rule 'AA'$"):
        getattr(a, method)("AA")


def test_calck_uses_follow_only_when_nullable():
    g = parse_grammar("start <- AA BB* CC ;\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")
    a = Analysis(g)
    body = g.rules["start"]
    tail = body.right  # CC
    star = body.left.right  # BB*
    flw = a.follow_of("start")
    assert kinds(a.calck(tail, flw)) == {"CC"}
    assert kinds(a.calck(star, a.calck(tail, flw))) == {"BB", "CC"}


def test_first_soundness_against_brute_force():
    """Any input an expression consumes at least one token of must start
    with a kind in its FIRST set; consuming nothing requires epsilon."""
    for seed in range(30):
        g = random_grammar(seed)
        gd = desugar(g)
        a = Analysis(gd)
        first = a.first_of_rule(gd.start)
        body = gd.rules[gd.start]
        for seq in all_inputs(4):
            end = naive_match(gd.rules, body, seq, 0)
            if end is None:
                continue
            if end > 0:
                assert seq[0] in first, (seed, seq)
            else:
                assert first.has_epsilon, (seed, seq)


def test_format_set_uses_declaration_order(tiny_java):
    a = Analysis(tiny_java)
    text = a.format_set(a.follow_of("AtomExp"))
    assert text == "{ RPAR, EQ, LT, PLUS, MINUS, TIMES, DIV, SEMI }"


def test_first_epsilon_agrees_with_nullable_map(tiny_java, tiny_java_labeled,
                                                tiny_java_annotated_file):
    grammars = [tiny_java, tiny_java_labeled, tiny_java_annotated_file]
    for seed in range(50):
        grammars += [random_grammar(seed), annotate(random_grammar(seed))[0]]
    for g in grammars:
        for form in (g, desugar(g)):
            a = Analysis(form)
            nullable = nullable_rules(form.rules)
            for rule in form.rules:
                assert a.first_of_rule(rule).has_epsilon == nullable[rule], rule


# --- the FIRST memo and lazy FOLLOW ------------------------------------------

class _Forgetful(dict):
    """A memo that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def unmemoized(a: Analysis) -> Analysis:
    """A copy of a that computes every FIRST set from scratch and FOLLOW
    at once, as an Analysis without the memo did: its FIRST walk reuses
    no set it computed before."""
    fresh = copy.copy(a)
    fresh.first_of = copy.copy(a.first_of)
    fresh.first_of._memo = _Forgetful()
    fresh._compute_follow()
    return fresh


def all_grammars(*bundled):
    grammars = list(bundled)
    for seed in range(50):
        grammars += [random_grammar(seed), annotate(random_grammar(seed))[0]]
    for g in grammars:
        yield g
        yield desugar(g)


def test_memoized_first_agrees_with_a_fresh_computation(
        tiny_java, tiny_java_labeled, tiny_java_annotated_file):
    bundled = (tiny_java, tiny_java_labeled, tiny_java_annotated_file)
    for g in all_grammars(*bundled, *(annotate(b)[0] for b in bundled)):
        a = Analysis(g)
        fresh = unmemoized(a)
        bodies = [*g.rules.values(), *g.recovery.values()]
        # twice: the second pass reads every set from the memo
        for _ in range(2):
            for body in bodies:
                for e in _walk(body):
                    assert a.first_of(e) == fresh.first_of(e), e
        for rule in g.rules:
            assert a.follow_of(rule) == fresh.follow_of(rule), rule


def test_first_agrees_with_the_reference_fixpoint(monkeypatch, tiny_java, tiny_java_labeled,
                                                  tiny_java_annotated_file):
    # each rule's FIRST is computed once, callees first; the reference
    # computes every body again until a round changes nothing
    grammars = [tiny_java, tiny_java_labeled, tiny_java_annotated_file]
    grammars += [random_grammar(seed) for seed in range(200)]
    asked = []
    real = First.__call__

    def recording(self, e):
        f = real(self, e)
        if isinstance(getattr(self.leaf, "__self__", None), Analysis):
            asked.append((e, f))
        return f
    rules = nodes = 0
    for g in grammars:
        d = desugar(g)
        for form in (g, d):
            want = reference_first(form.rules, Analysis(form)._leaf)
            assert Analysis(form).first_of.rules == want
            rules += len(want)
        assert _Matcher(d).first.rules == reference_first(d.rules, engine._guard_leaf)
        chars = lexer._lexer(d)
        assert chars._first == reference_first(chars._rules, lexer._first_chars)
        # every node annotate asks about, on the grammar it annotates
        stripped = strip_labels(d)
        leaf = Analysis(stripped)._leaf
        want = reference_first(stripped.rules, leaf)
        monkeypatch.setattr(First, "__call__", recording)
        annotate(g)
        monkeypatch.undo()
        for e, f in asked:
            assert f == reference_first_of(e, want, leaf), e
        nodes += len(asked)
        asked.clear()
    assert rules > 1000 and nodes > 2000


def test_first_memo_outlives_dropped_expressions():
    # an id freed by a dropped expression is free for the next one built,
    # so the memo must keep its nodes alive
    a = Analysis(random_grammar(3))
    fresh = unmemoized(a)
    rng = random.Random(0)
    for _ in range(3000):
        x, y = rng.choice(ALPHABET), rng.choice(ALPHABET)
        e = rng.choice((Sequence, Choice))(rng.choice((Terminal(x), Star(Terminal(x)))),
                                           Terminal(y))
        assert a.first_of(e) == fresh.first_of(e)
        del e


def test_follow_is_computed_on_first_use(monkeypatch, tiny_java):
    runs = []
    real = Analysis._compute_follow
    monkeypatch.setattr(Analysis, "_compute_follow",
                        lambda self: runs.append(self) or real(self))
    a = Analysis(tiny_java)
    a.first_of(tiny_java.rules["Prog"])
    assert runs == []
    assert kinds(a.follow_of("Prog")) == {"EOF"}
    a.follow_of("Exp")
    assert runs == [a]


def test_compiling_a_matcher_runs_no_follow_fixpoint(monkeypatch, grammar_dir):
    text = (grammar_dir / "tiny_java_annotated.peg").read_text(encoding="utf-8")
    # annotating needs FOLLOW; compiling and parsing must not
    annotated = [annotate(random_grammar(seed))[0] for seed in range(10)]

    def no_follow(self):
        raise AssertionError("FOLLOW computed")
    monkeypatch.setattr(Analysis, "_compute_follow", no_follow)
    g = parse_grammar(text)
    _Matcher(desugar(g))
    outcome = Session(g, "public class A { public static void main "
                         "( String [ ] a ) { x = 1 ; } }").parse()
    assert outcome.status == "matched" and not outcome.errors
    for g in annotated:
        _Matcher(desugar(g))


# --- FOLLOW over call sites --------------------------------------------------

def test_follow_agrees_with_the_reference(tiny_java, tiny_java_labeled,
                                          tiny_java_annotated_file):
    grammars = [tiny_java, tiny_java_labeled, tiny_java_annotated_file]
    grammars += [random_grammar(seed) for seed in range(400)]
    grammars += [random_grammar(seed, max_rules=10, depth=5)
                 for seed in range(1000, 1200)]
    # random grammars hold no ? or +, which FOLLOW walks before desugaring
    abc = "AA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;\n%start start ;\n"
    grammars += [parse_grammar(abc + text) for text in (
        "start <- (Item BB)+ Tail? CC ;\nItem <- AA Tail? ;\nTail <- BB / CC ;",
        "start <- Item? Item+ &Tail Tail ;\nItem <- AA (Tail BB)? ;\nTail <- CC+ ;",
    )]
    compared = 0
    for g in grammars:
        for form in (g, desugar(g), annotate(g)[0]):
            a = Analysis(form)
            want = reference_follow(a)
            for rule in form.rules:
                assert a.follow_of(rule) == want[rule], rule
                compared += 1
    assert compared > 6000


def test_follow_is_linear_in_nested_plus_depth(monkeypatch):
    # p+ desugars to p p*, which share p; FOLLOW once walked p twice per
    # level, and so 2^depth times in all
    def calls(depth: int) -> int:
        g = desugar(parse_grammar("start <- " + "(" * depth + "AA" + ")+" * depth
                                  + " ;\nAA <- 'a' ;"))
        a = Analysis(g)
        counted = count_first_calls(monkeypatch)
        assert kinds(a.follow_of("start")) == {"EOF"}
        monkeypatch.undo()
        return len(counted)
    assert calls(16) <= 2 * calls(8) + 50


def test_follow_of_a_deep_hand_built_grammar_returns():
    # Analysis accepts a grammar this deep; FOLLOW once recursed twice
    # per level and raised RecursionError
    e = Terminal("AA")
    for _ in range(900):
        e = Sequence(Terminal("AA"), Optional(e))
    g = Grammar(rules={"start": e}, lexical={"AA": Literal("a")}, start="start")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a = Analysis(g)
        follow = a.follow_of("start")
    finally:
        sys.setrecursionlimit(limit)
    assert kinds(follow) == {"EOF"}


def test_follow_of_a_grammar_too_deep_for_first_is_a_grammar_error():
    # Analysis reads FIRST of the rule bodies only; FOLLOW asks FIRST of
    # every right-hand side, which recursed past the limit as a raw
    # RecursionError.  The chain is deeper than the stack budget of
    # pegrec's calls (model.STACK_BUDGET), so only a caller whose own limit
    # is higher gets its FOLLOW
    e = Terminal("BB")
    for _ in range(25000):
        e = Sequence(Optional(Terminal("BB")), e)
    g = Grammar(rules={"start": Sequence(Terminal("AA"), e)},
                lexical={"AA": Literal("a"), "BB": Literal("b")}, start="start")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a = Analysis(g)
        with pytest.raises(GrammarError, match="^grammar nested too deeply$"):
            a.follow_of("start")
        sys.setrecursionlimit(30000)
        assert kinds(Analysis(g).follow_of("start")) == {"EOF"}
        assert sys.getrecursionlimit() == 30000
    finally:
        sys.setrecursionlimit(limit)


# --- the guards' FIRST sets ----------------------------------------------------

def test_matching_an_expression_adds_nothing_to_the_first_memo():
    # the FIRST memo once kept every node of every expression matched
    g = random_grammar(3)
    k = g.token_kinds()[0]

    def memo_size(calls: int) -> int:
        for _ in range(calls):
            match(g, Choice(Star(Terminal(k)), Terminal(k)), "")
        return len(desugar(g)._matcher.first._memo)
    assert memo_size(1) == memo_size(2000)


def test_guards_agree_with_the_reference(tiny_java, tiny_java_labeled,
                                         tiny_java_annotated_file):
    grammars = [tiny_java, tiny_java_labeled, tiny_java_annotated_file]
    for seed in range(200):
        grammars += [random_grammar(seed), annotate(random_grammar(seed))[0]]
    guarded = 0
    for g in grammars:
        d = desugar(g)
        matcher = _Matcher(d)
        first = Analysis(d).first_of
        want = reference_guard(d.rules, lambda e: first(e).kinds)
        for body in [*d.rules.values(), *d.recovery.values()]:
            for e in _walk(body):
                got = matcher.guard(e)
                assert got == want(e), e
                guarded += got is not None
    assert guarded > 1000


def test_first_sets_are_linear_in_nested_nullable_plus_depth():
    # p+ desugars to p p*, which share p; with a nullable p, the rule sets
    # once walked p twice per level while they grew
    def calls(build, depth: int) -> int:
        g = desugar(parse_grammar("start <- " + "(" * depth + "AA?" + ")+" * depth
                                  + " ;\nAA <- 'a' ;"))
        n = 0

        def count(frame, event, arg):
            nonlocal n
            n += event == "call"
        sys.setprofile(count)
        try:
            build(g)
        finally:
            sys.setprofile(None)
        return n
    for build in (Analysis, _Matcher):
        assert calls(build, 16) <= 2 * calls(build, 8) + 50, build
