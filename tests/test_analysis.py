from pegrec.analysis import Analysis, TokenSet
from pegrec.annotate import annotate
from pegrec.dsl import parse_grammar
from pegrec.engine import match
from pegrec.model import desugar, nullable_map

from helpers import all_inputs, naive_match, random_grammar, render_input


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
    # the engine's token dispatch takes FIRST sets from Analysis and
    # nullability from nullable_map, so the two must agree
    grammars = [tiny_java, tiny_java_labeled, tiny_java_annotated_file]
    for seed in range(50):
        grammars += [random_grammar(seed), annotate(random_grammar(seed))[0]]
    for g in grammars:
        for form in (g, desugar(g)):
            a = Analysis(form)
            nullable = nullable_map(form.rules)
            for rule in form.rules:
                assert a.first_of_rule(rule).has_epsilon == nullable[rule], rule
