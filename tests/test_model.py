import pytest

from pegrec.dsl import parse_grammar
from pegrec.model import (
    Annotated,
    AnyToken,
    CharClass,
    Choice,
    Empty,
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
    desugar,
    desugar_expr,
    expr_eq,
    grammar_eq,
    is_lexical_name,
    render_expr,
    serialize_grammar,
    strip_labels,
    validate,
)

from helpers import random_grammar


def test_lexical_name_convention():
    assert is_lexical_name("NAME")
    assert is_lexical_name("LPAR")
    assert is_lexical_name("A_1")
    # single letters are syntactic even when uppercase
    assert not is_lexical_name("S")
    assert not is_lexical_name("If")
    assert not is_lexical_name("name")
    assert not is_lexical_name("_1")  # no alphabetic character


def test_desugar_removes_sugar():
    assert desugar_expr(Optional(Terminal("AA"))) == Choice(Terminal("AA"), Empty())
    assert desugar_expr(Plus(Terminal("AA"))) == Sequence(
        Terminal("AA"), Star(Terminal("AA")))
    assert desugar_expr(Annotated(Terminal("AA"), "lab")) == Choice(
        Terminal("AA"), Throw("lab"))
    from pegrec.model import And
    assert desugar_expr(And(Terminal("AA"))) == Not(Not(Terminal("AA")))


def test_expr_eq_annotation_sugar():
    assert expr_eq(
        Annotated(Terminal("AA"), "l"),
        Choice(Terminal("AA"), Throw("l")),
    )
    assert not expr_eq(
        Annotated(Terminal("AA"), "l"),
        Choice(Terminal("AA"), Throw("other")),
    )


def test_render_round_trip_shapes():
    cases = [
        "AA BB / CC",
        "(AA / BB) CC",
        "!AA BB*",
        "AA (BB CC)",
        "[AA BB]^boom / CC",
        "AA ^boom BB",
        "''",
        ". .",
    ]
    for text in cases:
        g = parse_grammar(f"start <- {text} ;\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")
        body = g.rules["start"]
        rendered = render_expr(body)
        g2 = parse_grammar(
            f"start <- {rendered} ;\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")
        assert expr_eq(body, g2.rules["start"]), (text, rendered)


def test_serialize_round_trips_grammar(tiny_java):
    text = serialize_grammar(tiny_java)
    again = parse_grammar(text)
    assert grammar_eq(tiny_java, again)


def test_serialize_round_trips_random_grammars():
    for seed in range(50):
        g = random_grammar(seed)
        assert grammar_eq(parse_grammar(serialize_grammar(g)), g), seed


def test_validate_rejects_undefined_rule():
    with pytest.raises(GrammarError, match="undefined"):
        parse_grammar("start <- Other ;")


def test_validate_rejects_undefined_token():
    with pytest.raises(GrammarError, match="undefined token"):
        parse_grammar("start <- MISSING ;")


def test_validate_rejects_duplicate_rule():
    with pytest.raises(GrammarError, match="duplicate"):
        parse_grammar("start <- AA ;\nstart <- AA ;\nAA <- 'a' ;")


def test_validate_rejects_left_recursion():
    with pytest.raises(GrammarError, match="left recursion"):
        parse_grammar("start <- start 'a' / 'a' ;")


def test_validate_rejects_hidden_left_recursion():
    # the nullable prefix lets the recursion happen with no input consumed
    with pytest.raises(GrammarError, match="left recursion"):
        parse_grammar("start <- 'a'* start ;")


def test_validate_rejects_reserved_label():
    with pytest.raises(GrammarError, match="reserved"):
        parse_grammar("start <- 'a' ^fail ;")


def test_validate_rejects_recovery_for_unknown_label():
    with pytest.raises(GrammarError, match="undeclared label"):
        parse_grammar("start <- 'a' ;\n%recovery\nboom <- . ;")


def test_validate_rejects_labels_in_lexical_rules():
    with pytest.raises(GrammarError, match="not allowed in lexical"):
        parse_grammar("start <- AA ;\nAA <- 'a' ^boom ;")


@pytest.mark.parametrize("build, message", [
    (lambda: parse_grammar("start <- AA ;\nAA <- 'a' ^x ;"),
     "labels are not allowed in lexical rule AA"),
    (lambda: validate(Grammar({"start": Literal("a")}, {}, "start")),
     "character-level pattern in syntactic rule start"),
    (lambda: validate(Grammar({"start": CharClass((("a", "z"),))}, {}, "start")),
     "character-level pattern in syntactic rule start"),
    (lambda: validate(Grammar({"start": Terminal("AA")},
                              {"AA": Terminal("BB"), "BB": Literal("b")}, "start")),
     "token reference in lexical rule AA"),
    (lambda: validate(Grammar({"start": Terminal("AA")},
                              {"AA": NonTerminal("start")}, "start")),
     "lexical rule AA references 'start', which is not a lexical rule"),
    (lambda: validate(Grammar({"start": Annotated(Terminal("AA"), "fail")},
                              {"AA": Literal("a")}, "start")),
     "label 'fail' is reserved"),
    # the grammar text tells the two kinds of rule apart by name alone
    (lambda: validate(Grammar({"R0": Terminal("AA")}, {"AA": Literal("a")}, "R0")),
     "syntactic rule 'R0' has an ALL-CAPS"),
    (lambda: validate(Grammar({"start": Terminal("aa")}, {"aa": Literal("a")}, "start")),
     "lexical rule 'aa' needs an ALL-CAPS name"),
    # a reference to EOF matches end of input, so such a rule could never
    # match, and its tokens would look like the end to the matcher
    (lambda: parse_grammar("start <- EOF AA / AA ;\nEOF <- 'x' ;\nAA <- 'a' ;"),
     "token kind 'EOF' is reserved for end of input"),
])
def test_validate_rejects(build, message):
    with pytest.raises(GrammarError, match=message):
        build()


def test_validate_collects_labels_and_messages():
    g = parse_grammar("start <- AA [BB]^miss ;\nAA <- 'a' ;\nBB <- 'b' ;")
    assert g.labels == {"miss"}
    assert g.messages["miss"] == "expected BB"
    assert g.label_descriptions["miss"] == "BB"


def test_strip_labels_removes_annotations_and_recovery():
    g = parse_grammar(
        "start <- AA [BB]^miss ;\nAA <- 'a' ;\nBB <- 'b' ;\n"
        "%recovery\nmiss <- (!BB .)* ;")
    bare = strip_labels(g)
    assert bare.labels == set()
    assert bare.recovery == {}
    assert expr_eq(bare.rules["start"], Sequence(Terminal("AA"), Terminal("BB")))

    abc = "\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;"
    wrapped = parse_grammar(
        "start <- ![AA]^a &[BB]^b [AA]^c? [BB]^d+ [CC]^e* CC ;" + abc)
    assert wrapped.labels == {"a", "b", "c", "d", "e"}
    bare = strip_labels(wrapped)
    assert bare.labels == set()
    assert bare.rules["start"] == parse_grammar(
        "start <- !AA &BB AA? BB+ CC* CC ;" + abc).rules["start"]


def test_desugar_is_idempotent(tiny_java):
    d1 = desugar(tiny_java)
    d2 = desugar(d1)
    assert d2 is d1


def test_grammar_eq_ignores_messages(tiny_java_labeled):
    other = parse_grammar(serialize_grammar(tiny_java_labeled))
    other.messages["rpw"] = "changed"
    assert grammar_eq(tiny_java_labeled, other)


def test_grammar_eq_sees_rule_changes(tiny_java):
    other = parse_grammar(serialize_grammar(tiny_java))
    other.rules["Exp"] = Terminal("NUMBER")
    assert not grammar_eq(tiny_java, other)


def test_literal_kinds_collected_in_order():
    g = parse_grammar("start <- 'x' 'y' 'x' ;")
    assert g.literal_kinds == ("'x'", "'y'")


def test_empty_literal_is_empty_expression():
    g = parse_grammar("start <- 'a' / '' ;")
    assert expr_eq(g.rules["start"], Choice(Terminal("'a'"), Empty()))
