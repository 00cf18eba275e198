import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pegrec import model
from pegrec.analysis import Analysis
from pegrec.annotate import AnnotatorConfig, annotate
from pegrec.dsl import load_grammar, parse_grammar
from pegrec.diagnostics import load_messages
from pegrec.engine import Session, match, parse, tree_to_json
from pegrec.evaluate import load_corpus, run_corpus
from pegrec.lexer import TokenStream
from pegrec.model import (
    Annotated,
    And,
    AnyToken,
    CharClass,
    Choice,
    Empty,
    Expr,
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
    grammar_eq,
    is_lexical_name,
    render_expr,
    serialize_grammar,
    strip_labels,
    validate,
)

from helpers import (
    check_left_recursion,
    count_first_calls,
    random_grammar,
    reference_first,
    run_fresh,
)


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
    assert (
        Annotated(Terminal("AA"), "l")
        == Choice(Terminal("AA"), Throw("l"))
    )
    assert not (
        Annotated(Terminal("AA"), "l")
        == Choice(Terminal("AA"), Throw("other"))
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
        # a prefix operand of a postfix operator keeps its parentheses
        "(!AA)* BB",
        "(&AA)+ BB",
        "(!AA)? BB",
        "!AA* BB",
        "AA** BB",
    ]
    for text in cases:
        g = parse_grammar(f"start <- {text} ;\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")
        body = g.rules["start"]
        rendered = render_expr(body)
        g2 = parse_grammar(
            f"start <- {rendered} ;\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")
        assert body == g2.rules["start"], (text, rendered)


def test_serialize_round_trips_grammar(tiny_java):
    text = serialize_grammar(tiny_java)
    again = parse_grammar(text)
    assert grammar_eq(tiny_java, again)


def test_serialize_round_trips_random_grammars():
    for seed in range(50):
        g = random_grammar(seed)
        assert grammar_eq(parse_grammar(serialize_grammar(g)), g), seed


# valid grammars that the grammar text cannot spell: each would read back
# as another grammar, or not at all
UNWRITABLE = {
    "rule-name-space": ({"x y": Terminal("'a'")}, {}, {}, "rule name 'x y'"),
    "rule-name-empty": ({"": Terminal("'a'")}, {}, {}, "rule name ''"),
    # a named token kind is a lexical rule's name
    "token-kind-space": ({"start": Terminal("A A")}, {"A A": Literal("a")}, {},
                         "rule name 'A A'"),
    "label-space": ({"start": Annotated(Terminal("'a'"), "x y")}, {}, {"x y": Empty()},
                    "label 'x y'"),
    # once printed as '' (the empty expression) twice, and as 'a'
    "literal-kind-quote": ({"start": Terminal("'")}, {}, {}, "token kind \"'\""),
    "literal-kind-empty": ({"start": Terminal("''")}, {}, {}, "token kind \"''\""),
    "literal-kind-open": ({"start": Terminal("'ab")}, {}, {}, "token kind \"'ab\""),
    "literal-empty": ({"start": Terminal("AA")}, {"AA": Literal("")}, {}, "literal ''"),
}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_serialize_refuses_what_the_text_cannot_spell(case):
    rules, lexical, recovery, part = UNWRITABLE[case]
    g = Grammar(rules, lexical, next(iter(rules)), recovery)
    validate(g)
    with pytest.raises(GrammarError) as got:
        serialize_grammar(g)
    assert got.value.message == f"cannot write {part} as grammar text"


def test_serialize_round_trips_literals_that_need_escapes():
    # a literal token kind is written with the escapes the grammar text
    # needs, not as the kind's raw text
    g = parse_grammar("start <- 'a\\'b' '\"' 'q\\\\' 'x\\ny' '\\t' '\\r' ;")
    assert g.literal_kinds == ("'a'b'", "'\"'", "'q\\'", "'x\ny'", "'\t'", "'\r'")
    text = serialize_grammar(g)
    assert "start <- 'a\\'b' '\"' 'q\\\\' 'x\\ny' '\\t' '\\r' ;" in text
    again = parse_grammar(text)
    assert grammar_eq(again, g) and again.literal_kinds == g.literal_kinds
    # lexical rules: a quote and a backslash in a literal; in a class, the
    # characters that close it, make a range or open it, the escaped
    # controls, and a range whose ends are escaped
    lines = [r"XX <- 'it\'s a \\ path' ;", r"YY <- [\]\-\[\\\n\t\r\[-\]a-c] ;"]
    g = parse_grammar("start <- XX YY ;\n" + "\n".join(lines))
    assert g.lexical["XX"] == Literal("it's a \\ path")
    assert g.lexical["YY"] == CharClass((("]", "]"), ("-", "-"), ("[", "["), ("\\", "\\"),
                                         ("\n", "\n"), ("\t", "\t"), ("\r", "\r"),
                                         ("[", "]"), ("a", "c")))
    text = serialize_grammar(g)
    assert text.endswith("\n\n" + "\n".join(lines) + "\n")
    assert grammar_eq(parse_grammar(text), g)


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
    # shapes only a grammar built by hand can take
    (lambda: validate(Grammar({"start": Sequence(Terminal("'a'"), "oops")}, {}, "start")),
     "^start holds a str, not an expression$"),
    (lambda: validate(Grammar({"start": Annotated(Terminal("'a'"), 5)}, {}, "start")),
     "^Throw.label in start must be a str$"),
    (lambda: validate(Grammar({"start": Terminal("AA")}, {"AA": CharClass("ab")}, "start")),
     r"^CharClass.ranges in AA must be a tuple of \(lo, hi\) pairs of single characters$"),
    (lambda: validate(Grammar({"start": Terminal("'a'")}, {}, "start", {1: Empty()})),
     "^Grammar.recovery must be a dict keyed by str$"),
    (lambda: validate(Grammar({}, {}, "start")), "^grammar has no syntactic rules$"),
])
def test_validate_rejects(build, message):
    with pytest.raises(GrammarError, match=message):
        build()


def test_validate_collects_labels_and_messages():
    g = parse_grammar("start <- AA [BB]^miss ;\nAA <- 'a' ;\nBB <- 'b' ;")
    assert g.labels == {"miss"}
    assert g.label_descriptions["miss"] == "BB"


def test_strip_labels_removes_annotations_and_recovery():
    g = parse_grammar(
        "start <- AA [BB]^miss ;\nAA <- 'a' ;\nBB <- 'b' ;\n"
        "%recovery\nmiss <- (!BB .)* ;")
    bare = strip_labels(g)
    assert bare.labels == set()
    assert bare.recovery == {}
    assert bare.rules["start"] == Sequence(Terminal("AA"), Terminal("BB"))

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


def test_desugar_copies_only_a_grammar_with_sugar():
    annotated = load_grammar(str(GRAMMAR_DIR / "tiny_java_annotated.peg"))
    assert desugar(annotated) is annotated
    # NUMBER <- [0-9]+ is sugar
    sugared = load_grammar(str(GRAMMAR_DIR / "tiny_java.peg"))
    d = desugar(sugared)
    assert d is not sugared and desugar(sugared) is d and desugar(d) is d
    assert render_expr(d.lexical["NUMBER"]) == "[0-9] [0-9]*"


@pytest.mark.parametrize("name", ["desugared", "rule_positions", "labels", "literal_kinds",
                                  "messages"])
def test_a_grammar_takes_only_what_it_is_given(name):
    with pytest.raises(TypeError):
        Grammar({"start": Terminal("'x'")}, {}, "start", **{name: None})
    assert not hasattr(model, "program")


ABC_TOKENS = "AA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;"


def test_validation_writes_nothing_it_was_given(monkeypatch):
    with pytest.raises(TypeError):
        Grammar({"start": Terminal("'x'")}, {}, "start", label_descriptions={})
    g = parse_grammar("start <- AA [BB]^miss ;\nAA <- 'a' ;\nBB <- 'b' ;")
    assert [e.message for e in parse(g, "a a").errors] == ["expected BB"]
    # two grammars that differ in one annotated kind form their own defaults
    abc = {"AA": Literal("a"), "BB": Literal("b"), "CC": Literal("c")}
    for kind in ("BB", "CC"):
        body = Sequence(Terminal("AA"), Annotated(Terminal(kind), "l"))
        hand_built = Grammar({"start": body}, dict(abc), "start")
        assert [e.message for e in parse(hand_built, "a").errors] == [f"expected {kind}"]
    # a label whose annotation site is stripped reads as any bare throw
    g = strip_labels(parse_grammar("start <- AA [BB]^l / CC ^l ;\n" + ABC_TOKENS))
    assert [e.message for e in parse(g, "c").errors] == ["unexpected input (l)"]
    # a desugared copy keeps its grammar's tables without filling them again
    g = parse_grammar("start <- [AA+]^l ;\nAA <- 'a' ;")
    monkeypatch.setattr(model, "_fill_tables", None)
    d = desugar(g)
    assert d is not g
    assert (d.labels, d.literal_kinds, d.label_descriptions) == \
        (g.labels, g.literal_kinds, g.label_descriptions)


def test_preserved_annotation_reads_alike_before_and_after_a_round_trip():
    g = parse_grammar("start <- AA [BB+]^l CC ;\n" + ABC_TOKENS)
    annotated, _ = annotate(g, AnnotatorConfig(preserve_existing=True))
    reread = parse_grammar(serialize_grammar(annotated))
    assert annotated.label_descriptions == reread.label_descriptions
    assert annotated.label_descriptions["l"] == "BB BB*"
    messages = [[e.message for e in parse(x, "a c").errors] for x in (annotated, reread)]
    assert messages == [["expected BB BB*"]] * 2


AB = {"AA": Literal("a"), "BB": Literal("b")}
HAND_BUILT_SUGAR = [
    ("start <- AA? BB ;", {"start": Sequence(Optional(Terminal("AA")), Terminal("BB"))}, AB),
    ("start <- AA+ BB ;", {"start": Sequence(Plus(Terminal("AA")), Terminal("BB"))}, AB),
    ("start <- &AA . BB ;",
     {"start": Sequence(Sequence(And(Terminal("AA")), AnyToken()), Terminal("BB"))}, AB),
    ("start <- AA BB ;", {"start": Sequence(Terminal("AA"), Terminal("BB"))},
     {"AA": Plus(Literal("a")), "BB": Literal("b")}),
]


@pytest.mark.parametrize("text, rules, lexical", HAND_BUILT_SUGAR,
                         ids=["optional", "plus", "and", "lexical-plus"])
def test_hand_built_sugar_parses_as_its_grammar_text(text, rules, lexical):
    lexical_text = "".join(f"\n{name} <- {render_expr(body)} ;"
                           for name, body in lexical.items())
    written = parse_grammar(text + lexical_text)
    hand_built = Grammar(rules, lexical, "start")
    for source in ("", "a", "b", "a b", "a a b", "aa b", "b b", "a a"):
        assert parse(hand_built, source) == parse(written, source), source


def test_grammar_eq_sees_rule_changes(tiny_java):
    other = parse_grammar(serialize_grammar(tiny_java))
    other.rules["Exp"] = Terminal("NUMBER")
    assert not grammar_eq(tiny_java, other)


def test_literal_kinds_collected_in_order():
    g = parse_grammar("start <- 'x' 'y' 'x' ;")
    assert g.literal_kinds == ("'x'", "'y'")


def test_empty_literal_is_empty_expression():
    g = parse_grammar("start <- 'a' / '' ;")
    assert g.rules["start"] == Choice(Terminal("'a'"), Empty())


# --- validity: checked once, kept by the passes ---------------------------------

INVALID = {
    "undefined-rule": lambda: {"start": NonTerminal("nope")},
    "left-recursion": lambda: {"start": Choice(Sequence(NonTerminal("start"),
                                                        Terminal("'a'")),
                                               Terminal("'a'"))},
    "reserved-label": lambda: {"start": Annotated(Terminal("'a'"), "fail")},
    # shapes only a grammar built by hand can take, which once escaped as a
    # TypeError, an AttributeError or "grammar nested too deeply"
    "foreign-node": lambda: {"start": "oops"},
    "terminal-kind": lambda: {"start": Terminal(3)},
    "nonterminal-name": lambda: {"start": NonTerminal(3)},
    "throw-label": lambda: {"start": Annotated(Terminal("'a'"), 5)},
    "literal-text": lambda: {"start": Literal(5)},
    "charclass-ranges": lambda: {"start": CharClass("ab")},
    "rule-name": lambda: {"start": Terminal("'a'"), 3: Terminal("'a'")},
}
# faults in the other parts: (rules, lexical rules, recovery)
INVALID_PARTS = {
    "lexical-foreign-node": lambda: ({"start": Terminal("AA")}, {"AA": "a"}, {}),
    "lexical-literal-text": lambda: ({"start": Terminal("AA")}, {"AA": Literal(5)}, {}),
    "lexical-charclass-str": lambda: ({"start": Terminal("AA")}, {"AA": CharClass("ab")}, {}),
    # once compiled silently to [ab-c]
    "lexical-charclass-range": lambda: ({"start": Terminal("AA")},
                                        {"AA": CharClass((("ab", "c"),))}, {}),
    "lexical-charclass-pair": lambda: ({"start": Terminal("AA")},
                                       {"AA": CharClass((("a",),))}, {}),
    # the DSL's "bad range"; once compiled silently to a class without it
    "lexical-charclass-reversed": lambda: ({"start": Terminal("AA")},
                                           {"AA": CharClass((("b", "a"),))}, {}),
    "lexical-rule-name": lambda: ({"start": Terminal("AA")},
                                  {"AA": Literal("a"), 3: Literal("b")}, {}),
    "recovery-foreign-node": lambda: ({"start": Annotated(Terminal("'a'"), "x")}, {},
                                      {"x": "oops"}),
    "recovery-not-a-dict": lambda: ({"start": Terminal("'a'")}, {}, [1]),
    "recovery-label": lambda: ({"start": Annotated(Terminal("'a'"), "x")}, {}, {1: Empty()}),
}

ENTRY_POINTS = {
    "parse": lambda g: parse(g, ""),
    "match": lambda g: match(g, NonTerminal("start"), ""),
    "annotate": annotate,
    "Analysis": Analysis,
    "first_of": lambda g: Analysis(g).first_of(g.rules[g.start]),
    "calck": lambda g: Analysis(g).calck(g.rules[g.start], model.EPSILON_ONLY),
    "desugar": desugar,
    "strip_labels": strip_labels,
    "serialize_grammar": serialize_grammar,
    "TokenStream": lambda g: TokenStream(g, ""),
}


def with_sugar(rules: dict) -> dict:
    """rules with start followed by an optional 'b', so that desugaring
    them would build a copy."""
    return {**rules, "start": Sequence(rules["start"], Optional(Terminal("'b'")))}


# a sugared grammar is one that desugar would copy, a desugared one is its
# own desugared form; either way the validation error comes first
@pytest.mark.parametrize("sugared", [True, False], ids=["sugared", "desugared"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("fault", [*INVALID, *INVALID_PARTS])
def test_invalid_hand_built_grammar_fails_at_every_entry_point(fault, entry, sugared):
    def make() -> Grammar:
        rules, lexical, recovery = ((INVALID[fault](), {}, {}) if fault in INVALID
                                    else INVALID_PARTS[fault]())
        return Grammar(with_sugar(rules) if sugared else rules, lexical, "start", recovery)

    with pytest.raises(GrammarError) as expected:
        validate(make())
    assert "nested too deeply" not in expected.value.message
    grammar = make()
    with pytest.raises(GrammarError) as got:
        ENTRY_POINTS[entry](grammar)
    assert (got.value.message, got.value.line, got.value.col) == \
        (expected.value.message, expected.value.line, expected.value.col)


# deeper than the stack budget of a pegrec call (model.STACK_BUDGET)
DEPTH = 30000


def nested(wrap, depth: int) -> Expr:
    body = Terminal("'a'")
    for _ in range(depth):
        body = wrap(body)
    return body


NESTED = {
    "sequence": lambda: nested(lambda e: Sequence(e, Empty()), DEPTH),
    # FIRST and the writer read a chain nested to the left as a list, but
    # one nested to the right (behind nullable items, for FIRST) takes a
    # frame per level
    "right-sequence": lambda: nested(lambda e: Sequence(Empty(), e), DEPTH),
    # validate walks these within the stack budget, but desugaring or
    # stripping labels (two frames a level) cannot
    "not-pairs": lambda: nested(lambda e: Not(Not(e)), 5000),
    "and-chain": lambda: nested(And, 5000),
    "choice-chain": lambda: nested(lambda e: Choice(Terminal("'a'"), e), 12000),
    "star-chain": lambda: nested(Star, 12000),
}
# FIRST_ENTRIES read FIRST sets alone (``model.First``); they and the
# writer are deep only on the right-nested shape
FIRST_ENTRIES = ("Analysis", "first_of", "calck")
RIGHT_ENTRIES = (*FIRST_ENTRIES, "serialize_grammar")
DEEP_CASES = ([(entry, "sequence") for entry in ENTRY_POINTS if entry not in RIGHT_ENTRIES]
              + [(entry, "right-sequence") for entry in RIGHT_ENTRIES]
              + [(entry, "not-pairs")
                 for entry in ("parse", "match", "annotate", "desugar", "strip_labels")]
              + [("annotate", "and-chain")]
              + [(entry, shape) for shape in ("choice-chain", "star-chain")
                 for entry in ("parse", "match")])


@pytest.mark.parametrize("entry, shape", DEEP_CASES,
                         ids=[e if s == "sequence" else f"{e}-{s}" for e, s in DEEP_CASES])
def test_deeply_nested_hand_built_grammar_is_a_grammar_error(entry, shape):
    limit = sys.getrecursionlimit()
    parse(parse_grammar("start <- 'a' ;"), "a")
    assert sys.getrecursionlimit() == limit
    grammar = Grammar({"start": NESTED[shape]()}, {}, "start")
    try:
        ENTRY_POINTS[entry](grammar)
        outcome = "returned"
    except GrammarError as exc:
        outcome = str(exc)
    except Exception as exc:
        # pytest's report of a raw error, thousands of frames over deep
        # nodes, would take minutes
        outcome = type(exc).__name__
    assert outcome == "grammar nested too deeply"
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("entry", FIRST_ENTRIES)
def test_first_sets_read_a_left_nested_chain_of_any_length(entry):
    # the grammar text writes a b c as ((a b) c); FIRST once took a frame
    # per item, and rejected such a chain as nested too deeply
    limit = sys.getrecursionlimit()
    grammar = Grammar({"start": NESTED["sequence"]()}, {}, "start")
    got = ENTRY_POINTS[entry](grammar)
    if entry == "Analysis":
        got = got.first_of_rule("start")
    assert got == model.TokenSet(frozenset(("'a'",)))
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_chain_within_the_budget_passes_every_entry_point_at_the_default_limit(entry):
    # serialize_grammar, first_of and calck once recursed past the
    # caller's limit on it
    assert model.STACK_BUDGET < DEPTH
    grammar = Grammar({"start": nested(lambda e: Sequence(e, Empty()), 3000)}, {}, "start")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        ENTRY_POINTS[entry](grammar)
        after = sys.getrecursionlimit()
    except RecursionError:
        # out of stack; pytest's report of the error, 1000 frames over deep
        # nodes, would take minutes
        after = None
    finally:
        sys.setrecursionlimit(limit)
    assert after == 1000


def _public_calls(tmp_path: Path) -> dict:
    """One call of each public function, by name; a call named
    "...-too-deep" raises."""
    java = str(GRAMMAR_DIR / "tiny_java_annotated.peg")
    program = "public class A { public static void main ( String [ ] a ) { x = ( 1 ) ; } }"
    (tmp_path / "messages.json").write_text('{"Err_Prog_1": "a class"}')
    # deeper than the highest caller limit below, which a caller keeps
    (tmp_path / "deep.json").write_text("[" * 26000 + "]" * 26000)
    (tmp_path / "case.bad").write_text(program.replace("x =", "x"))
    (tmp_path / "case.ok").write_text(program)
    deep = Grammar({"start": nested(lambda e: Sequence(e, Empty()), DEPTH)}, {}, "start")
    # the writer reads a chain nested to the left as a list
    right_deep = Grammar({"start": nested(lambda e: Sequence(Empty(), e), DEPTH)}, {}, "start")

    def fresh() -> Grammar:
        return load_grammar(java)

    return {
        "parse": lambda: parse(fresh(), program),
        # fails with "input nested too deeply" at either caller limit
        "parse_deep_input": lambda: parse(
            fresh(), program.replace("( 1 )", "( " * 6000 + "1" + " )" * 6000)),
        "match": lambda: match(fresh(), NonTerminal("Prog"), program, 10**12),
        "Session": lambda: Session(fresh(), program),
        "parse_grammar": lambda: parse_grammar("start <- 'a' ;"),
        "parse_grammar-too-deep": lambda: parse_grammar(
            "start <- " + "(" * DEPTH + "'a'" + ")" * DEPTH + " ;"),
        "load_grammar": fresh,
        "annotate": lambda: annotate(load_grammar(str(GRAMMAR_DIR / "tiny_java.peg"))),
        "annotate-too-deep": lambda: annotate(deep),
        "Analysis": lambda: Analysis(fresh()).follow_of("Stmt"),
        "desugar": lambda: desugar(fresh()),
        "strip_labels": lambda: strip_labels(fresh()),
        "serialize_grammar": lambda: serialize_grammar(fresh()),
        "serialize_grammar-too-deep": lambda: serialize_grammar(right_deep),
        "TokenStream": lambda: TokenStream(fresh(), program),
        "load_messages": lambda: load_messages(str(tmp_path / "messages.json"), fresh()),
        "load_messages-too-deep": lambda: load_messages(str(tmp_path / "deep.json")),
        "run_corpus": lambda: run_corpus(fresh(), load_corpus(tmp_path)),
    }


@pytest.mark.parametrize("caller_limit", [1000, 25000])
def test_every_public_call_leaves_the_recursion_limit_as_it_found_it(tmp_path, caller_limit):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(caller_limit)
    try:
        for name, call in _public_calls(tmp_path).items():
            if name.endswith("-too-deep"):
                with pytest.raises(GrammarError, match="nested too deeply$"):
                    call()
            else:
                call()
            assert sys.getrecursionlimit() == caller_limit, name
    finally:
        sys.setrecursionlimit(limit)


_TWO_THREADS = """
import json, sys, threading
from pegrec import annotate, load_grammar, parse, parse_grammar
limit = sys.getrecursionlimit()
# switch threads often, so that each leaves calls while the other runs one
sys.setswitchinterval(1e-5)
java = load_grammar(sys.argv[1])
deep = ("public class A { public static void main ( String [ ] a ) { x = "
        + "( " * 3000 + "1" + " )" * 3000 + " ; } }")
small = "start <- AA BB* ;\\nAA <- 'a' ;\\nBB <- 'b' ;"
results, done = {"short": 0, "failed": []}, threading.Event()

def deep_parse():
    try:
        results["deep"] = [parse(java, deep).status for _ in range(5)]
    finally:
        done.set()

def short_calls():
    while True:
        try:
            g = parse_grammar(small)
            annotate(g)
            if not parse(g, "a b b").ok:
                results["failed"].append("parse")
        except Exception as exc:
            results["failed"].append(repr(exc))
        results["short"] += 1
        if done.is_set():
            return

threads = [threading.Thread(target=f, daemon=True) for f in (short_calls, deep_parse)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
results["alive"] = [t.is_alive() for t in threads]
results["restored"] = sys.getrecursionlimit() == limit
print(json.dumps(results))
"""


def test_two_threads_share_the_stack_budget():
    # with no count of the calls in flight, a call that left restored the
    # limit it found: it lowered the limit under the other thread's deep
    # parse, or left the limit raised after both threads were done
    done = run_fresh(_TWO_THREADS, str(GRAMMAR_DIR / "tiny_java_annotated.peg"))
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["alive"] == [False, False]
    assert (out["deep"], out["failed"], out["restored"]) == (["matched"] * 5, [], True)
    assert out["short"] > 0


_GUARDS_IN_THREADS = """
import json, sys, threading, time
from pegrec import model
limit = sys.getrecursionlimit()
get_limit, set_limit = sys.getrecursionlimit, sys.setrecursionlimit

def yielding(f):
    # let another thread run between a guard's test of the count and its
    # reading or setting of the limit
    def call(*args):
        time.sleep(0)
        return f(*args)
    return call

sys.getrecursionlimit, sys.setrecursionlimit = yielding(get_limit), yielding(set_limit)
sys.setswitchinterval(1e-6)
low = []

@model.nesting_guard()
def guarded(depth):
    # nested guards, as a pegrec call that calls another has
    if get_limit() < model.STACK_BUDGET:
        low.append(depth)
    if depth:
        with model.nesting_guard():
            guarded(depth - 1)

def calls():
    for _ in range(500):
        guarded(1)

threads = [threading.Thread(target=calls, daemon=True) for _ in range(3)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({"alive": [t.is_alive() for t in threads], "low": len(low),
                  "in_flight": model._calls_in_flight, "restored": get_limit() == limit}))
"""


def test_guards_in_more_threads_than_cores_keep_the_count():
    # with no lock round the count of calls in flight, two calls that both
    # found none raised the limit in turn, and the last to leave restored
    # the raised one
    done = run_fresh(_GUARDS_IN_THREADS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"alive": [False] * 3, "low": 0, "in_flight": 0,
                                       "restored": True}


_LEAVES_LAST_FROM_DEEP = """
import json, sys, threading
from pegrec import model
limit = sys.getrecursionlimit()
entered, main_left = threading.Event(), threading.Event()
out = {}

def deep(n):
    if n:
        return deep(n - 1)
    with model.nesting_guard():
        entered.set()
        main_left.wait(30)
    out["after_deep_exit"] = sys.getrecursionlimit()

def second():
    try:
        deep(3000)
    except BaseException as exc:
        out["raised"] = repr(exc)

with model.nesting_guard():
    t = threading.Thread(target=second)
    t.start()
    entered.wait(30)
main_left.set()
t.join(30)
with model.nesting_guard():
    out["inside"] = sys.getrecursionlimit()
out["after"] = sys.getrecursionlimit()
sys.setrecursionlimit(1500)
with model.nesting_guard():
    pass
out["set_by_caller"] = sys.getrecursionlimit()
print(json.dumps([limit, out]))
"""


def test_a_guard_that_leaves_last_from_deep_in_the_stack_does_not_raise():
    # the second thread leaves its guard last, 3000 frames down, where the
    # limit of 1000 found by the main thread cannot be set: it once raised
    # a raw RecursionError there and left the limit raised for good
    done = run_fresh(_LEAVES_LAST_FROM_DEEP)
    assert done.returncode == 0, done.stderr
    limit, out = json.loads(done.stdout)
    # the restore waits for the next guard to leave from a shallow frame,
    # and that guard did not take the raised limit for the caller's
    assert limit == 1000
    assert out == {"after_deep_exit": model.STACK_BUDGET, "inside": model.STACK_BUDGET,
                   "after": 1000, "set_by_caller": 1500}


def test_hand_built_desugared_grammar_collects_its_literal_kinds():
    g = Grammar({"start": Terminal("'x'")}, {}, "start")
    assert parse(g, "x").ok
    assert g.literal_kinds == ("'x'",)
    assert Analysis(Grammar({"start": Terminal("'x'")}, {}, "start")).all_kinds == {"'x'"}


def fresh_copy(g: Grammar) -> Grammar:
    return Grammar(rules=dict(g.rules), lexical=dict(g.lexical), start=g.start,
                   recovery=dict(g.recovery))


GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


def test_passes_keep_validity_by_construction():
    grammars = [parse_grammar(path.read_text(encoding="utf-8"))
                for path in sorted(GRAMMAR_DIR.glob("*.peg"))]
    grammars += [random_grammar(seed) for seed in range(200)]
    for g in grammars:
        outputs = [desugar(g), strip_labels(g)]
        for config in (AnnotatorConfig(), AnnotatorConfig(preserve_existing=True),
                       AnnotatorConfig(star_mode_rules=tuple(g.rules))):
            outputs.append(annotate(g, config)[0])
        for out in outputs:
            # the pass made it valid; a check from scratch agrees
            assert out._valid
            copy = validate(fresh_copy(out))
            assert copy.literal_kinds == out.literal_kinds
            assert copy.labels == out.labels
            assert copy.label_descriptions == out.label_descriptions


def test_sugared_annotation_keeps_its_description_and_message():
    g = parse_grammar("start <- [AA+]^l ;\nAA <- 'a' ;")
    assert g.label_descriptions == {"l": "AA+"}
    # desugaring keeps the description the grammar text gave the label
    d = desugar(g)
    assert d.label_descriptions == {"l": "AA+"}
    assert [e.message for e in parse(g, "").errors] == ["expected AA+"]
    # a recovery's error node expects what the message says
    g = parse_grammar("start <- AA [BB+]^l CC ;\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;\n"
                      "%recovery\nl <- (!CC .)* ;")
    out = parse(g, "a c")
    assert [e.message for e in out.errors] == ["expected BB+"]
    assert tree_to_json(out.tree)["children"][1] == {"error": "l", "expected": "BB+", "span": [2, 2]}


def test_a_literal_is_described_as_grammar_text():
    # the literal a'b is written 'a\'b' in a grammar, and so in what a
    # label on it expects
    g = parse_grammar("start <- AA [ 'a\\'b' ]^l CC ;\nAA <- 'a' ;\nCC <- 'c' ;\n"
                      "%recovery\nl <- (!CC .)* ;")
    assert g.label_descriptions == {"l": "'a\\'b'"}
    out = parse(g, "a c")
    assert [e.message for e in out.errors] == ["expected 'a\\'b'"]
    assert tree_to_json(out.tree)["children"][1] == \
        {"error": "l", "expected": "'a\\'b'", "span": [2, 2]}
    annotated, report = annotate(parse_grammar("start <- AA 'a\\'b' ;\nAA <- 'a' ;"))
    assert [site.expected for site in report.inserted] == ["'a\\'b'"]
    assert annotated.label_descriptions == {"Err_start_1": "'a\\'b'"}


def _nested_plus(depth: int) -> Grammar:
    """``start <- ((AA BB)+ BB)+ ... CC ;`` with depth ``+``s."""
    e = "(AA BB)+"
    for _ in range(depth - 1):
        e = f"({e} BB)+"
    return parse_grammar(f"start <- {e} CC ;\nAA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;")


def test_stripping_labels_keeps_nested_plus_shared():
    # desugaring p+ to p p* shares p; a rewrite that copied it would double
    # the expression per level of nesting
    def stripped(depth: int) -> Expr:
        body = strip_labels(desugar(_nested_plus(depth))).rules["start"]
        plus = body.left
        for _ in range(depth):
            p = model.plus_operand(plus)
            assert p is not None
            plus = p.left
        return body
    assert len(model._walk(stripped(16))) <= 2 * len(model._walk(stripped(8))) + 10


# --- left recursion against the reference check ---------------------------------

def lr_outcome(check, rules: dict) -> str | None:
    try:
        check(rules, "rule")
    except GrammarError as exc:
        return exc.message
    return None


def with_left_recursion(g: Grammar, rng: random.Random) -> dict:
    """g's rules with up to three references added where they may be
    reached before any input: directly or after a nullable prefix."""
    rules = dict(g.rules)
    names = list(rules)
    for _ in range(rng.randint(1, 3)):
        target = NonTerminal(rng.choice(names))
        prefix = rng.choice([None, Empty(), Star(Terminal("AA")), Not(Terminal("BB")),
                             Choice(Terminal("CC"), Empty()), Terminal("CC"),
                             NonTerminal(rng.choice(names))])
        added = target if prefix is None else Sequence(prefix, target)
        name = rng.choice(names)
        body = rules[name]
        rules[name] = rng.choice([Choice(body, added), Choice(added, body),
                                  Sequence(added, body), Sequence(Star(added), body)])
    return rules


def test_left_recursion_check_agrees_with_reference():
    rng = random.Random(5)
    outcomes = []
    for seed in range(300):
        g = random_grammar(seed)
        for rules in (g.rules, with_left_recursion(g, rng)):
            want = lr_outcome(check_left_recursion, rules)
            assert lr_outcome(model._check_left_recursion, rules) == want, seed
            outcomes.append(want)
    rejected = sum(o is not None for o in outcomes)
    # both outcomes are well represented, and not only the first rule fails
    assert 150 < rejected < 450
    assert len(set(outcomes)) > 3


def test_first_of_left_recursive_rules_is_the_least_fixed_point(monkeypatch):
    # a rule that waits for itself, as validate's left-recursion check can
    # meet, makes First iterate to the least fixed point
    rng = random.Random(9)
    fixpoints = []
    real = model.rule_fixpoint
    monkeypatch.setattr(model, "rule_fixpoint",
                        lambda *args: fixpoints.append(args) or real(*args))
    cycles = 0
    for seed in range(200):
        g = random_grammar(seed)
        rules = with_left_recursion(g, rng)
        for leaf in (Analysis(g)._leaf, model._nullable_leaf):
            fixpoints.clear()
            assert model.First(rules, leaf).rules == reference_first(rules, leaf), seed
            cycles += len(fixpoints)
    # about 120 of the 200 rule sets have a cycle, which both leaves meet
    assert cycles > 150


def test_left_recursion_check_is_linear_in_sequence_depth(monkeypatch):
    # at every level of a left-nested sequence, the check once asked
    # whether the left operand is nullable, walking its whole spine again
    calls = count_first_calls(monkeypatch)

    def count(depth: int) -> int:
        body = Terminal("EOF")
        for _ in range(depth):
            body = Sequence(body, Empty())
        calls.clear()
        model._check_left_recursion({"start": body}, "rule")
        return len(calls)
    assert count(400) <= 2 * count(200) + 10


def test_left_recursion_check_is_linear_in_nested_nullable_plus_depth():
    # p+ desugars to p p*, which share p; with a nullable p, the check once
    # walked p twice per level
    def calls(depth: int) -> int:
        rules = desugar(parse_grammar("start <- " + "(" * depth + "AA?" + ")+" * depth
                                      + " ;\nAA <- 'a' ;")).rules
        n = 0

        def count(frame, event, arg):
            nonlocal n
            n += event == "call"
        sys.setprofile(count)
        try:
            model._check_left_recursion(rules, "rule")
        finally:
            sys.setprofile(None)
        return n
    assert calls(16) <= 2 * calls(8) + 50


def inject_left_recursion(text: str, rng: random.Random) -> str:
    """A bundled grammar text with a rule reference put at the front of a
    rule body, directly or after a nullable prefix."""
    g = parse_grammar(text)
    names = list(g.rules)
    name = rng.choice(names)
    added = rng.choice(["{0} ", "{0}* {1} ", "!{0} {1} ", "{0}? {1} ", "'' {1} ",
                        "({0} / '') {1} ", "[{1}]^boom "])
    added = added.format(rng.choice(names), rng.choice(names))
    return text.replace(f"\n{name} <- ", f"\n{name} <- {added}", 1)


def parse_result(text: str):
    try:
        g = parse_grammar(text)
    except GrammarError as exc:
        return exc.message, exc.line, exc.col
    return serialize_grammar(g)


def test_left_recursion_errors_on_mutated_grammar_texts(monkeypatch):
    rng = random.Random(7)
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(GRAMMAR_DIR.glob("*.peg"))]
    mutated = [inject_left_recursion(rng.choice(texts), rng) for _ in range(300)]
    got = [parse_result(text) for text in mutated]
    monkeypatch.setattr(model, "_check_left_recursion", check_left_recursion)
    want = [parse_result(text) for text in mutated]
    assert got == want
    assert sum(isinstance(r[0], str) and "left recursion" in r[0] for r in got) > 50


# --- lexical rules: left recursion is searched for only when one reaches itself -

def test_only_a_self_reaching_lexical_rule_starts_a_lexical_left_recursion_search(
        monkeypatch):
    searched = []
    real = model._check_left_recursion
    monkeypatch.setattr(model, "_check_left_recursion",
                        lambda rules, what: searched.append(what) or real(rules, what))
    texts = [path.read_text(encoding="utf-8") for path in sorted(GRAMMAR_DIR.glob("*.peg"))]
    for text in texts:
        parse_grammar(text)
    for seed in range(200):
        random_grammar(seed)
    assert searched == ["rule"] * (len(texts) + 200)
    searched.clear()
    with pytest.raises(GrammarError, match="^lexical rule AA reaches itself; "):
        parse_grammar("start <- . ;\nAA <- 'a' BB ;\nBB <- 'b' AA? ;")
    assert searched == ["rule", "lexical rule"]


def reference_self_reaching(lexical: dict) -> str | None:
    """The first lexical rule, in order, that reaches itself through the
    rules its body references, anywhere in it."""
    def references(e: Expr, out: set[str]) -> set[str]:
        if isinstance(e, NonTerminal):
            out.add(e.name)
        for child in model.children(e):
            references(child, out)
        return out
    calls = {name: references(body, set()) for name, body in lexical.items()}
    for name in lexical:
        seen: set[str] = set()
        frontier = set(calls[name])
        while frontier:
            n = frontier.pop()
            if n == name:
                return name
            if n not in seen:
                seen.add(n)
                frontier |= calls[n]
    return None


def validate_lexical_first(g: Grammar) -> Grammar:
    """``validate`` with its checks in the order they once ran: the
    syntactic rules, then the lexical rules searched for left recursion
    (``check_left_recursion``) on every grammar, then for a rule that
    reaches itself (``reference_self_reaching``)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(model, "_check_left_recursion", check_left_recursion)
        m.setattr(model, "_self_reaching", lambda calls: None)
        validate(g)
    check_left_recursion(g.lexical, "lexical rule")
    name = reference_self_reaching(g.lexical)
    if name is not None:
        raise GrammarError(f"lexical rule {name} reaches itself; "
                           "a token must be a regular pattern")
    return g


def inject_lexical_reference(text: str, names: list[str], rng: random.Random) -> str:
    """A grammar text with a reference to one of its lexical rules
    ``names`` put in one of their bodies: at its front, after a nullable
    prefix, or after an item that consumes."""
    name = rng.choice(names)
    added = rng.choice(["{0} ", "{0}? ", "'' {0} ", "!{0} 'x' ", "[a]* {0} ",
                        "'x' {0} ", "[a] {0}? "]).format(rng.choice(names))
    return text.replace(f"\n{name} <- ", f"\n{name} <- {added}", 1)


def test_lexical_rule_errors_keep_the_order_of_both_searches(monkeypatch):
    # a lexical rule that is left recursive also reaches itself: searching
    # for left recursion only then gives each text the error it had when
    # the search ran first on every grammar
    rng = random.Random(33)
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(GRAMMAR_DIR.glob("*.peg"))]
    mutated = []
    for _ in range(300):
        text = rng.choice(texts)
        # among a few rules, so that the references often close a cycle
        names = rng.sample(list(parse_grammar(text).lexical), 3)
        for _ in range(rng.randint(1, 3)):
            text = inject_lexical_reference(text, names, rng)
        mutated.append(text)
    got = [parse_result(text) for text in mutated]
    monkeypatch.setattr("pegrec.dsl.validate", validate_lexical_first)
    want = [parse_result(text) for text in mutated]
    assert got == want
    messages = [r[0] for r in got if isinstance(r, tuple)]
    # about 120 left recursive, 55 only reaching themselves, 120 valid
    assert sum(m.startswith("left recursion detected in lexical rule") for m in messages) > 80
    assert sum(m.endswith("reaches itself; a token must be a regular pattern")
               for m in messages) > 30
    assert 50 < len(got) - len(messages) < 200


# --- FIRST sets: each rule's computed once, callees first -----------------------

def chain_text(n: int, top_down: bool) -> str:
    """``r0 <- r1 AA ; ... ; r<n> <- AA ;``: each rule calls the next at
    its left edge, declared callers first or callees first."""
    rules = [f"r{i} <- r{i + 1} AA ;" for i in range(n)] + [f"r{n} <- AA ;"]
    return ("%start r0 ;\n" + "\n".join(rules if top_down else rules[::-1])
            + "\nAA <- 'a' ;\n")


@pytest.mark.parametrize("top_down", [True, False], ids=["top-down", "bottom-up"])
def test_a_long_left_edge_chain_of_rules_loads_annotates_and_analyzes(top_down):
    # a FIRST set that waits for a callee's goes on an explicit stack: a
    # frame per rule would take the chain past the stack budget
    limit = sys.getrecursionlimit()
    g = parse_grammar(chain_text(10000, top_down))
    annotated, report = annotate(g)
    assert (len(report.inserted), len(report.skipped)) == (10000, 10001)
    a = Analysis(annotated)
    aa = model.TokenSet(frozenset(("AA",)))
    assert list(a.first_of.rules) == list(g.rules)
    assert set(a.first_of.rules.values()) == {aa}
    assert a.follow_of("r0") == model.TokenSet(frozenset(("EOF",)))
    assert a.follow_of("r5000") == aa
    assert sys.getrecursionlimit() == limit


def test_token_sets_compare_and_hash_by_value():
    ab = model.TokenSet(frozenset(("AA", "BB")))
    same = model.TokenSet(frozenset(("BB", "AA")))
    assert ab == same and hash(ab) == hash(same) and len({ab, same}) == 1
    assert ab != model.TokenSet(ab.kinds, True)
    assert ab != model.TokenSet(frozenset(("AA",)))
    assert ab != ("AA", "BB") and ab != Terminal("AA")
    for other in (model.EMPTY_SET, model.EPSILON_ONLY, ab.with_epsilon()):
        assert (ab == other) == (hash(ab) == hash(other) and ab.kinds == other.kinds
                                 and ab.has_epsilon == other.has_epsilon)


def test_token_set_operations_return_the_operand_they_equal():
    a = model.TokenSet(frozenset(("AA",)))
    ab = model.TokenSet(frozenset(("AA", "BB")))
    a_eps = a.with_epsilon()
    assert a_eps == model.TokenSet(frozenset(("AA",)), True)
    assert ab.union(a) is ab and a.union(ab) is ab
    assert ab.union(model.EMPTY_SET) is ab and model.EMPTY_SET.union(ab) is ab
    assert a_eps.union(a) is a_eps and a.union(a_eps) is a_eps
    # neither operand: a new set
    both = ab.union(a_eps)
    assert both == model.TokenSet(ab.kinds, True) and both is not ab
    assert a.with_epsilon() is not a and a_eps.with_epsilon() is a_eps
    assert a.without_epsilon() is a and a_eps.without_epsilon() == a


# --- nodes and records: plain classes ------------------------------------------

def _chain(depth: int) -> Expr:
    e = Terminal("AA")
    for _ in range(depth):
        e = Sequence(e, Terminal("AA"))
    return e


def test_a_deep_node_compares_hashes_and_prints_without_recursion():
    a, b = _chain(3000), _chain(3000)
    ga, gb = (Grammar({"start": e}, {"AA": Literal("a")}, "start") for e in (a, b))
    # a fresh process's limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        equal = a == b
        hashes = hash(a), hash(b)
        text = repr(a)
        same = grammar_eq(ga, gb)
    finally:
        sys.setrecursionlimit(limit)
    assert equal and same
    assert hashes[0] == hashes[1]
    assert text == ("Sequence(left=" * 3000 + "Terminal(kind='AA')"
                    + ", right=Terminal(kind='AA'))" * 3000)
    assert a != _chain(2999)
    assert Sequence(a, Empty()) != Sequence(b, AnyToken())


def test_separately_built_nested_plus_compares_once_per_shared_node():
    # p+ desugars to p p*, which share p; a comparison that unfolded the
    # sharing would take about 2^40 steps here
    def built(inner: str) -> Expr:
        text = ("start <- " + "(" * 40 + inner + "?" + ")+" * 40
                + " ;\nAA <- 'a' ;\nBB <- 'b' ;")
        return desugar(parse_grammar(text)).rules["start"]
    a, b = built("AA"), built("AA")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != built("BB")


def test_nodes_are_immutable_and_copy_through_their_constructors():
    t = Terminal("AA")
    for change in (lambda: setattr(t, "kind", "BB"), lambda: delattr(t, "kind"),
                   lambda: setattr(t, "other", 1)):
        with pytest.raises(AttributeError):
            change()
    assert t.kind == "AA"
    e = Sequence(t, Star(Choice(t, Empty())))
    hash(e)
    for other in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert other is not e
        assert other == e and hash(other) == hash(e)
    assert Sequence(left=t, right=t) == Sequence(t, t)
    assert Star(t) != Not(t) and Terminal("AA") != NonTerminal("AA")


_FRESH_IMPORT = """
import sys
import pegrec
loaded = "dataclasses" in sys.modules
import json
from pegrec.annotate import InsertedSite
from pegrec.engine import ParseError
from pegrec.evaluate import CaseResult
from pegrec.model import Choice, Empty, Sequence, Star, Terminal, TokenSet
t = Terminal("AA")
records = (ParseError("l", "expected AA", 3, 1, 4, 1),
           CaseResult("c", "excellent", 0, None, None, True),
           InsertedSite("start", "1", "Err_start_1", "AA", ("BB", "EOF")))
print(json.dumps({
    "dataclasses": loaded,
    "reprs": [repr(t), repr(Sequence(t, Star(Choice(t, Empty())))),
              repr(TokenSet(frozenset()))] + [repr(r) for r in records],
    "fields": [list(vars(r)) for r in records],
}))
"""


def test_import_builds_no_dataclass_and_records_keep_their_field_order():
    # the order of a record's fields is the order of vars(), which the
    # frozen digests of errors and ratings read
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _FRESH_IMPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["dataclasses"] is False
    assert out["reprs"] == [
        "Terminal(kind='AA')",
        "Sequence(left=Terminal(kind='AA'), right=Star(body=Choice("
        "first=Terminal(kind='AA'), second=Empty())))",
        "TokenSet(kinds=frozenset(), has_epsilon=False)",
        "ParseError(label='l', message='expected AA', offset=3, line=1, col=4, "
        "token_index=1)",
        "CaseResult(name='c', rating='excellent', error_count=0, first_label=None, "
        "expected_label=None, label_ok=True, note='')",
        "InsertedSite(rule='start', path='1', label='Err_start_1', expected='AA', "
        "followed_by=('BB', 'EOF'))",
    ]
    assert out["fields"] == [
        ["label", "message", "offset", "line", "col", "token_index"],
        ["name", "rating", "error_count", "first_label", "expected_label", "label_ok",
         "note"],
        ["rule", "path", "label", "expected", "followed_by"],
    ]
