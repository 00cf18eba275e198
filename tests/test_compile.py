"""The compiled program: built once per Grammar object, dropped with it,
and as deep-nesting-capable as the tree walk it replaced."""

import gc
import hashlib
import json
import sys
import weakref

import pytest

from pegrec import dsl, engine, lexer, model
from pegrec.analysis import Analysis
from pegrec.annotate import AnnotatorConfig, annotate
from pegrec.dsl import load_grammar, parse_grammar
from pegrec.engine import Session, parse, tree_from_json, tree_to_json, tree_to_json_text
from pegrec.evaluate import ast_structural_eq, delete_token
from pegrec.model import (
    Grammar,
    GrammarError,
    Literal,
    NonTerminal,
    Sequence,
    Star,
    Terminal,
    serialize_grammar,
    strip_labels,
)
from pegrec.lexer import TokenStream

BROKEN = ("public class A { public static void main ( String [ ] a ) { "
          "int x = ( 1 + ; while ( x < 3 { x = x + 1 ; } "
          "System.out.println ( x ) } }")


def _outcome_json(outcome):
    return json.dumps([outcome.status, tree_to_json(outcome.tree),
                       [vars(e) for e in outcome.errors]])


def test_grammar_compiles_once_per_object(grammar_dir, monkeypatch):
    grammar = load_grammar(str(grammar_dir / "tiny_java_annotated.peg"))
    calls = {"_Lexer": 0, "_Matcher": 0, "validate": 0}
    for module, name in ((lexer, "_Lexer"), (engine, "_Matcher"), (model, "validate")):
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    first = Session(grammar, BROKEN).parse()
    second = Session(grammar, BROKEN).parse()
    TokenStream(grammar, BROKEN).token(0)
    assert calls == {"_Lexer": 1, "_Matcher": 1, "validate": 0}
    assert _outcome_json(first) == _outcome_json(second)


def test_grammar_pipeline_validates_twice(grammar_dir, monkeypatch):
    # once when the grammar is read and once when its annotated text is
    # read back; annotating and analysing keep validity, so check nothing
    calls = []
    real = model.validate

    def counted(g):
        calls.append(g)
        return real(g)
    monkeypatch.setattr(model, "validate", counted)
    monkeypatch.setattr(dsl, "validate", counted)
    for name in ("tiny_java.peg", "tiny_java_labeled.peg"):
        calls.clear()
        grammar = load_grammar(str(grammar_dir / name))
        annotated, _ = annotate(grammar, AnnotatorConfig(
            preserve_existing=name == "tiny_java_labeled.peg"))
        Analysis(annotated).follow_of("Prog")
        reparsed = parse_grammar(serialize_grammar(annotated))
        assert calls == [grammar, reparsed]


def test_grammars_from_the_same_text_parse_alike(grammar_dir):
    path = str(grammar_dir / "tiny_java_annotated.peg")
    one, other = load_grammar(path), load_grammar(path)
    assert _outcome_json(Session(one, BROKEN).parse()) == \
        _outcome_json(Session(other, BROKEN).parse())


def _analysed_and_stripped(text: str) -> Grammar:
    g = parse_grammar(text.replace("AA*", "[AA*]^l"))
    Analysis(g).follow_of("start")
    assert Session(strip_labels(g), "a a").parse().ok
    return g


def test_dropped_grammar_leaves_no_cache_entry():
    # a grammar keeps what is compiled from it, and both are freed together
    text = "%start start ;\nstart <- AA* ;\nAA <- 'a' ;"
    for make, is_own_form in (
            # a grammar with no ?, + or & is its own desugared form
            (lambda: parse_grammar(text), True),
            (lambda: model.desugar(parse_grammar(text)), True),
            (lambda: annotate(parse_grammar(text))[0], True),
            (lambda: _analysed_and_stripped(text), True),
            (lambda: parse_grammar(text.replace("AA*", "AA+")), False)):
        grammar = make()
        session = Session(grammar, "a a")
        assert session.parse().ok
        compiled = grammar._compiled
        assert (compiled is grammar) == is_own_form
        assert grammar._valid and compiled._valid and session.grammar is compiled
        assert compiled._lexer is not None and compiled._matcher is session._matcher
        refs = [weakref.ref(x) for x in (grammar, compiled, compiled._matcher)]
        del grammar, session, compiled
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3


def _nested(depth: int) -> str:
    return ("public class A { public static void main ( String [ ] a ) { x = "
            + "( " * depth + "1" + " )" * depth + " ; } }")


def _reference_dumps(data, **options) -> str:
    """json.dumps of a deep tree, which recurses in C about 10 times per
    paren level, past the default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        return json.dumps(data, **options)
    finally:
        sys.setrecursionlimit(limit)


def test_deep_nesting_parses_as_before(tiny_java_annotated_file):
    outcome = Session(tiny_java_annotated_file, _nested(1000)).parse()
    assert outcome.ok
    # digest of the tree the interpreting engine built for this input
    digest = hashlib.sha256(_reference_dumps(tree_to_json(outcome.tree)).encode())
    assert digest.hexdigest() == \
        "1fd8d8d109fcc78b3ac0e1438078294610b0b948922581b605b46cc0acd91e5c"
    # the interpreting engine reached about 1420 levels under the same
    # recursion limit; compiled rules must take no more frames per level
    assert Session(tiny_java_annotated_file, _nested(1400)).parse().ok


def _flat(root: dict) -> list:
    """The nodes of a tree's dicts in preorder, each with the count of its
    children in place of them."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if "children" in node:
            out.append({**node, "children": len(node["children"])})
            stack.extend(reversed(node["children"]))
        else:
            out.append(node)
    return out


def test_deep_trees_convert_under_the_default_recursion_limit(tiny_java_annotated_file):
    outcome = Session(tiny_java_annotated_file, _nested(1400)).parse()
    assert outcome.ok
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        data = tree_to_json(outcome.tree)
        text = tree_to_json_text(outcome.tree)
        back = tree_from_json(data)
        flat = _flat(data)
        flat_back = _flat(tree_to_json(back))
        same = ast_structural_eq(outcome.tree, back)
    finally:
        sys.setrecursionlimit(limit)
    assert same and flat_back == flat
    assert text == _reference_dumps(data, separators=(",", ":"))
    depth, stack = 0, [(data, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in node.get("children", ()))
    assert depth > 5 * 1400


def test_deep_trees_compare_equal(tiny_java_annotated_file):
    # equality compares the trees' JSON texts, whose writer keeps a stack
    # of its own
    tree = Session(tiny_java_annotated_file, _nested(3000)).parse().tree
    assert tree == tree
    assert tree == tree_from_json(tree_to_json(tree))


def test_parsing_and_converting_leave_no_reference_cycles(tiny_java_annotated_file):
    g = tiny_java_annotated_file
    text = ("public class A { public static void main ( String [ ] a ) { "
            + "x = x + 1 ; " * 330 + "} }")
    for index in (900, 500, 100):
        text = delete_token(g, text, index).text
    Session(g, text).parse()
    gc.collect()
    gc.disable()
    try:
        outcome = Session(g, text).parse()
        assert len(outcome.tree.kinds) > 1900 and outcome.errors
        data = tree_to_json(outcome.tree)
        back = tree_from_json(data)
        assert ast_structural_eq(back, outcome.tree)
        root = tree_to_json(back)
        del outcome, data, back, root
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_too_deep_nesting_fails_without_a_traceback(tiny_java_annotated_file):
    limit = sys.getrecursionlimit()
    # a paren level takes about 6 frames, so 3000 levels parse and 6000
    # overflow the stack budget of 20000 frames
    assert Session(tiny_java_annotated_file, _nested(3000)).parse().ok
    text = _nested(6000)
    outcome = Session(tiny_java_annotated_file, text).parse()
    assert outcome.status == "failed"
    assert outcome.tree is None
    assert outcome.fail_label == "fail"
    assert [(e.label, e.message) for e in outcome.errors] == \
        [("fail", "input nested too deeply")]
    result = Session(tiny_java_annotated_file, text).match_expr(NonTerminal("Prog"))
    assert (result.status, result.end, result.fail_label) == ("failed", None, "fail")
    assert [e.message for e in result.errors] == ["input nested too deeply"]
    assert sys.getrecursionlimit() == limit
    # the Grammar is still fine for the next parse
    assert Session(tiny_java_annotated_file, _nested(10)).parse().ok


def test_too_deep_nesting_is_reported_where_other_errors_are():
    # on input that is layout only, "input nested too deeply" and
    # "unexpected input" at token 0 both point past the layout
    n = 25000
    deep = parse_grammar(
        "%start r0 ;\n" + f"r{n} <- AA ;\n"
        + "".join(f"r{i} <- AA? r{i + 1} ;\n" for i in reversed(range(n)))
        + "AA <- 'a' ;")
    shallow = parse_grammar("start <- AA ;\nAA <- 'a' ;")
    for text, offset, line, col in (("   ", 3, 1, 4), ("\n\n  ", 4, 3, 3)):
        for grammar, message in ((deep, "input nested too deeply"),
                                 (shallow, "unexpected input")):
            outcome = Session(grammar, text).parse()
            assert [(e.message, e.token_index, e.offset, e.line, e.col)
                    for e in outcome.errors] == [(message, 0, offset, line, col)]


def test_a_self_reaching_lexical_rule_is_a_grammar_error_before_any_scan():
    # the lexer once interpreted such a rule, and ran out of stack on a
    # token nested 20000 deep
    text = "%start start ;\nstart <- NEST* ;\nNEST <- '(' NEST* ')' ;"
    with pytest.raises(GrammarError, match="^lexical rule NEST reaches itself"):
        parse_grammar(text)
    nest = Sequence(Sequence(Literal("("), Star(NonTerminal("NEST"))), Literal(")"))
    grammar = Grammar({"start": Star(Terminal("NEST"))}, {"NEST": nest}, "start")
    for entry in (Session, engine.parse):
        with pytest.raises(GrammarError, match="^lexical rule NEST reaches itself"):
            entry(grammar, "(" * 20000 + ")" * 20000)


def test_a_token_of_any_length_scans_in_one_match():
    # the whole input is scanned first: a long token at the end is one
    # token, and the parse fails where it stops, at the first token
    grammar = parse_grammar("%start start ;\nstart <- BB PARENS* ;\n"
                            "PARENS <- '(' [()]* ;\nAA <- 'a' ;\nBB <- 'b' ;")
    text = "a " * 40 + "(" * 20000 + ")" * 20000
    stream = TokenStream(grammar, text)
    assert stream.kinds == ["AA"] * 40 + ["PARENS"]
    assert stream.spans[-1] == (80, 40080)
    outcome = Session(grammar, text).parse()
    assert [(e.message, e.token_index, e.offset) for e in outcome.errors] == \
        [("unexpected input", 0, 0)]
    result = Session(grammar, text).match_expr(NonTerminal("start"))
    assert (result.status, result.fail_label, result.errors) == ("failed", "fail", [])


def test_too_deep_a_match_past_end_of_input_fails_without_a_traceback():
    # a rule chain longer than the stack is deep, entered after the choice
    # has moved farthest to the position matched at
    n = 25000
    text = ("%start r0 ;\n" + f"r{n} <- AA? ;\n"
            + "".join(f"r{i} <- r{i + 1} ;\n" for i in reversed(range(1, n)))
            + "r0 <- AA? r1 ;\nAA <- 'a' ;")
    grammar = parse_grammar(text)
    for pos, offset in ((1, 1), (4, 3)):
        result = Session(grammar, "a  ").match_expr(NonTerminal("r0"), pos)
        assert (result.status, result.fail_label) == ("failed", "fail")
        assert [(e.message, e.token_index, e.offset) for e in result.errors] == \
            [("input nested too deeply", pos, offset)]


def _compiled(monkeypatch) -> list[str]:
    """The source of every function the engine compiles from now on."""
    sources: list[str] = []

    def counted(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(engine, "compile", counted, raising=False)
    return sources


def test_a_recovery_expression_is_compiled_when_first_used(monkeypatch, grammar_dir):
    g = load_grammar(str(grammar_dir / "tiny_java_annotated.peg"))
    sources = _compiled(monkeypatch)
    assert parse(g, _nested(3)).ok
    # the rules and their helpers, and none of the 40 recovery expressions
    assert sources and not any("while kinds[pos] not in" in s for s in sources)
    del sources[:]
    # a missing ")" recovers with Err_AtomExp_2's (!p .)*, then a missing
    # ";" with Err_AssignStmt_3's, and the same again compiles nothing
    broken = ("public class A { public static void main ( String [ ] a ) { "
              "x = ( 1 ; y = 2 } }")
    first = parse(g, broken)
    assert [e.label for e in first.errors] == ["Err_AtomExp_2", "Err_AssignStmt_3"]
    assert len(sources) == 2 and all("while kinds[pos] not in {" in s for s in sources)
    assert parse(g, broken).errors == first.errors
    assert len(sources) == 2


def test_nested_plus_compiles_in_linear_time(monkeypatch):
    # desugaring p+ to p p* shares p, so the desugared grammar is a DAG
    # that doubles per level when walked as a tree; the shared p is one
    # helper function
    sources = _compiled(monkeypatch)

    def count(depth: int) -> tuple[int, int, int]:
        g = parse_grammar("start <- " + "(" * depth + "'a'" + ")+" * depth + " ;")
        sources.clear()
        assert Session(g, "a").parse().ok
        walked = len(model._walk(model.desugar(g).rules["start"]))
        return len(sources), sum(s.count("\n") for s in sources), walked
    (functions_8, lines_8, walked_8), (functions_16, lines_16, walked_16) = count(8), count(16)
    assert functions_16 <= 2 * functions_8 + 2
    assert lines_16 <= 2 * lines_8 + 10
    assert walked_16 <= 2 * walked_8 + 10


def test_matching_a_rule_reference_compiles_nothing(monkeypatch, tiny_java_annotated_file):
    session = Session(tiny_java_annotated_file, _nested(3))
    sources = _compiled(monkeypatch)
    assert session.match_expr(NonTerminal("Prog")).end == len(session.stream.kinds)
    assert session.match_expr(NonTerminal("Exp"), 17).end == 24
    assert sources == []
    # any other expression is compiled on the spot
    assert session.match_expr(Sequence(NonTerminal("Exp"), Terminal("SEMI")), 17).end == 25
    assert len(sources) == 1
