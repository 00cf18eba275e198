import copy
import functools
import gc
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from pegrec import engine
from pegrec.annotate import AnnotatorConfig, annotate
from pegrec.dsl import load_grammar, parse_grammar
from pegrec.engine import ErrorNode, Session, Tree, match, parse
from pegrec.engine import tree_from_json, tree_to_json, tree_to_json_text
from pegrec.evaluate import delete_token, duplicate_token, token_spans
from pegrec.lexer import Token
from pegrec.model import (AnyToken, Choice, GrammarError, Literal, NonTerminal,
                          Not, Optional, Sequence, Star, Terminal, Throw, desugar)

from helpers import (all_inputs, fix_factorial, naive_match, random_grammar,
                     random_program, render_input)

ABC = "AA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;\n"


def g(text: str):
    # lexical rules first; the recovery section must come last
    return parse_grammar(ABC + "%start start ;\n" + text)


# --- plain matching -----------------------------------------------------------

def test_matches_and_builds_tree():
    out = parse(g("start <- AA BB* ;"), "a b b")
    assert out.ok
    root = tree_to_json(out.tree)
    assert root["rule"] == "start"
    assert [c["token"] for c in root["children"]] == ["AA", "BB", "BB"]


def test_failure_reports_position():
    out = parse(g("start <- AA BB ;"), "a c")
    assert out.status == "failed"
    assert out.tree is None
    assert len(out.errors) == 1
    assert out.errors[0].message == "unexpected input"
    # frontier: end of the last consumed token
    assert out.errors[0].offset == 1


def test_trailing_input_is_an_error_but_tree_survives():
    out = parse(g("start <- AA ;"), "a b")
    assert out.status == "matched"
    assert out.tree is not None
    assert [e.message for e in out.errors] == ["expected end of input"]


def test_backtracking_choice():
    out = parse(g("start <- AA BB / AA CC ;"), "a c")
    assert out.ok
    assert [c["token"] for c in tree_to_json(out.tree)["children"]] == ["AA", "CC"]


def test_star_stops_on_failure_and_backtracks_cleanly():
    out = parse(g("start <- (AA BB)* AA CC ;"), "a b a b a c")
    assert out.ok
    assert [c["token"] for c in tree_to_json(out.tree)["children"]] == \
        ["AA", "BB", "AA", "BB", "AA", "CC"]


def test_predicates():
    assert parse(g("start <- !BB AA ;"), "a").ok
    assert parse(g("start <- !AA AA ;"), "a").status == "failed"
    assert parse(g("start <- &AA AA ;"), "a").ok


def test_eof_terminal():
    assert parse(g("start <- AA EOF ;"), "a").ok
    out = parse(g("start <- AA EOF ;"), "a b")
    assert out.status == "failed"


def test_any_token_matches_stray_characters():
    out = parse(g("start <- AA . AA ;"), "a ? a")
    assert out.ok
    assert tree_to_json(out.tree)["children"][1]["token"] is None


def test_nullable_star_body_terminates():
    out = parse(g("start <- (AA / '')* BB ;"), "a a b")
    assert out.ok


def test_rule_spans_cover_consumed_text():
    out = parse(g("start <- Item Item ;\nItem <- AA BB ;"), "a b  a b")
    root = tree_to_json(out.tree)
    first, second = root["children"]
    assert first["span"] == [0, 3]
    assert second["span"] == [5, 8]
    assert root["span"] == [0, 8]


# --- labels -------------------------------------------------------------------

def test_throw_aborts_parse_with_label():
    out = parse(g("start <- AA [BB]^miss ;"), "a c")
    assert out.status == "failed"
    assert out.fail_label == "miss"
    assert [e.label for e in out.errors] == ["miss"]
    assert out.errors[0].message == "expected BB"


def test_choice_does_not_catch_labels():
    out = parse(g("start <- AA [BB]^miss / AA CC ;"), "a c")
    assert out.status == "failed"
    assert out.fail_label == "miss"


def test_choice_catches_plain_fail():
    out = parse(g("start <- AA BB / AA CC ;"), "a c")
    assert out.ok


def test_star_propagates_labels():
    out = parse(g("start <- (AA [BB]^miss)* CC ;"), "a b a c")
    assert out.status == "failed"
    assert out.fail_label == "miss"


def test_star_absorbs_plain_fail():
    out = parse(g("start <- (AA BB)* AA CC ;"), "a b a c")
    assert out.ok


def test_not_converts_label_to_success():
    out = parse(g("start <- !(AA [BB]^miss) . . ;"), "a c")
    assert out.ok
    assert not out.errors


def test_and_predicate_sees_through_labels():
    out = parse(g("start <- &(AA [BB]^miss) AA BB ;"), "a c")
    # the lookahead converts the throw into plain failure of the predicate
    assert out.status == "failed"
    assert out.fail_label == "fail"


def test_label_positions_use_frontier():
    out = parse(g("start <- AA [BB]^miss ;"), "a\nc")
    err = out.errors[0]
    assert (err.line, err.col) == (1, 2)  # end of 'a', not start of 'c'


# --- recovery -----------------------------------------------------------------

REC = """
start <- AA [BB]^miss CC ;
%recovery
miss <- (!CC .)* ;
"""


def test_recovery_resumes_parse():
    out = parse(g(REC), "a x y c")
    assert out.status == "matched"
    assert [e.label for e in out.errors] == ["miss"]
    children = tree_to_json(out.tree)["children"]
    assert [sorted(c) for c in children] == \
        [["span", "token"], ["error", "expected", "span"], ["span", "token"]]
    err = children[1]
    assert err["expected"] == "BB"
    assert err["span"] == [2, 5]  # the skipped 'x y'


def test_recovery_consuming_nothing_leaves_empty_placeholder():
    out = parse(g(REC), "a c")
    assert out.status == "matched"
    err = tree_to_json(out.tree)["children"][1]
    assert "error" in err
    assert err["span"] == [2, 2]


def test_unrecovered_label_fails():
    out = parse(g("start <- AA [BB]^miss CC ;"), "a x c")
    assert out.status == "failed"
    assert [e.label for e in out.errors] == ["miss"]


def test_failed_recovery_reports_once():
    text = """
start <- AA [BB]^miss CC ;
%recovery
miss <- BB ;
"""
    out = parse(g(text), "a x c")
    assert out.status == "failed"
    assert [e.label for e in out.errors] == ["miss"]


def test_no_recovery_inside_predicates():
    text = """
start <- !(AA [BB]^miss) . . / AA CC ;
%recovery
miss <- (!CC .)* ;
"""
    out = parse(g(text), "a c")
    # the throw inside the lookahead must not log an error or skip input
    assert out.ok


def test_no_recovery_inside_recovery():
    text = """
start <- AA [BB]^miss CC ;
Broken <- AA [BB]^inner ;
%recovery
miss <- Broken / (!CC .)* ;
inner <- . ;
"""
    out = parse(g(text), "a x c")
    assert out.status == "matched"
    assert [e.label for e in out.errors] == ["miss"]


def test_same_label_same_position_recovers_once():
    # after recovery the star retries the same body at the same spot; the
    # second throw must not recover again or the loop would never settle
    text = """
start <- (AA [BB]^miss)* CC ;
%recovery
miss <- '' ;
"""
    out = parse(g(text), "a x a b c")
    assert out.status in ("matched", "failed")  # above all: terminates


def test_max_errors_stops_recovery():
    text = """
start <- (AA / [BB]^miss)* EOF ;
%recovery
miss <- . ;
"""
    out = parse(g(text), "c " * 10, max_errors=3)
    assert out.status == "failed"
    assert len(out.errors) == 3


def test_max_errors_below_one_is_a_value_error():
    # a parse that may record no error would fail with none to report; the
    # CLI's --max-errors is checked alike
    grammar = g("start <- (AA / [BB]^miss)* EOF ;\n%recovery\nmiss <- . ;\n")
    assert parse(grammar, "c", max_errors=1).errors[0].label == "miss"
    for max_errors in (0, -1):
        message = f"^max_errors must be at least 1, got {max_errors}$"
        with pytest.raises(ValueError, match=message):
            parse(grammar, "c", max_errors=max_errors)
        with pytest.raises(ValueError, match=message):
            match(grammar, NonTerminal("start"), "c", max_errors=max_errors)
        with pytest.raises(ValueError, match=message):
            Session(grammar, "c", max_errors=max_errors)


def test_errors_rolled_back_with_backtracking():
    # first alternative recovers, then fails on CC; second alternative
    # succeeds, so the recovered error must not be reported
    text = """
start <- AA [BB]^miss CC / AA BB BB ;
%recovery
miss <- '' ;
"""
    out = parse(g(text), "a b b")
    assert out.ok
    assert out.errors == []


def test_guard_outlives_a_discarded_alternative():
    # A recovers l at 0 and then fails on YY.  Its error is rolled back, but
    # the guard set is not, so B's throw of l at 0 finds (l, 0) blocked and
    # the parse fails.  This pins today's behaviour; whether the guard
    # should roll back with the choice is open (ROADMAP item 3).
    grammar = parse_grammar("""
start <- A / B ;
A <- [XX]^l YY ;
B <- [XX]^l ZZ ;
XX <- 'x' ; YY <- 'y' ; ZZ <- 'z' ;
%recovery
l <- '' ;
""")
    out = parse(grammar, "z")
    assert out.status == "failed"
    assert out.fail_label == "l"
    assert len(out.errors) == 1


def test_match_entry_point():
    grammar = g("start <- AA BB ;")
    result = match(grammar, NonTerminal("start"), "a b c")
    assert result.status == "matched"
    assert result.end == 2
    bad = match(grammar, NonTerminal("start"), "b")
    assert bad.status == "failed"


def test_messages_override():
    out = parse(g("start <- AA [BB]^miss ;"), "a c",
                messages={"miss": "b expected here"})
    assert out.errors[0].message == "b expected here"


def test_multiple_recoveries_in_sequence():
    text = """
start <- AA [BB]^m1 CC [BB]^m2 CC ;
%recovery
m1 <- (!CC .)* ;
m2 <- (!CC .)* ;
"""
    out = parse(g(text), "a c c")
    assert out.status == "matched"
    assert [e.label for e in out.errors] == ["m1", "m2"]


# --- tree serialization ---------------------------------------------------------

def test_tree_json_round_trip(grammar_dir, tiny_java):
    annotated, _ = annotate(tiny_java)
    sources = [_factorial(grammar_dir, fixed=True), _factorial(grammar_dir, fixed=False),
               random_program(5), "public class A { x = @ ; }"]
    # empty rules, ErrorNodes and names that JSON escapes
    odd = parse_grammar("%start début ;\ndébut <- Ø [BB]^\u00e9 Ø 'é\\\"'* ;\nØ <- '' ;\n"
                        "BB <- 'b' ;\n%recovery\n\u00e9 <- (!BB .)* ;\n")
    outcomes = [parse(g(REC), "a x c")] + [parse(annotated, text) for text in sources]
    outcomes += [parse(odd, text) for text in ("", "b", 'é" x b', 'b é" é"')]
    assert [len(o.errors) for o in outcomes[:3]] == [1, 0, 2]
    assert [len(o.errors) for o in outcomes[-4:]] == [1, 0, 2, 0]
    assert all(o.tree is not None for o in outcomes)
    for outcome in outcomes:
        data = tree_to_json(outcome.tree)
        back = tree_from_json(data)
        assert back.__class__ is Tree
        assert back == outcome.tree
        assert tree_to_json(back) == data
        # what pegrec parse --json prints
        text = json.dumps(data, separators=(",", ":"))
        assert tree_to_json_text(outcome.tree) == text
        assert tree_to_json_text(back) == text
        # every error node comes back as an ErrorNode
        errors = [n for n in _preorder(data) if "error" in n]
        assert back.error_nodes == [ErrorNode(n["error"], n["expected"], tuple(n["span"]))
                                    for n in errors]
        assert all(n.__class__ is ErrorNode for n in back.error_nodes)


def test_text_dicts_and_equality_agree_on_random_grammars():
    # every tree of random_grammar(0..99), plain and annotated, on every
    # input of up to 3 tokens, stray characters too
    texts = [" ".join(chars) for n in range(4) for chars in itertools.product("abc?", repeat=n)]
    trees = recovered = 0
    for seed in range(100):
        for grammar in (random_grammar(seed), annotate(random_grammar(seed))[0]):
            for text in texts:
                tree = parse(grammar, text).tree
                if tree is None:
                    continue
                data = tree_to_json(tree)
                written = tree_to_json_text(tree)
                assert json.loads(written) == data, (seed, text)
                assert tree_from_json(data) == tree, (seed, text)
                trees += 1
                recovered += '"error":' in written
    assert trees > 8000 and recovered > 100


def test_tree_from_json_reads_rule_spans_off_the_children():
    data = {"rule": "S", "span": [2, 9], "children": [
        {"token": "AA", "span": [5, 9]},
        {"rule": "E", "span": [7, 8], "children": []}]}
    assert tree_to_json(tree_from_json(data)) == {"rule": "S", "span": [5, 7], "children": [
        {"token": "AA", "span": [5, 9]},
        {"rule": "E", "span": [7, 7], "children": []}]}


def test_tree_nodes_are_plain_dicts():
    out = parse(g(REC), "a x c")
    assert out.tree.__class__ is Tree
    assert repr(out.tree) == "<Tree of 4 nodes>"
    with pytest.raises(TypeError):
        hash(out.tree)
    assert tree_to_json(out.tree) == {"rule": "start", "span": [0, 5], "children": [
        {"token": "AA", "span": [0, 1]},
        {"error": "miss", "expected": "BB", "span": [2, 3]},
        {"token": "CC", "span": [4, 5]}]}
    # the tree keeps its error node as an ErrorNode, a NamedTuple
    [err] = out.tree.error_nodes
    assert repr(err) == "ErrorNode(label='miss', expected='BB', span=(2, 3))"
    assert err.__class__ is ErrorNode and ErrorNode._fields == ("label", "expected", "span")
    assert err == ("miss", "BB", (2, 3))


@pytest.mark.parametrize("data, message", [
    ({}, "tree node has no 'rule', 'token' or 'error': {}"),
    ({"token": "AA"}, "span is not two ints: None"),
    ([], "tree node is not an object: []"),
    (3, "tree node is not an object: 3"),
    ({"span": [0, 1]}, "tree node has no 'rule', 'token' or 'error': {'span': [0, 1]}"),
    ({"token": "AA", "span": [0]}, "span is not two ints: [0]"),
    ({"token": "AA", "span": [0, "1"]}, "span is not two ints: [0, '1']"),
    ({"token": "AA", "span": [0, 1.0]}, "span is not two ints: [0, 1.0]"),
    ({"token": "AA", "span": [True, 1]}, "span is not two ints: [True, 1]"),
    ({"token": "AA", "span": "ab"}, "span is not two ints: 'ab'"),
    ({"token": 3, "span": [0, 1]}, "'token' of a tree node is not a string: 3"),
    ({"rule": None, "span": [0, 1], "children": []},
     "'rule' of a tree node is not a string: None"),
    ({"rule": "start", "span": [0, 1]}, "'children' of a tree node is not a list: None"),
    ({"rule": "start", "span": [0, 1], "children": [3]}, "tree node is not an object: 3"),
    ({"rule": "start", "span": [0, 1], "children": [{"token": "AA", "span": [0, 1, 2]}]},
     "span is not two ints: [0, 1, 2]"),
    ({"error": "miss", "span": [0, 1]}, "'expected' of a tree node is not a string: None"),
], ids=["empty", "no-span", "list", "number", "no-kind", "short-span", "str-in-span",
        "float-in-span", "bool-in-span", "str-span", "token-kind", "rule-name",
        "no-children", "child", "child-span", "no-expected"])
def test_tree_from_json_rejects_what_is_not_a_tree(data, message):
    with pytest.raises(ValueError) as exc:
        tree_from_json(data)
    assert str(exc.value) == message


def test_tree_from_json_shortens_what_it_quotes():
    with pytest.raises(ValueError) as exc:
        tree_from_json({"rule": "start", "span": [0, 1], "children": "x" * 10000})
    assert len(str(exc.value)) < 100


def _factorial(grammar_dir, fixed: bool) -> str:
    """grammars/factorial.java, with its two syntax errors or without."""
    text = (grammar_dir / "factorial.java").read_text()
    return fix_factorial(text) if fixed else text


def _tracked_objects(root) -> int:
    """How many objects that the cyclic collector tracks root reaches,
    classes left out."""
    seen, stack, count = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not gc.is_tracked(obj) or isinstance(obj, type):
            continue
        seen.add(id(obj))
        count += 1
        stack.extend(gc.get_referents(obj))
    return count


def _statements(count: int) -> str:
    return ("public class A { public static void main ( String [ ] a ) { "
            + "x = x + 1 ; " * count + "} }")


def test_an_outcome_holds_as_many_tracked_objects_at_any_size(tiny_java):
    small = parse(tiny_java, _statements(164))
    large = parse(tiny_java, _statements(1664))
    assert small.ok and large.ok
    assert (len(small.tree.kinds), len(large.tree.kinds)) == (1001, 10001)
    gc.collect()
    assert _tracked_objects(small) == _tracked_objects(large)


# --- token columns and shared spans ---------------------------------------------

def _preorder(root: dict) -> list[dict]:
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.get("children", ())))
    return out


def _parsed_sessions(grammar_dir, tiny_java) -> list:
    """(session, outcome) of a recovered parse of factorial.java, a clean
    parse of a generated program, and a parse that steps over stray
    characters and comments."""
    annotated, _ = annotate(tiny_java)
    sources = [(annotated, (grammar_dir / "factorial.java").read_text()),
               (tiny_java, random_program(3)),
               (annotated, "public class A { public static void main ( String [ ] a )"
                           " { int x = 1 ; // a comment\n x = @ 2 # ; } } // last")]
    out = []
    for grammar, source in sources:
        session = Session(grammar, source)
        out.append((session, session.parse()))
    assert [o.status for _, o in out] == ["matched"] * 3
    assert [bool(o.errors) for _, o in out] == [True, False, True]
    return out


def test_a_parse_leaves_no_token_object_tracked(grammar_dir, tiny_java):
    def tracked_tokens() -> int:
        return sum(1 for obj in gc.get_objects() if obj.__class__ is Token)

    before = tracked_tokens()
    parsed = _parsed_sessions(grammar_dir, tiny_java)
    # the sessions, their streams and trees are all still alive here
    assert all(len(session.stream.kinds) > 10 for session, _ in parsed)
    assert tracked_tokens() == before


def test_token_rows_are_token_indices(grammar_dir, tiny_java):
    for session, outcome in _parsed_sessions(grammar_dir, tiny_java):
        tree = outcome.tree
        assert tree.kinds is session.stream.kinds and tree.spans is session.stream.spans
        tokens = [row for row in tree.rows if row >= 0]
        assert tokens == sorted(set(tokens))
        if not outcome.errors:
            assert tokens == list(range(len(tree.spans)))


def test_token_leaves_carry_the_stream_spans(grammar_dir, tiny_java):
    for session, outcome in _parsed_sessions(grammar_dir, tiny_java):
        spans = session.stream.spans
        index = {span[0]: i for i, span in enumerate(spans)}
        leaves = [n["span"] for n in _preorder(tree_to_json(outcome.tree)) if "token" in n]
        for span in leaves:
            assert tuple(span) == spans[index[span[0]]]
        if not outcome.errors:
            assert [index[span[0]] for span in leaves] == list(range(len(spans)))


def test_rule_node_spans_cover_their_children(grammar_dir, tiny_java):
    unary = 0
    for _, outcome in _parsed_sessions(grammar_dir, tiny_java):
        for node in _preorder(tree_to_json(outcome.tree)):
            children = node.get("children")
            if not children:
                continue
            assert node["span"] == [children[0]["span"][0], children[-1]["span"][1]]
            if len(children) == 1:
                assert node["span"] is children[0]["span"]
                unary += 1
    assert unary > 50


def _shared_containers(nodes: list[dict]) -> int:
    """Checks that the nodes share no dict or children list and no span
    list but a one-child rule's; returns the count of one-child rules."""
    rules = [node for node in nodes if "rule" in node]
    one_child = sum(len(node["children"]) == 1 for node in rules)
    assert len({id(node) for node in nodes}) == len(nodes)
    assert len({id(node["span"]) for node in nodes}) == len(nodes) - one_child
    assert len({id(node["children"]) for node in rules}) == len(rules)
    return one_child


def test_a_tree_shares_nothing_but_one_child_rules_spans(grammar_dir, tiny_java):
    assert sum(_shared_containers(_preorder(tree_to_json(outcome.tree)))
               for _, outcome in _parsed_sessions(grammar_dir, tiny_java)) > 50


@pytest.mark.parametrize("grammar, text, at", [
    ("start <- AA part CC ;\npart <- [BB]^miss ;\n%recovery\nmiss <- (!CC .)* ;",
     "a x c", 2),
    ("start <- wrap AA ;\nwrap <- opt ;\nopt <- BB? ;", "a", 1),
], ids=["error-node", "empty-rule"])
def test_a_one_child_rule_shares_any_only_child_s_span(grammar, text, at):
    # at: the one-child rule's place in preorder, just before its child
    nodes = _preorder(tree_to_json(parse(g(grammar), text).tree))
    assert _shared_containers(nodes) == 1
    parent, child = nodes[at:at + 2]
    assert "error" in child or child["children"] == []
    assert parent["children"] == [child] and parent["span"] is child["span"]


def test_a_match_result_shares_one_child_rules_spans():
    result = match(g("start <- wrap ;\nwrap <- AA ;"), NonTerminal("start"), "a b")
    [start] = result.children
    nodes = _preorder(start)
    assert [node.get("rule", node.get("token")) for node in nodes] == ["start", "wrap", "AA"]
    assert _shared_containers(nodes) == 2
    assert start["span"] is nodes[1]["span"] is nodes[2]["span"] == [0, 1]


def test_editing_a_json_copy_of_a_tree_leaves_the_tree_alone():
    tree = tree_to_json(parse(g("start <- wrap BB ;\nwrap <- AA ;"), "a b").tree)
    text = json.dumps(tree)
    unshared = json.loads(text)
    unshared["children"][0]["span"][1] = 7
    unshared["children"][0]["children"].clear()
    assert json.dumps(tree) == text
    assert unshared["children"][0]["children"] == [] and tree["children"][0]["children"]
    assert unshared["children"][0]["span"] == [0, 7]
    # copy.deepcopy keeps the sharing of the tree it copies
    deep = copy.deepcopy(tree)
    assert deep == tree and deep["children"][0]["span"] is deep["children"][0]["children"][0]["span"]


# --- expressions given to match -------------------------------------------------

@pytest.mark.parametrize("expr, message", [
    (NonTerminal("nope"), "undefined nonterminal 'nope' in matched expression"),
    (Sequence(Terminal("AA"), Optional(Terminal("NOPE"))),
     "undefined token kind 'NOPE' in matched expression"),
    (Literal("a"), "character-level pattern in syntactic rule matched expression"),
    (Throw("fail"), "label 'fail' is reserved and cannot be thrown"),
    # hand-built shapes: these once failed as "expression nested too deeply"
    # and with an AttributeError
    ("oops", "matched expression holds a str, not an expression"),
    (Terminal(3), "Terminal.kind in matched expression must be a str"),
], ids=["rule", "token-kind", "literal", "fail", "foreign-node", "kind-type"])
def test_match_rejects_an_expression_the_grammar_cannot_run(expr, message):
    grammar = g("start <- AA ;")
    with pytest.raises(GrammarError) as exc:
        match(grammar, expr, "a")
    assert (exc.value.message, exc.value.line) == (message, None)
    # a literal kind the grammar never uses and EOF are fine: they fail
    assert match(grammar, Terminal("'x'"), "a").status == "failed"
    assert match(grammar, Sequence(Terminal("AA"), Terminal("EOF")), "a").end == 1


def test_match_rejects_an_expression_nested_too_deeply():
    expr = Terminal("AA")
    for _ in range(30000):
        expr = Not(expr)
    with pytest.raises(GrammarError, match="^expression nested too deeply$"):
        match(g("start <- AA ;"), expr, "a")
    assert match(g("start <- AA ;"), Not(Not(Terminal("AA"))), "a").end == 0


# --- differential and property tests --------------------------------------------

def test_differential_against_naive_reference():
    """Engine agrees with the independent reference on every short input
    for a batch of random label-free grammars."""
    for seed in range(25):
        grammar = random_grammar(seed)
        gd = desugar(grammar)
        body = gd.rules[gd.start]
        for seq in all_inputs(5):
            want = naive_match(gd.rules, body, seq, 0)
            got = match(gd, NonTerminal(gd.start), render_input(seq))
            if want is None:
                assert got.status == "failed", (seed, seq)
            else:
                assert got.status == "matched", (seed, seq)
                assert got.end == want, (seed, seq)


@pytest.mark.parametrize("text, line", [
    # EOF inside a sequence
    ("start <- AA EOF / AA BB ;", "if kinds[pos] != 'EOF': return fail(s, pos)"),
    ("start <- AA (BB EOF / CC) ;", "if kinds[pos] != 'EOF': return fail(s, pos)"),
    # '.' as a choice alternative and as a loop body
    ("start <- (BB / .)* EOF ;", "if kinds[pos] != 'EOF': acc.append(pos); r = pos + 1"),
    ("start <- (. / BB) CC ;", "if kinds[pos] != 'EOF': acc.append(pos); r = pos + 1"),
    ("start <- AA .* ;", "if kinds[pos] != 'EOF': acc.append(pos); r = pos + 1"),
])
def test_eof_and_any_token_compile_to_what_the_reference_matches(monkeypatch, text, line):
    sources: list[str] = []

    def recording_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr("pegrec.engine.compile", recording_compile, raising=False)
    grammar = desugar(g(text))
    for seq in all_inputs(4):
        want = naive_match(grammar.rules, grammar.rules["start"], seq, 0)
        got = match(grammar, NonTerminal("start"), render_input(seq))
        assert (got.end if got.status == "matched" else None) == want, seq
    # the grammar went through the emitter branch under test
    assert line in [x.strip() for source in sources for x in source.splitlines()]


@st.composite
def _program_chunks(draw):
    return " ".join(draw(st.lists(
        st.sampled_from(["a", "b", "c", "a b", "b c"]), max_size=8)))


@given(_program_chunks(), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_parse_is_deterministic(text, seed):
    grammar = random_grammar(seed % 40)
    first = parse(grammar, text)
    second = parse(grammar, text)
    assert first.status == second.status
    assert [e.label for e in first.errors] == [e.label for e in second.errors]
    assert first.tree == second.tree


@given(st.integers(0, 10 ** 6), st.lists(st.sampled_from("abc"), max_size=6))
@settings(max_examples=120, deadline=None)
def test_match_never_overruns_and_is_a_prefix(seed, letters):
    """A successful match consumes a prefix of the tokens, never more."""
    grammar = random_grammar(seed % 50)
    text = " ".join(letters)
    result = match(grammar, NonTerminal(grammar.start), text)
    if result.status == "matched":
        assert 0 <= result.end <= len(letters)


@functools.cache
def _grammar_form(seed: int, form: str):
    """random_grammar(seed) as written, annotated, or annotated with every
    rule in star mode; built once per test run."""
    g = random_grammar(seed)
    if form == "plain":
        return g
    config = AnnotatorConfig(star_mode_rules=tuple(g.rules) if form == "star" else ())
    return annotate(g, config)[0]


# text pieces: the tokens, layout, a comment opener, and characters that
# start no token of the a/b/c grammars
_ODD_TEXT = st.lists(st.sampled_from(
    ["a", "b", "c", " ", "\n", "\t", "//", "'", '"', "[", "]", "(", ")", "é", "\x00"]),
    max_size=12).map("".join)


@given(st.integers(0, 199), st.sampled_from(["plain", "annotated", "star"]), _ODD_TEXT)
@settings(max_examples=300, deadline=None)
def test_every_parse_and_match_returns_an_outcome(seed, form, text):
    grammar = _grammar_form(seed, form)
    outcome = parse(grammar, text)
    assert isinstance(outcome, engine.ParseOutcome)
    assert (outcome.tree is None) == (outcome.status == "failed")
    if outcome.status == "failed":
        assert outcome.errors
    for name in grammar.rules:
        for pos in range(9):
            assert isinstance(match(grammar, NonTerminal(name), text, pos), engine.MatchResult)


# --- token dispatch -------------------------------------------------------------
#
# A choice alternative, star body or predicate body is skipped at a token
# outside its FIRST set only when running it could do nothing but fail
# plainly there.  These pin the cases where FIRST alone would be wrong.

def test_annotated_alternative_is_not_skipped_for_its_label():
    # FIRST([AA]^l) is {AA}, but at b the annotation throws l; skipping it
    # would let BB match
    for text in ("start <- [AA]^l / BB ;", "start <- A / BB ;\nA <- [AA]^l ;",
                 # the throw comes after a prefix that matched nothing
                 "start <- AA? [CC]^l / BB ;"):
        out = parse(g(text), "b")
        assert out.status == "failed", text
        assert out.fail_label == "l", text
        assert [e.label for e in out.errors] == ["l"], text


def test_predicate_headed_alternative_is_not_skipped():
    # the lookahead reads token 1 before the alternative fails at token 0;
    # the fatal error sits where the lookahead got to
    out = parse(g("start <- !(AA BB) CC / BB ;"), "a c")
    assert out.status == "failed"
    assert [(e.message, e.token_index, e.offset) for e in out.errors] == \
        [("unexpected input", 1, 1)]


def test_any_token_headed_alternatives_take_stray_characters():
    # FIRST(.) leaves out stray characters, whose kind is None
    out = parse(g("start <- . CC / AA ;"), "? c")
    assert out.ok
    assert [c["token"] for c in tree_to_json(out.tree)["children"]] == [None, "CC"]
    out = parse(g("start <- (. BB)* EOF ;"), "? b % b")
    assert out.ok
    assert [c["token"] for c in tree_to_json(out.tree)["children"]] == [None, "BB", None, "BB"]
    out = parse(g("start <- (!CC .)* CC ;"), "? a c")
    assert out.ok


def test_choice_at_end_of_input():
    assert parse(g("start <- AA (BB / CC / '') ;"), "a").ok
    assert parse(g("start <- AA (BB / EOF) ;"), "a").ok
    out = parse(g("start <- AA (BB / CC) ;"), "a")
    assert out.status == "failed"
    assert [(e.message, e.token_index, e.offset) for e in out.errors] == \
        [("unexpected input", 1, 1)]
    out = parse(g("start <- AA [BB / CC]^miss ;"), "a")
    assert out.fail_label == "miss"
    out = parse(g("start <- AA (BB CC)* ;"), "a")
    assert out.ok
    assert parse(g("start <- AA !BB ;"), "a").ok


def test_match_at_and_past_end_of_input():
    # a 2-token text whose trailing layout ends at offset 5
    grammar = g("start <- AA ;\nnothing <- '' ;")
    text = "a b  "
    for pos in (2, 3, 5):
        session = Session(grammar, text)
        result = session.match_expr(Terminal("AA"), pos)
        assert (result.status, result.end, result.fail_label) == \
            ("failed", None, "fail"), pos
        assert session.farthest == pos
        # a choice and a lookahead read the kind at pos too
        session = Session(grammar, text)
        assert session.match_expr(Choice(Terminal("AA"), Terminal("BB")), pos).status == \
            "failed", pos
        assert session.farthest == pos
        for expr in (Terminal("EOF"), Star(Terminal("AA")), Not(Terminal("AA")),
                     Not(AnyToken())):
            result = match(grammar, expr, text, pos)
            assert (result.status, result.end, result.children) == \
                ("matched", pos, ()), (expr, pos)
        result = match(grammar, AnyToken(), text, pos)
        assert (result.status, result.end) == ("failed", None), pos
        result = match(grammar, NonTerminal("nothing"), text, pos)
        assert (result.status, result.end, result.children) == \
            ("matched", pos, ({"rule": "nothing", "span": [5, 5], "children": []},)), pos


def test_a_match_far_past_the_end_of_input_answers_as_one_just_past_it():
    # the kind column once grew to the start position, one entry per token
    # index, so this start asked for terabytes
    grammar = g("start <- [AA]^l ;\nnothing <- '' ;\n%recovery\nl <- (!AA .)* ;")
    text = "a b  "
    far = 10**12
    for expr in (Terminal("EOF"), Terminal("AA"), Not(AnyToken()), AnyToken(),
                 NonTerminal("nothing"), NonTerminal("start")):
        near_session, far_session = Session(grammar, text), Session(grammar, text)
        near = near_session.match_expr(expr, 3)
        got = far_session.match_expr(expr, far)
        assert (got.status, got.fail_label, got.children) == \
            (near.status, near.fail_label, near.children), expr
        assert got.end == (None if near.end is None else far), expr
        assert far_session.farthest == (far if near_session.farthest == 3 else 0), expr
        assert [vars(e) for e in got.errors] == \
            [{**vars(e), "token_index": far} for e in near.errors], expr
    # the recovery ran where the match started
    got = match(grammar, NonTerminal("start"), text, far)
    assert [(e.label, e.token_index, e.offset) for e in got.errors] == [("l", far, 5)]
    assert got.children == ({"rule": "start", "span": [5, 5],
                             "children": [{"error": "l", "expected": "AA", "span": [5, 5]}]},)


def test_a_negative_match_position_is_a_value_error():
    grammar = g("start <- AA BB ;")
    for pos in (-1, -2, -3, -4):
        with pytest.raises(ValueError, match=f"^negative token index {pos}$"):
            match(grammar, Terminal("AA"), "a b", pos=pos)
        with pytest.raises(ValueError, match=f"^negative token index {pos}$"):
            Session(grammar, "a b").match_expr(Terminal("AA"), pos)


def test_fatal_error_where_every_alternative_was_skipped():
    # nothing but the inner choice, whose alternatives are both skipped at
    # the second 'a', reaches token 1
    out = parse(g("start <- AA (BB / CC) / BB ;"), "a a")
    assert out.status == "failed"
    assert [(e.message, e.token_index, e.offset) for e in out.errors] == \
        [("unexpected input", 1, 1)]
    # a skipped loop body and a skipped lookahead body leave the same mark
    out = parse(g("start <- AA (BB CC)* CC / BB ;"), "a a")
    assert [e.token_index for e in out.errors] == [1]
    out = parse(g("start <- AA !BB CC / BB ;"), "a a")
    assert [e.token_index for e in out.errors] == [1]
    # inside a lookahead that fails at 0, the skip is all that reaches 1
    for body in ("!BB", "(BB CC)*", "(BB / CC)"):
        out = parse(g(f"start <- !(AA {body}) CC ;"), "a a")
        assert [e.token_index for e in out.errors] == [1], body


def test_a_terminal_that_matches_skips_no_later_alternative(monkeypatch):
    # at the second 'a' the inner choice runs AA, which matches, so BB
    # would not have run: the skip leaves no mark at token 1, and the
    # lookahead that fails at 0 is reported there, as with every guard off
    text = "start <- !(AA (AA / BB)) CC ;"
    out = parse(g(text), "a a")
    assert [(e.message, e.token_index) for e in out.errors] == [("unexpected input", 0)]
    plain = _undispatched(monkeypatch, lambda: g(text))
    assert _facts(parse(plain, "a a")) == _facts(out)


def test_failed_last_alternative_keeps_its_errors():
    # The last alternative recovers, then fails plainly.  No choice rolls
    # its error back, so the failed parse reports it; this pins today's
    # behaviour for a last alternative that is tried.
    text = """
start <- BB / AA [BB]^miss CC ;
%recovery
miss <- '' ;
"""
    out = parse(g(text), "a a")
    assert out.status == "failed"
    assert [e.label for e in out.errors] == ["miss", "fail"]


def _facts(outcome):
    tree = outcome.tree
    return (outcome.status, outcome.end, outcome.fail_label,
            None if tree is None else json.dumps(tree_to_json(tree)),
            tree, [vars(e) for e in outcome.errors])


def _undispatched(monkeypatch, make):
    """A fresh grammar from make(), compiled with every guard None and no
    terminal known to match, so every alternative and every body runs,
    and tests its kind, at every token."""
    grammar = make()
    with monkeypatch.context() as m:
        m.setattr(engine._Matcher, "guard", lambda self, e: None)
        m.setattr(engine._Matcher, "admitted", lambda self, e: None)
        Session(grammar, "")
    return grammar


def test_dispatch_changes_no_outcome_on_random_grammars(monkeypatch):
    texts = [" ".join(chars) for n in range(5)
             for chars in itertools.product("abc?", repeat=n)]
    labeled = 0
    for seed in range(40):
        config = AnnotatorConfig(star_mode_rules=tuple(random_grammar(seed).rules)
                                 if seed % 2 else ())
        make = lambda: annotate(random_grammar(seed), config)[0]
        plain = _undispatched(monkeypatch, make)
        dispatched = make()
        labeled += bool(dispatched.recovery)
        for text in texts:
            for max_errors in (50, 1):
                want = Session(plain, text, max_errors=max_errors).parse()
                got = Session(dispatched, text, max_errors=max_errors).parse()
                assert _facts(got) == _facts(want), (seed, text, max_errors)
            for pos in (1, 2):
                want = Session(plain, text).match_expr(NonTerminal(plain.start), pos)
                got = Session(dispatched, text).match_expr(NonTerminal(plain.start), pos)
                assert vars(got) == vars(want), (seed, text, pos)
    # throws and recovery expressions are what FIRST alone gets wrong
    assert labeled >= 10


def test_dispatch_changes_no_outcome_on_tiny_java_mutants(monkeypatch, grammar_dir):
    path = str(grammar_dir / "tiny_java_annotated.peg")
    plain = _undispatched(monkeypatch, lambda: load_grammar(path))
    dispatched = load_grammar(path)
    rng = random.Random(4)
    for seed in range(30):
        program = random_program(seed)
        count = len(token_spans(dispatched, program))
        for index in rng.sample(range(count), 4):
            for mutate in (delete_token, duplicate_token):
                text = mutate(dispatched, program, index).text
                for max_errors in (50, 2, 1):
                    want = Session(plain, text, max_errors=max_errors).parse()
                    got = Session(dispatched, text, max_errors=max_errors).parse()
                    assert _facts(got) == _facts(want), (seed, index, mutate)


def test_dispatch_changes_no_outcome_on_wide_choices(monkeypatch):
    # a choice of 40 guarded rule alternatives, and one where 20
    # alternatives that run at every kind come ahead of 40 guarded ones
    lexicon = "".join(f"K{i} <- 'k{i}' ;\n" for i in range(40))
    wide = ("start <- (" + " / ".join(f"r{i}" for i in range(40)) + ")* ;\n"
            + "".join(f"r{i} <- K{i} [K{(i + 1) % 40}]^l{i} ;\n" for i in range(40)))
    crowded = ("start <- (" + " / ".join(f"!K{i} K{i}" for i in range(20)) + " / "
               + " / ".join(f"K{i}" for i in range(40)) + ")* K0 ;\n")
    texts = ["", "k0 k1 k2 k3", "k39 k0 k5", "k3 k3 k4", "k7 k8 x k9 k10", "k12"]
    for text_of in (wide, crowded):
        make = lambda: parse_grammar(lexicon + "%start start ;\n" + text_of)
        plain = _undispatched(monkeypatch, make)
        dispatched = make()
        for text in texts:
            assert _facts(parse(dispatched, text)) == _facts(parse(plain, text)), text
