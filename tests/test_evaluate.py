import itertools
import json
import random
import re

import pytest

from pegrec.annotate import AnnotatorConfig, annotate
from pegrec.dsl import load_grammar, parse_grammar
from pegrec.engine import parse, tree_from_json, tree_to_json, tree_to_json_text
from pegrec.evaluate import (
    EXCELLENT,
    FAILED,
    NEEDS_REVIEW,
    CaseResult,
    CorpusCase,
    CorpusSummary,
    ast_structural_eq,
    classify_recovery,
    delete_token,
    duplicate_token,
    load_corpus,
    run_case,
    run_corpus,
    token_spans,
)

from helpers import json_structural_eq, random_grammar, random_program, run_fresh

RECOVERING = """\
start <- AA [BB]^miss AA ;
AA <- 'a' ;
BB <- 'b' ;
%recovery
miss <- '' ;
"""

BARE = """\
start <- AA [BB]^miss AA ;
AA <- 'a' ;
BB <- 'b' ;
"""


# trees are built as tree_to_json data and read with tree_from_json

def leaf(kind, span=(0, 0)):
    return {"token": kind, "span": list(span)}


def rule(name, *children, span=(0, 0)):
    return {"rule": name, "span": list(span), "children": list(children)}


def enode(expected, span=(0, 0)):
    return {"error": "l", "expected": expected, "span": list(span)}


def eq(got, want) -> bool:
    return ast_structural_eq(tree_from_json(got), tree_from_json(want))


# --- structural equality -------------------------------------------------

def test_eq_ignores_spans():
    a = rule("S", leaf("AA", (0, 1)), span=(0, 1))
    b = rule("S", leaf("AA", (5, 9)), span=(2, 9))
    assert eq(a, b)


def test_eq_checks_names_kinds_and_shape():
    assert not eq(rule("S", leaf("AA")), rule("T", leaf("AA")))
    assert not eq(rule("S", leaf("AA")), rule("S", leaf("BB")))
    assert not eq(rule("S", leaf("AA")), rule("S", leaf("AA"), leaf("AA")))
    assert not eq(rule("S"), leaf("S"))
    assert not eq(rule("S", rule("T", leaf("AA")), leaf("BB")),
                  rule("S", rule("T", leaf("AA"), leaf("BB"))))


def test_error_node_stands_in_for_expected_node():
    assert eq(enode("BB"), leaf("BB"))
    assert eq(leaf("BB"), enode("BB"))
    assert eq(enode("Stmt"), rule("Stmt", leaf("AA")))
    assert not eq(enode("BB"), leaf("AA"))
    assert not eq(enode("Stmt"), rule("Expr"))


def test_error_nodes_compare_by_expectation():
    assert eq(enode("BB"), enode("BB"))
    assert not eq(enode("BB"), enode("CC"))


def test_error_node_inside_tree():
    got = rule("S", leaf("AA"), enode("BB"), leaf("AA"))
    want = rule("S", leaf("AA"), leaf("BB"), leaf("AA"))
    assert eq(got, want)
    # the node it stands in for is skipped subtree and all
    got = rule("S", enode("T"), leaf("AA"))
    want = rule("S", rule("T", rule("U", leaf("BB")), leaf("CC")), leaf("AA"))
    assert eq(got, want) and eq(want, got)
    assert not eq(rule("S", enode("T")), want)


def _agree(trees) -> tuple[int, int]:
    """Check ast_structural_eq against the reference over the trees' dicts
    on every ordered pair of trees; (pairs, equal pairs)."""
    pairs = equal = 0
    roots = [tree_to_json(t) for t in trees]
    for (a, root_a), (b, root_b) in itertools.permutations(zip(trees, roots), 2):
        want = json_structural_eq(root_a, root_b)
        assert ast_structural_eq(a, b) == want, (root_a, root_b)
        pairs += 1
        equal += want
    return pairs, equal


def test_eq_agrees_with_the_dict_reference_on_tiny_java_mutants(tiny_java_annotated_file):
    g = tiny_java_annotated_file
    rng = random.Random(11)
    pairs = equal = 0
    for seed in range(40):
        program = random_program(seed)
        clean = parse(g, program).tree
        count = len(token_spans(g, program))
        for index in rng.sample(range(count), 4):
            for mutate in (delete_token, duplicate_token):
                got = parse(g, mutate(g, program, index).text).tree
                if got is not None:
                    n, e = _agree([got, clean])
                    pairs += n
                    equal += e
    assert pairs > 600 and 300 < equal < pairs - 200


def test_eq_agrees_with_the_dict_reference_on_random_grammars():
    texts = [" ".join(chars) for n in range(4) for chars in itertools.product("abc", repeat=n)]
    pairs = equal = 0
    for seed in range(30):
        config = AnnotatorConfig(star_mode_rules=tuple(random_grammar(seed).rules)
                                 if seed % 2 else ())
        grammar = annotate(random_grammar(seed), config)[0]
        trees = [t for t in (parse(grammar, text).tree for text in texts) if t is not None]
        n, e = _agree(trees[:12])
        pairs += n
        equal += e
    assert pairs > 3000 and 2000 < equal < pairs - 500


# --- classification ------------------------------------------------------

def test_classify_ratings():
    g = parse_grammar(RECOVERING)
    intended = parse(g, "a b a").tree
    assert classify_recovery(parse(g, "a a"), intended) == EXCELLENT
    assert classify_recovery(parse(g, "a a"), tree_from_json(rule("S"))) == NEEDS_REVIEW
    assert classify_recovery(parse(parse_grammar(BARE), "a a"),
                             intended) == FAILED


def test_classify_without_intended_tree():
    g = parse_grammar(RECOVERING)
    assert classify_recovery(parse(g, "a a"), None) == NEEDS_REVIEW


# --- corpus loading and running -------------------------------------------

def write_case(directory, name, bad, ok=None, tree=None, label=None):
    (directory / f"{name}.bad").write_text(bad)
    if ok is not None:
        (directory / f"{name}.ok").write_text(ok)
    if tree is not None:
        (directory / f"{name}.tree").write_text(json.dumps(tree))
    if label is not None:
        (directory / f"{name}.label").write_text(label + "\n")


def test_load_corpus_discovers_sidecar_files(tmp_path):
    write_case(tmp_path, "b_case", "a a", ok="a b a", label="miss")
    write_case(tmp_path, "a_case", "a a")
    cases = load_corpus(tmp_path)
    assert [c.name for c in cases] == ["a_case", "b_case"]
    assert cases[0].ok_path is None and cases[0].label_path is None
    assert cases[1].ok_path is not None
    assert cases[1].label_path == tmp_path / "b_case.label"


def test_load_corpus_pairs_a_dotted_name_with_its_own_sidecars(tmp_path):
    # a decoy fact.ok, .tree and .label sit beside the sidecars of fact.v1
    write_case(tmp_path, "fact", "a a", ok="a b a", tree={"rule": "S"}, label="decoy")
    write_case(tmp_path, "fact.v1", "a a", ok="a b a", tree={"rule": "S"}, label="miss")
    write_case(tmp_path, "fact.v2", "a a")
    cases = {c.name: c for c in load_corpus(tmp_path)}
    assert sorted(cases) == ["fact", "fact.v1", "fact.v2"]
    v1 = cases["fact.v1"]
    assert (v1.ok_path, v1.tree_path, v1.label_path) == tuple(
        tmp_path / f"fact.v1.{ext}" for ext in ("ok", "tree", "label"))
    v2 = cases["fact.v2"]
    assert (v2.ok_path, v2.tree_path, v2.label_path) == (None, None, None)


def test_load_corpus_rejects_a_path_that_is_not_a_directory(tmp_path):
    write_case(tmp_path, "a_case", "a a")
    for path in (tmp_path / "missing", tmp_path / "a_case.bad"):
        with pytest.raises(OSError, match=f"^{re.escape(str(path))}: not a directory$"):
            load_corpus(path)
    # an empty directory is a corpus of no cases
    (tmp_path / "empty").mkdir()
    assert load_corpus(tmp_path / "empty") == []


def test_run_case_against_corrected_source(tmp_path):
    g = parse_grammar(RECOVERING)
    write_case(tmp_path, "c", "a a", ok="a b a", label="miss")
    result = run_case(g, load_corpus(tmp_path)[0])
    assert result.rating == EXCELLENT
    assert result.first_label == "miss"
    assert result.label_ok
    assert result.error_count == 1


def test_max_errors_below_one_is_a_value_error(tmp_path):
    g = parse_grammar(RECOVERING)
    write_case(tmp_path, "c", "a a", ok="a b a", label="miss")
    cases = load_corpus(tmp_path)
    for max_errors in (0, -1):
        with pytest.raises(ValueError, match="^max_errors must be at least 1"):
            run_case(g, cases[0], max_errors)
        with pytest.raises(ValueError, match="^max_errors must be at least 1"):
            run_corpus(g, cases, max_errors)


def test_run_case_prefers_tree_file(tmp_path):
    g = parse_grammar(RECOVERING)
    wrong_shape = rule("start", leaf("AA"))
    write_case(tmp_path, "c", "a a", ok="a b a", tree=wrong_shape)
    result = run_case(g, load_corpus(tmp_path)[0])
    assert result.rating == NEEDS_REVIEW


def test_run_case_without_reference_is_needs_review(tmp_path):
    g = parse_grammar(RECOVERING)
    write_case(tmp_path, "c", "a a")
    result = run_case(g, load_corpus(tmp_path)[0])
    assert result.rating == NEEDS_REVIEW
    assert "no intended tree" in result.note


def test_run_case_notes_broken_corrected_source(tmp_path):
    g = parse_grammar(RECOVERING)
    write_case(tmp_path, "c", "a a", ok="b b b")
    result = run_case(g, load_corpus(tmp_path)[0])
    assert result.rating == NEEDS_REVIEW
    assert "does not parse cleanly" in result.note


def test_run_case_flags_label_mismatch(tmp_path):
    g = parse_grammar(RECOVERING)
    write_case(tmp_path, "c", "a a", ok="a b a", label="other")
    result = run_case(g, load_corpus(tmp_path)[0])
    assert result.rating == EXCELLENT
    assert not result.label_ok


def test_run_corpus_reports_unreadable_inputs(tmp_path):
    g = parse_grammar(RECOVERING)
    write_case(tmp_path, "good", "a a", ok="a b a")
    cases = load_corpus(tmp_path)
    cases.append(CorpusCase(name="ghost", bad_path=tmp_path / "ghost.bad"))
    summary = run_corpus(g, cases)
    assert len(summary.results) == 1
    assert len(summary.unreadable) == 1
    assert summary.unreadable[0].startswith("ghost:")
    # unreadable inputs are surfaced but do not turn the run into a failure
    assert summary.exit_code == 0


@pytest.mark.parametrize("label", ["bytes", "directory"])
def test_run_corpus_lists_a_label_file_it_cannot_read_as_unreadable(tmp_path, label):
    g = parse_grammar(RECOVERING)
    write_case(tmp_path, "a_good", "a a", ok="a b a", label="miss")
    write_case(tmp_path, "b_bad", "a a", ok="a b a")
    path = tmp_path / "b_bad.label"
    if label == "bytes":
        path.write_bytes(b"\xff\xfe")
    else:
        path.mkdir()
    summary = run_corpus(g, load_corpus(tmp_path))
    assert [(r.name, r.rating, r.label_ok) for r in summary.results] == \
        [("a_good", EXCELLENT, True)]
    [unreadable] = summary.unreadable
    assert unreadable.startswith("b_bad: ") and str(path) in unreadable
    assert summary.exit_code == 0


_RUN_CORPUS = """
import json, sys
from pegrec import load_grammar
from pegrec.evaluate import load_corpus, run_corpus
limit = sys.getrecursionlimit()
summary = run_corpus(load_grammar(sys.argv[1]), load_corpus(sys.argv[2]))
print(json.dumps([[(r.name, r.rating) for r in summary.results], summary.unreadable,
                  sys.getrecursionlimit() == limit]))
"""


def test_a_deep_tree_case_reads_in_a_fresh_process(tmp_path, grammar_dir):
    # json.loads recurses in C about 10 times per paren level, so the
    # .tree file of 1400 levels is readable only inside pegrec's budget
    grammar = str(grammar_dir / "tiny_java_annotated.peg")
    program = ("public class A { public static void main ( String [ ] a ) { x = "
               + "( " * 1400 + "1" + " )" * 1400 + " ; } }")
    (tmp_path / "deep.bad").write_text(program)
    tree = parse(load_grammar(grammar), program).tree
    (tmp_path / "deep.tree").write_text(tree_to_json_text(tree))
    done = run_fresh(_RUN_CORPUS, grammar, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[["deep", EXCELLENT]], [], True]


# --- summary -------------------------------------------------------------

def result(rating, label_ok=True):
    return CaseResult(name="x", rating=rating, error_count=1,
                      first_label="l", expected_label="l", label_ok=label_ok)


def test_summary_counts_and_exit_code():
    ok = CorpusSummary(results=[result(EXCELLENT), result(NEEDS_REVIEW)])
    assert ok.count(EXCELLENT) == 1
    assert ok.exit_code == 0

    assert CorpusSummary(results=[result(FAILED)]).exit_code == 1
    assert CorpusSummary(
        results=[result(EXCELLENT, label_ok=False)]).exit_code == 1


def test_summary_table_layout():
    summary = CorpusSummary(results=[result(EXCELLENT), result(EXCELLENT),
                                     result(NEEDS_REVIEW)])
    lines = summary.table().splitlines()
    assert lines[0].split() == ["category", "count", "percent"]
    assert lines[1].split() == ["excellent", "2", "66.7%"]
    assert lines[2].split() == ["needs-review", "1", "33.3%"]
    assert lines[3].split() == ["failed", "0", "0.0%"]
    assert lines[4].split() == ["total", "3"]


def test_summary_json_shape():
    summary = CorpusSummary(results=[result(EXCELLENT)],
                            unreadable=["ghost: gone"])
    data = summary.to_json()
    assert data["counts"] == {EXCELLENT: 1, NEEDS_REVIEW: 0, FAILED: 0}
    assert data["cases"][0]["name"] == "x"
    assert data["label_mismatches"] == 0
    assert data["unreadable"] == ["ghost: gone"]


# --- mutation ------------------------------------------------------------

def test_token_spans(tiny_java):
    spans = token_spans(tiny_java, "int x = 5 ;")
    assert len(spans) == 5
    assert spans[0] == (0, 3)


def test_delete_token_cannot_fuse_neighbors(tiny_java):
    # without the splice, dropping '(' from "main(String" would weld the
    # neighbors into one identifier
    m = delete_token(tiny_java, "main(String", 1)
    assert m.kind == "delete" and m.token_text == "("
    assert len(token_spans(tiny_java, m.text)) == 2


def test_duplicate_token(tiny_java):
    m = duplicate_token(tiny_java, "int x ;", 1)
    assert m.text == "int x x ;"
    assert m.token_index == 1 and m.token_text == "x"


@pytest.mark.parametrize("mutate", [delete_token, duplicate_token])
@pytest.mark.parametrize("text, index, message", [
    # it once counted from the end and recorded token_index -1
    pytest.param("int x ;", -1, "^negative token index -1$", id="negative"),
    # past the end was a raw IndexError from the token spans
    pytest.param("public class", 2, "^token index 2 is past the last of 2 tokens$",
                 id="at_the_end"),
    pytest.param("public class", 5, "^token index 5 is past the last of 2 tokens$",
                 id="past_the_end"),
    pytest.param("", 0, "^token index 0 is past the last of 0 tokens$", id="no_tokens"),
])
def test_a_negative_token_index_is_a_value_error(tiny_java, mutate, text, index, message):
    with pytest.raises(ValueError, match=message):
        mutate(tiny_java, text, index)
    assert mutate(tiny_java, "public class", 1).token_text == "class"
