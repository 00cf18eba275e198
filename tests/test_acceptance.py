"""End-to-end checks that gate a release.

Each test pins one advertised property of the toolkit: the annotator's
output on the reference grammar is frozen, recovery points synchronize on
the right token sets, the curated sample program produces its exact
diagnostics, annotation never changes the language or tree shape of valid
input, the set analyses and the matcher agree with independent references,
and recovery quality on a single-token mutation corpus stays above the
advertised bar.
"""

import time
from collections import Counter

import pytest

from pegrec.analysis import Analysis
from pegrec.annotate import AnnotatorConfig, annotate
from pegrec.diagnostics import format_error, load_messages
from pegrec.engine import Session, match, tree_to_json
from pegrec.evaluate import (
    EXCELLENT,
    FAILED,
    ast_structural_eq,
    delete_token,
    load_corpus,
    run_corpus,
)
from pegrec.model import (
    AnyToken,
    Choice,
    NonTerminal,
    Not,
    Sequence,
    Star,
    Terminal,
    desugar,
    grammar_eq,
)

from helpers import (
    all_inputs,
    naive_match,
    random_grammar,
    random_program,
    render_input,
)

# Annotating the reference grammar must always produce exactly these sites:
# (rule, label, what the label reports as missing, recovery follow set).
FROZEN_SITES = [
    ("Prog", "Err_Prog_1", "CLASS", {"NAME"}),
    ("Prog", "Err_Prog_2", "NAME", {"LCUR"}),
    ("Prog", "Err_Prog_3", "LCUR", {"PUBLIC"}),
    ("Prog", "Err_Prog_4", "PUBLIC", {"STATIC"}),
    ("Prog", "Err_Prog_5", "STATIC", {"VOID"}),
    ("Prog", "Err_Prog_6", "VOID", {"MAIN"}),
    ("Prog", "Err_Prog_7", "MAIN", {"LPAR"}),
    ("Prog", "Err_Prog_8", "LPAR", {"STRING"}),
    ("Prog", "Err_Prog_9", "STRING", {"LBRA"}),
    ("Prog", "Err_Prog_10", "LBRA", {"RBRA"}),
    ("Prog", "Err_Prog_11", "RBRA", {"NAME"}),
    ("Prog", "Err_Prog_12", "NAME", {"RPAR"}),
    ("Prog", "Err_Prog_13", "RPAR", {"LCUR"}),
    ("Prog", "Err_Prog_14", "BlockStmt", {"RCUR"}),
    ("Prog", "Err_Prog_15", "RCUR", {"EOF"}),
    ("BlockStmt", "Err_BlockStmt_1", "RCUR",
     {"IF", "ELSE", "WHILE", "PRINTLN", "INT", "LCUR", "RCUR", "NAME"}),
    ("IfStmt", "Err_IfStmt_1", "LPAR", {"LPAR", "NAME", "NUMBER"}),
    ("IfStmt", "Err_IfStmt_2", "Exp", {"RPAR"}),
    ("IfStmt", "Err_IfStmt_3", "RPAR",
     {"IF", "WHILE", "PRINTLN", "INT", "LCUR", "NAME"}),
    ("IfStmt", "Err_IfStmt_4", "Stmt",
     {"IF", "ELSE", "WHILE", "PRINTLN", "INT", "LCUR", "RCUR", "NAME"}),
    ("WhileStmt", "Err_WhileStmt_1", "LPAR", {"LPAR", "NAME", "NUMBER"}),
    ("WhileStmt", "Err_WhileStmt_2", "Exp", {"RPAR"}),
    ("WhileStmt", "Err_WhileStmt_3", "RPAR",
     {"IF", "WHILE", "PRINTLN", "INT", "LCUR", "NAME"}),
    ("WhileStmt", "Err_WhileStmt_4", "Stmt",
     {"IF", "ELSE", "WHILE", "PRINTLN", "INT", "LCUR", "RCUR", "NAME"}),
    ("DecStmt", "Err_DecStmt_1", "NAME", {"ASSIGN", "SEMI"}),
    ("DecStmt", "Err_DecStmt_2", "Exp", {"SEMI"}),
    ("DecStmt", "Err_DecStmt_3", "SEMI",
     {"IF", "ELSE", "WHILE", "PRINTLN", "INT", "LCUR", "RCUR", "NAME"}),
    ("AssignStmt", "Err_AssignStmt_1", "ASSIGN", {"LPAR", "NAME", "NUMBER"}),
    ("AssignStmt", "Err_AssignStmt_2", "Exp", {"SEMI"}),
    ("AssignStmt", "Err_AssignStmt_3", "SEMI",
     {"IF", "ELSE", "WHILE", "PRINTLN", "INT", "LCUR", "RCUR", "NAME"}),
    ("PrintStmt", "Err_PrintStmt_1", "LPAR", {"LPAR", "NAME", "NUMBER"}),
    ("PrintStmt", "Err_PrintStmt_2", "Exp", {"RPAR"}),
    ("PrintStmt", "Err_PrintStmt_3", "RPAR", {"SEMI"}),
    ("PrintStmt", "Err_PrintStmt_4", "SEMI",
     {"IF", "ELSE", "WHILE", "PRINTLN", "INT", "LCUR", "RCUR", "NAME"}),
    ("Exp", "Err_Exp_1", "RelExp", {"RPAR", "SEMI"}),
    ("RelExp", "Err_RelExp_1", "AddExp", {"EQ", "RPAR", "SEMI"}),
    ("AddExp", "Err_AddExp_1", "MulExp", {"EQ", "LT", "RPAR", "SEMI"}),
    ("MulExp", "Err_MulExp_1", "AtomExp",
     {"EQ", "LT", "PLUS", "MINUS", "RPAR", "SEMI"}),
    ("AtomExp", "Err_AtomExp_1", "Exp", {"RPAR"}),
    ("AtomExp", "Err_AtomExp_2", "RPAR",
     {"EQ", "LT", "PLUS", "MINUS", "TIMES", "DIV", "RPAR", "SEMI"}),
]

P1 = ("public class Example { public static void main(String[] args) "
      "{ int x = 1; } }")
P2 = ("public class Example { public static void main(String[] args) { "
      "while ( x < 10 ) { x = x + 1 ; } "
      "if ( x == 10 ) System.out.println ( x ) ; else { } } }")
P3 = ("public class Example { public static void main(String[] args) { "
      "int y = ( 1 + 2 ) * 3 ; while ( y == 9 < 8 ) y = y / 1 ; } }")
P4 = ("public class Example { public static void main(String[] args) { "
      "if ( x ) { x = 1 ; } else { } } }")

# Single-token deletions with the label that must report them and the
# recovery rating each one earns.  The three needs-review rows are cases
# where the recovered tree legitimately differs from the original: the
# greedy expression parse absorbs material past a deleted ')' and skipping
# a deleted statement changes how its neighbors attach.
CORPUS_ROWS = [
    (P1, 1, "Err_Prog_1", EXCELLENT),
    (P1, 2, "Err_Prog_2", EXCELLENT),
    (P1, 3, "Err_Prog_3", EXCELLENT),
    (P1, 4, "Err_Prog_4", EXCELLENT),
    (P1, 5, "Err_Prog_5", EXCELLENT),
    (P1, 6, "Err_Prog_6", EXCELLENT),
    (P1, 7, "Err_Prog_7", EXCELLENT),
    (P1, 8, "Err_Prog_8", EXCELLENT),
    (P1, 9, "Err_Prog_9", EXCELLENT),
    (P1, 10, "Err_Prog_10", EXCELLENT),
    (P1, 11, "Err_Prog_11", EXCELLENT),
    (P1, 12, "Err_Prog_12", EXCELLENT),
    (P1, 13, "Err_Prog_13", EXCELLENT),
    (P1, 14, "Err_Prog_14", EXCELLENT),
    (P1, 16, "Err_DecStmt_1", EXCELLENT),
    (P1, 18, "Err_DecStmt_2", EXCELLENT),
    (P1, 19, "Err_DecStmt_3", EXCELLENT),
    (P1, 21, "Err_Prog_15", EXCELLENT),
    (P2, 16, "Err_WhileStmt_1", EXCELLENT),
    (P2, 17, "Err_WhileStmt_2", EXCELLENT),
    (P2, 20, "Err_WhileStmt_3", EXCELLENT),
    (P2, 23, "Err_AssignStmt_1", EXCELLENT),
    (P2, 24, "Err_AssignStmt_2", EXCELLENT),
    (P2, 26, "Err_AddExp_1", EXCELLENT),
    (P2, 27, "Err_AssignStmt_3", EXCELLENT),
    (P2, 30, "Err_IfStmt_1", EXCELLENT),
    (P2, 31, "Err_IfStmt_2", EXCELLENT),
    (P2, 34, "Err_IfStmt_3", EXCELLENT),
    (P2, 35, "Err_IfStmt_4", "needs-review"),
    (P2, 36, "Err_PrintStmt_1", EXCELLENT),
    (P2, 37, "Err_PrintStmt_2", EXCELLENT),
    (P2, 38, "Err_PrintStmt_3", EXCELLENT),
    (P2, 39, "Err_PrintStmt_4", EXCELLENT),
    (P3, 19, "Err_AtomExp_1", EXCELLENT),
    (P3, 21, "Err_AddExp_1", EXCELLENT),
    (P3, 22, "Err_AtomExp_2", "needs-review"),
    (P3, 24, "Err_MulExp_1", EXCELLENT),
    (P3, 30, "Err_Exp_1", EXCELLENT),
    (P3, 32, "Err_RelExp_1", EXCELLENT),
    (P3, 34, "Err_WhileStmt_4", "needs-review"),
    (P3, 38, "Err_MulExp_1", EXCELLENT),
    (P4, 24, "Err_BlockStmt_1", EXCELLENT),
]


def count_error_nodes(node: dict) -> int:
    if "error" in node:
        return 1
    return sum(count_error_nodes(c) for c in node.get("children", ()))


def sync_kinds(expr) -> set[str]:
    """Token kinds a synthesized recovery expression skips until."""
    assert isinstance(expr, Star)
    assert isinstance(expr.body, Sequence)
    guard, step = expr.body.left, expr.body.right
    assert isinstance(guard, Not) and isinstance(step, AnyToken)
    kinds = set()
    stack = [guard.body]
    while stack:
        e = stack.pop()
        if isinstance(e, Choice):
            stack.extend((e.first, e.second))
        else:
            assert isinstance(e, Terminal)
            kinds.add(e.kind)
    return kinds


def test_annotator_output_is_frozen_and_fast(tiny_java,
                                             tiny_java_annotated_file):
    started = time.perf_counter()
    annotated, report = annotate(tiny_java)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    got = [(s.rule, s.label, s.expected, set(s.followed_by))
           for s in report.inserted]
    assert got == FROZEN_SITES
    assert sum(1 for s in report.inserted if s.rule != "Prog") == 25

    reasons = Counter(s.reason for s in report.skipped)
    assert reasons == {"first-position": 28, "non-disjoint-choice": 1}
    overlap = [s for s in report.skipped if s.reason == "non-disjoint-choice"]
    assert overlap[0].rule == "IfStmt" and overlap[0].expected == "ELSE Stmt"

    assert grammar_eq(annotated, tiny_java_annotated_file)
    assert set(annotated.recovery) == {s.label for s in report.inserted}


def test_loop_boundary_recovery_follow_set(tiny_java):
    annotated, report = annotate(tiny_java)
    site = next(s for s in report.inserted if s.label == "Err_WhileStmt_3")
    statement_starters = {"IF", "WHILE", "PRINTLN", "INT", "NAME", "LCUR"}
    assert set(site.followed_by) == statement_starters
    assert sync_kinds(annotated.recovery["Err_WhileStmt_3"]) == statement_starters


def test_sample_program_messages_and_recovery(grammar_dir, tiny_java_labeled):
    source = (grammar_dir / "factorial.java").read_text()
    messages = load_messages(str(grammar_dir / "tiny_java_messages.json"),
                             tiny_java_labeled)

    # without recovery expressions the first breakage stops the parse,
    # reported once with its curated message
    outcome = Session(tiny_java_labeled, source, messages=messages).parse()
    assert outcome.status == "failed"
    assert len(outcome.errors) == 1
    assert format_error("factorial.java", outcome.errors[0]) == \
        "factorial.java:5: syntax error, missing ')' in while"

    # preserving the hand labels and synthesizing their recovery turns the
    # same run into a complete parse that reports both mistakes
    annotated, report = annotate(
        tiny_java_labeled, AnnotatorConfig(preserve_existing=True))
    assert len(report.recovered) == 26
    assert len(report.inserted) == 15

    outcome = Session(annotated, source, messages=messages).parse()
    assert outcome.status == "matched"
    assert [e.label for e in outcome.errors] == ["rpw", "semia"]
    assert [format_error("factorial.java", e) for e in outcome.errors] == [
        "factorial.java:5: syntax error, missing ')' in while",
        "factorial.java:7: syntax error, missing ';' in assignment",
    ]
    assert count_error_nodes(tree_to_json(outcome.tree)) == 2


def test_annotation_is_transparent_on_valid_programs(tiny_java):
    annotated, _ = annotate(tiny_java)
    for seed in range(1000):
        text = random_program(seed)
        plain = Session(tiny_java, text).parse()
        labeled = Session(annotated, text).parse()
        assert plain.ok and not plain.errors, seed
        assert labeled.ok and not labeled.errors, seed
        assert ast_structural_eq(plain.tree, labeled.tree), seed


def test_annotation_is_transparent_on_random_grammars():
    # every input the original grammar parses with no error parses to the
    # same tree with no error once annotated, in default and in star mode
    texts = [render_input(seq) for seq in all_inputs(4)]
    clean = 0
    for seed in range(200):
        if seed == 94:
            continue  # test_annotation_is_transparent_on_random_grammar_94
        grammar = random_grammar(seed)
        labeled = [annotate(grammar)[0],
                   annotate(grammar, AnnotatorConfig(star_mode_rules=tuple(grammar.rules)))[0]]
        for text in texts:
            plain = Session(grammar, text).parse()
            if not plain.ok:
                continue
            clean += 1
            for annotated in labeled:
                got = Session(annotated, text).parse()
                assert got.ok and got.end == plain.end, (seed, text)
                assert got.tree == plain.tree, (seed, text)
    assert clean > 450


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the annotator labels Rule3's body as if every caller had "
                          "committed, so the annotated grammar rejects b")
def test_annotation_is_transparent_on_random_grammar_94():
    grammar = random_grammar(94)
    plain = Session(grammar, "b").parse()
    assert plain.ok
    labeled = Session(annotate(grammar)[0], "b").parse()
    assert [e.message for e in labeled.errors] == []
    assert ast_structural_eq(plain.tree, labeled.tree)


def test_first_sets_cover_all_match_prefixes():
    for seed in range(20):
        grammar = random_grammar(seed)
        first = Analysis(grammar).first_of_rule(grammar.start)
        for seq in all_inputs(6):
            result = match(grammar, NonTerminal(grammar.start),
                           render_input(seq))
            if result.status != "matched":
                continue
            if result.end == 0:
                assert first.has_epsilon, (seed, seq)
            else:
                assert seq[0] in first, (seed, seq)


def test_engine_agrees_with_reference_recognizer_exhaustively():
    started = time.perf_counter()
    for seed in range(20):
        grammar = desugar(random_grammar(seed))
        body = grammar.rules[grammar.start]
        for seq in all_inputs(8):
            want = naive_match(grammar.rules, body, seq, 0)
            got = match(grammar, NonTerminal(grammar.start),
                        render_input(seq))
            if want is None:
                assert got.status == "failed", (seed, seq)
            else:
                assert got.status == "matched" and got.end == want, (seed, seq)
    assert time.perf_counter() - started < 30.0


def test_single_token_mutation_corpus_quality(tiny_java, tmp_path):
    annotated, _ = annotate(tiny_java)
    for i, (program, index, label, _) in enumerate(CORPUS_ROWS):
        mutant = delete_token(annotated, program, index)
        (tmp_path / f"case{i:02}.bad").write_text(mutant.text)
        (tmp_path / f"case{i:02}.ok").write_text(program)
        (tmp_path / f"case{i:02}.label").write_text(label)

    summary = run_corpus(annotated, load_corpus(tmp_path))
    assert not summary.unreadable
    assert len(summary.results) == len(CORPUS_ROWS)

    # every mutant still yields a tree, every breakage is reported under
    # the label guarding the deleted token, and at least nine out of ten
    # recovered trees are structurally identical to the original's
    assert summary.count(FAILED) == 0
    assert summary.label_mismatches == 0
    assert summary.count(EXCELLENT) / len(summary.results) >= 0.90
    assert summary.exit_code == 0

    by_name = {r.name: r for r in summary.results}
    for i, (_, _, _, rating) in enumerate(CORPUS_ROWS):
        assert by_name[f"case{i:02}"].rating == rating, i


def test_label_propagation_laws():
    from pegrec.dsl import parse_grammar

    # an ordered choice backtracks on a plain failure but not on a label
    g = parse_grammar("AA <- 'a' ;\n%start start ;\n"
                      "start <- AA ^boom / AA ;")
    out = Session(g, "a").parse()
    assert out.status == "failed" and out.fail_label == "boom"

    # a repetition ends quietly on a plain failure but propagates a label
    quiet = parse_grammar("AA <- 'a' ;\nBB <- 'b' ;\n%start start ;\n"
                          "start <- (AA BB)* ;")
    assert Session(quiet, "a").parse().status == "matched"
    loud = parse_grammar("AA <- 'a' ;\n%start start ;\n"
                         "start <- (AA ^boom)* ;")
    out = Session(loud, "a").parse()
    assert out.status == "failed" and out.fail_label == "boom"

    # a negative predicate succeeds on any failure of its body, labeled or
    # not, and its label never leaks out
    peek = parse_grammar("AA <- 'a' ;\n%start start ;\n"
                         "start <- !(AA ^boom) AA ;")
    out = Session(peek, "a").parse()
    assert out.status == "matched" and not out.errors
