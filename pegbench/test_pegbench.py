"""Tests of the benchmark itself.

    python3 -m pytest pegbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402
from pegrec import (  # noqa: E402
    Session, annotate, load_grammar, parse_grammar, tree_to_json)
from pegrec.model import grammar_eq  # noqa: E402

ANNOTATED = load_grammar(str(ROOT / "grammars/tiny_java_annotated.peg"))
WORKLOADS = ("clean_files", "broken_files", "eval_corpus", "grammar_tooling")


def run_bench(*args: str, script: str | None = None) -> tuple[int, list[str]]:
    cmd = [sys.executable, "pegbench/run.py", *args] if script is None \
        else [sys.executable, "-c", script, *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_same_seed_gives_same_inputs():
    def inputs(seed):
        rng = random.Random(seed)
        prog = gen.program(gen.BASE, rng, 600)
        broken = gen.mutate(ANNOTATED, prog, rng, 3)
        lang = gen.random_language(rng, 4, 2)
        return prog.text, prog.tree, broken, gen.grammar_text(lang)

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_base_language_is_tiny_java():
    base = parse_grammar(gen.grammar_text(gen.BASE))
    assert grammar_eq(base, load_grammar(str(ROOT / "grammars/tiny_java.peg")))


def test_generated_programs_parse_to_their_derivation():
    for seed in range(5):
        rng = random.Random(seed)
        lang = gen.random_language(rng, 4, 2) if seed else gen.BASE
        grammar, _ = annotate(parse_grammar(gen.grammar_text(lang)))
        prog = gen.program(lang, rng, 500)
        outcome = Session(grammar, prog.text).parse()
        assert not outcome.errors
        assert tree_to_json(outcome.tree) == prog.tree
        assert checks.Tokenizer(lang)(prog.text) == prog.tokens


def _broken_tree():
    rng = random.Random(3)
    prog = gen.program(gen.BASE, rng, 300)
    text = gen.mutate(ANNOTATED, prog, rng, 2)
    tokens = checks.Tokenizer(gen.BASE)(text)
    outcome = Session(ANNOTATED, text).parse()
    assert outcome.errors
    return tree_to_json(outcome.tree), tokens


def _token_parents(tree):
    """(parent, index) of every token leaf."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for i, child in enumerate(node.get("children", ())):
            if "token" in child:
                yield node, i
            stack.append(child)


def test_coverage_accepts_the_recovered_tree():
    tree, tokens = _broken_tree()
    assert checks.coverage(tree, tokens)[0] is None


def test_coverage_rejects_a_dropped_token():
    tree, tokens = _broken_tree()
    parent, i = list(_token_parents(tree))[10]
    del parent["children"][i]
    assert checks.coverage(tree, tokens)[0] is not None


def test_coverage_rejects_a_duplicated_token():
    tree, tokens = _broken_tree()
    parent, i = list(_token_parents(tree))[10]
    parent["children"].insert(i, dict(parent["children"][i]))
    assert checks.coverage(tree, tokens)[0] is not None


def test_benchmark_json_matches_metric_definitions():
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in data["workloads"]}
    assert tuple(whys) == WORKLOADS
    assert data == metrics.benchmark_json(data["run_seconds"], whys)


def test_printed_metric_names_equal_benchmark_json():
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = run_bench("--workload", "grammar_tooling", "--seed", "2",
                                "--seconds", "0.2", "--trace", trace)
        assert code == 0
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in data[key]]
        assert all(m["unit"] == spec["unit"] for m, spec in
                   zip(result["metrics"].values(), data[key]))


CORRUPT = """
import sys
sys.argv[0] = "pegbench/run.py"
sys.path[:0] = ["pegbench", "src"]
import run, workloads
real = workloads.serialize_grammar
workloads.serialize_grammar = lambda g: real(g) + " "
sys.exit(run.main(sys.argv[1:]))
"""


def test_corrupted_output_fails_the_run():
    code, lines = run_bench("--workload", "grammar_tooling", "--seconds", "0.2",
                            script=CORRUPT)
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "pegbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "pegbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "pegbench/run.py", "--workload",
                           "clean_files", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
