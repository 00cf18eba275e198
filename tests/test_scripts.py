"""The command-line scripts under scripts/, run as their own processes."""

import json
import subprocess
import sys
from pathlib import Path

from pegrec.annotate import annotate
from pegrec.engine import parse

from helpers import fix_factorial

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    # each script puts src/ on its own path; a warning fails the run, as
    # CI's -W error makes a warning in library code fail
    return subprocess.run([sys.executable, "-W", "error", str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_eval_tiny_java_rates_a_small_corpus():
    done = run_script("eval_tiny_java.py", "--count", "5", "--seed", "1")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "annotated tiny_java.peg: 40 recovery points, 29 sites left alone",
        "category        count   percent",
        "excellent          15     75.0%",
        "needs-review        5     25.0%",
        "failed              0      0.0%",
        "total              20",
    ]
    done = run_script("eval_tiny_java.py", "--count", "5", "--seed", "1", "--json")
    assert (done.returncode, done.stderr) == (0, "")
    data = json.loads(done.stdout)
    assert data["counts"] == {"excellent": 15, "needs-review": 5, "failed": 0}
    assert len(data["cases"]) == 20 and data["unreadable"] == []


def test_make_mutants_skips_a_broken_source_and_mutates_a_clean_one(
        tmp_path, grammar_dir, tiny_java):
    grammar = str(grammar_dir / "tiny_java.peg")
    broken = grammar_dir / "factorial.java"
    out = tmp_path / "corpus"
    done = run_script("make_mutants.py", grammar, str(broken), "-n", "3",
                      "--seed", "1", "-o", str(out))
    assert done.returncode == 0
    assert done.stderr == f"skipping {broken}: does not parse cleanly\n"
    assert done.stdout == f"wrote 0 cases to {out}\n"
    assert list(out.iterdir()) == []

    text = fix_factorial(broken.read_text())
    fixed = tmp_path / "fixed.java"
    fixed.write_text(text)
    done = run_script("make_mutants.py", grammar, str(fixed), "-n", "3",
                      "--seed", "1", "-o", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "fixed_000: delete '(' at token 8",
        "fixed_001: delete 'n' at token 16",
        "fixed_002: duplicate '{' at token 31",
        f"wrote 3 cases to {out}",
    ]
    stems = [f"fixed_{i:03}" for i in range(3)]
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(f"{stem}{suffix}" for stem in stems for suffix in (".bad", ".ok"))
    annotated, _ = annotate(tiny_java)
    assert parse(annotated, text).ok
    for stem in stems:
        assert (out / f"{stem}.ok").read_text() == text
        assert not parse(annotated, (out / f"{stem}.bad").read_text()).ok


def test_bench_layers_splits_the_first_text_of_each_set(tmp_path):
    out = tmp_path / "bench.json"
    done = run_script("bench_layers.py", "--files", "1", "--rounds", "1", "-o", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    data = json.loads(out.read_text())
    assert data["rounds"] == 1 and len(data["per_round"]) == 1
    assert data["machine"]["python"].split()[1] == ".".join(map(str, sys.version_info[:3]))
    assert data["machine"]["seed"] == 1
    assert set(data["lexer"]) == {"clean_files", "broken_files", "eval_corpus"}
    for entry in data["lexer"].values():
        assert entry["texts"] == 1 and entry["tok_s"] > 0
        # tiny-Java lexes every token with one pattern per first character
        assert entry["paths"]["loop"] == 0
        assert sum(entry["paths"].values()) == entry["tokens"] > 0
    steps = data["steps"]
    assert set(steps["median_ms_per_round"]) == {
        "Session", "parse", "tree_to_json", "tree_to_json_text", "tree_to_json_gc_off"}
    [(name, shapes)] = steps["files"].items()
    assert name == "1k_00"
    assert shapes["tokens"] == shapes["token"] == steps["tokens_per_round"] \
        == data["lexer"]["clean_files"]["tokens"]
    rules = shapes["rule_one_child"] + shapes["rule_more_children"] + shapes["rule_empty"]
    assert shapes["nodes"] == shapes["token"] + shapes["error"] + rules
    # a dict per node, a span list per node but a one-child rule's, a
    # children list per rule
    assert shapes["containers"] == 2 * shapes["nodes"] - shapes["rule_one_child"] + rules
    pipeline = data["grammar_pipeline"]
    assert list(pipeline["grammars"]) == ["tiny_java"]
    assert pipeline["grammars"]["tiny_java"]["preserve_existing"] is False
    assert list(pipeline["median_ms_per_round"]) == [
        "dsl_read", "validate", "annotate", "analysis_follow", "serialize_grammar", "reparse"]
    assert all(ms > 0 for ms in pipeline["median_ms_per_round"].values())
    assert abs(sum(pipeline["share"].values()) - 1) < 0.01
