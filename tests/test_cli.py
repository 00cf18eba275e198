import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pegrec
from pegrec.cli import main
from pegrec.dsl import parse_grammar
from pegrec.engine import tree_to_json_text
from pegrec.model import grammar_eq

SMALL = """\
start <- AA [BB]^miss AA ;
AA <- 'a' ;
BB <- 'b' ;
%recovery
miss <- '' ;
"""


@pytest.fixture
def small_grammar(tmp_path):
    path = tmp_path / "small.peg"
    path.write_text(SMALL)
    return path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- annotate --------------------------------------------------------------

def test_annotate_roundtrips_to_file(tmp_path, grammar_dir, tiny_java):
    out = tmp_path / "annotated.peg"
    code = main(["annotate", str(grammar_dir / "tiny_java.peg"),
                 "-o", str(out)])
    assert code == 0
    from pegrec.annotate import annotate
    expected, _ = annotate(tiny_java)
    assert grammar_eq(parse_grammar(out.read_text()), expected)


def test_annotate_stdout_and_report(capsys, grammar_dir):
    code = main(["annotate", str(grammar_dir / "tiny_java.peg"), "--report"])
    captured = capsys.readouterr()
    assert code == 0
    assert "%recovery" in captured.out
    assert "inserted" in captured.err
    assert "Err_Prog_1" in captured.err


def test_annotate_preserve_and_prefix(capsys, grammar_dir):
    code = main(["annotate", str(grammar_dir / "tiny_java_labeled.peg"),
                 "--preserve", "--prefix", "Syn"])
    captured = capsys.readouterr()
    assert code == 0
    # hand labels survive, fresh ones use the requested prefix
    assert "^rpw" in captured.out
    assert "Syn_Prog_1" in captured.out
    assert "Err_" not in captured.out


@pytest.mark.parametrize("prefix", ["9x", "a b", "a-b"])
def test_annotate_rejects_a_prefix_that_is_no_name(capsys, grammar_dir, prefix):
    # a label such a prefix begins could not be read back
    code = main(["annotate", str(grammar_dir / "tiny_java.peg"), "--prefix", prefix])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("pegrec: ") and repr(prefix) in captured.err


def test_annotate_report_to_json_file(tmp_path, grammar_dir):
    out = tmp_path / "annotated.peg"
    report_path = tmp_path / "report.json"
    code = main(["annotate", str(grammar_dir / "tiny_java.peg"),
                 "-o", str(out), "--report", str(report_path)])
    assert code == 0
    data = json.loads(report_path.read_text())
    assert len(data["inserted"]) == 40
    assert len(data["skipped"]) == 29
    first = data["inserted"][0]
    assert first["rule"] == "Prog" and first["label"] == "Err_Prog_1"


def test_annotate_bad_grammar_exits_2(capsys, tmp_path):
    path = write(tmp_path, "bad.peg", "start <- Missing ;")
    assert main(["annotate", path]) == 2
    assert "pegrec:" in capsys.readouterr().err


# --- analyze -----------------------------------------------------------------

def test_analyze_prints_both_sets_by_default(capsys, small_grammar):
    assert main(["analyze", str(small_grammar)]) == 0
    out = capsys.readouterr().out
    assert "FIRST(start) = { AA }" in out
    assert "FOLLOW(start) = { EOF }" in out


def test_analyze_first_only(capsys, small_grammar):
    assert main(["analyze", str(small_grammar), "--first"]) == 0
    out = capsys.readouterr().out
    assert "FIRST(start)" in out
    assert "FOLLOW" not in out


def test_analyze_single_rule_lists_kinds(capsys, small_grammar, tmp_path):
    assert main(["analyze", str(small_grammar), "--first", "start"]) == 0
    assert capsys.readouterr().out == "AA\n"
    assert main(["analyze", str(small_grammar), "--follow", "start"]) == 0
    assert capsys.readouterr().out == "EOF\n"

    nullable = write(tmp_path, "n.peg", "start <- AA? ;\nAA <- 'a' ;")
    assert main(["analyze", nullable, "--first", "start"]) == 0
    assert capsys.readouterr().out == "AA\nε\n"


def test_analyze_unknown_rule_exits_2(capsys, small_grammar):
    # Analysis raises the error; the command prints it as one line
    for flag in ("--first", "--follow"):
        assert main(["analyze", str(small_grammar), flag, "Nope"]) == 2
        assert capsys.readouterr() == ("", "pegrec: unknown rule 'Nope'\n")


# --- parse -------------------------------------------------------------------

def test_parse_clean_exit_0(capsys, tmp_path, small_grammar):
    src = write(tmp_path, "ok.txt", "a b a")
    assert main(["parse", str(small_grammar), src]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""


def test_parse_recovered_exit_1_with_message(capsys, tmp_path, small_grammar):
    src = write(tmp_path, "broken.txt", "a a")
    assert main(["parse", str(small_grammar), src]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{src}:1: syntax error, expected BB\n"


def test_parse_failed_exit_2(capsys, tmp_path, small_grammar):
    src = write(tmp_path, "hopeless.txt", "b")
    assert main(["parse", str(small_grammar), src]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_parse_json_tree(capsys, tmp_path, small_grammar):
    src = write(tmp_path, "broken.txt", "a a")
    assert main(["parse", str(small_grammar), src, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["rule"] == "start"
    kinds = [c.get("token") or c.get("error") for c in data["children"]]
    assert kinds == ["AA", "miss", "AA"]


def test_parse_json_is_one_compact_line(capsys, tmp_path, grammar_dir):
    grammar = grammar_dir / "tiny_java_annotated.peg"
    src = write(tmp_path, "broken.java", (grammar_dir / "factorial.java").read_text())
    assert main(["parse", str(grammar), src, "--json"]) == 1
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert ", " not in out and ": " not in out
    outcome = pegrec.parse(pegrec.load_grammar(str(grammar)), Path(src).read_text())
    assert json.loads(out) == pegrec.tree_to_json(outcome.tree)


def test_parse_custom_messages(capsys, tmp_path, small_grammar):
    src = write(tmp_path, "broken.txt", "a a")
    msgs = write(tmp_path, "m.json", json.dumps({"miss": "b required"}))
    main(["parse", str(small_grammar), src, "--messages", msgs])
    assert "b required" in capsys.readouterr().err


def test_messages_file_nested_too_deeply_exits_2(capsys, tmp_path, small_grammar):
    msgs = write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
    argv = ["parse", str(small_grammar), write(tmp_path, "in.txt", "a a"),
            "--messages", msgs]
    want = f"pegrec: message file {msgs} nested too deeply\n"
    assert main(argv) == 2
    assert capsys.readouterr().err == want
    done = run_module(*argv)
    assert (done.returncode, done.stderr) == (2, want)


def test_parse_suppress_within(capsys, tmp_path):
    grammar = write(tmp_path, "g.peg", """\
start <- Item Item Item ;
Item <- CC [AA]^e ;
CC <- 'c' ;
AA <- 'a' ;
BB <- 'b' ;
%recovery
e <- (!CC .)* ;
""")
    src = write(tmp_path, "src.txt", "c b c b c a")
    main(["parse", grammar, src])
    assert capsys.readouterr().err.count("syntax error") == 2
    assert main(["parse", grammar, src, "--suppress-within", "5"]) == 1
    assert capsys.readouterr().err.count("syntax error") == 1


@pytest.mark.parametrize("command", ["parse", "eval"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_errors_below_one_is_a_usage_error(capsys, tmp_path, small_grammar,
                                               command, value):
    # a parse that may record no error would fail with none to print
    target = write(tmp_path, "in.txt", "a a") if command == "parse" else str(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, str(small_grammar), target, "--max-errors", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pegrec " + command) and "--max-errors" in err


def test_parse_missing_file_exits_2(capsys, small_grammar):
    assert main(["parse", str(small_grammar), "/nonexistent/f.txt"]) == 2
    assert "pegrec:" in capsys.readouterr().err


# --- eval --------------------------------------------------------------------

def corpus_with(tmp_path, label):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "c1.bad").write_text("a a")
    (corpus / "c1.ok").write_text("a b a")
    (corpus / "c1.label").write_text(label)
    return corpus


def test_eval_table_and_exit_0(capsys, tmp_path, small_grammar):
    corpus = corpus_with(tmp_path, "miss")
    assert main(["eval", str(small_grammar), str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "excellent" in out and "100.0%" in out


def test_eval_label_mismatch_exit_1(capsys, tmp_path, small_grammar):
    corpus = corpus_with(tmp_path, "wrong")
    assert main(["eval", str(small_grammar), str(corpus)]) == 1
    assert "label mismatches: 1" in capsys.readouterr().out


def test_eval_of_a_path_that_is_not_a_directory_exits_2(capsys, tmp_path, small_grammar):
    corpus = corpus_with(tmp_path, "miss")
    for path in (tmp_path / "missing", corpus / "c1.bad"):
        assert main(["eval", str(small_grammar), str(path)]) == 2
        assert capsys.readouterr().err == f"pegrec: {path}: not a directory\n"
    (tmp_path / "empty").mkdir()
    assert main(["eval", str(small_grammar), str(tmp_path / "empty")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "0"]


def test_eval_json(capsys, tmp_path, small_grammar):
    corpus = corpus_with(tmp_path, "miss")
    assert main(["eval", str(small_grammar), str(corpus), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["excellent"] == 1
    assert data["cases"][0]["first_label"] == "miss"


# --- files that are not UTF-8 ---------------------------------------------------

@pytest.mark.parametrize("command", ["parse", "parse --messages", "analyze",
                                     "annotate", "eval"])
def test_file_that_is_not_utf8_exits_2(capsys, tmp_path, small_grammar, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"start <- AA ;\xff")
    grammar, source = str(small_grammar), write(tmp_path, "in.txt", "a b a")
    argv = {
        "parse": ["parse", grammar, str(bad)],
        "parse --messages": ["parse", grammar, source, "--messages", str(bad)],
        "analyze": ["analyze", str(bad)],
        "annotate": ["annotate", str(bad)],
        "eval": ["eval", str(bad), str(tmp_path)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"pegrec: {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("suffix", [".bad", ".ok", ".label"])
def test_eval_reports_a_case_that_is_not_utf8_as_unreadable(capsys, tmp_path,
                                                            small_grammar, suffix):
    # as a case file that cannot be opened: named, and the run goes on
    corpus = corpus_with(tmp_path, "miss")
    (corpus / "c0.bad").write_text("a b a")
    bad = corpus / f"c1{suffix}"
    bad.write_bytes(b"a \xff")
    assert main(["eval", str(small_grammar), str(corpus), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [case["name"] for case in data["cases"]] == ["c0"]
    [unreadable] = data["unreadable"]
    assert unreadable.startswith(f"c1: {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("tree", ["{bad", "[]", "{}", '{"span": [0, 1]}',
                                  '{"rule": "start", "span": [0, 1], "children": [7]}',
                                  "[" * 100000 + "]" * 100000],
                         ids=["not-json", "list", "no-span", "no-kind", "child",
                              "deep"])
def test_eval_reports_a_tree_file_that_holds_no_tree_as_unreadable(
        capsys, tmp_path, small_grammar, tree):
    corpus = corpus_with(tmp_path, "miss")
    (corpus / "c0.bad").write_text("a b a")
    bad = corpus / "c1.tree"
    bad.write_text(tree)
    assert main(["eval", str(small_grammar), str(corpus)]) == 0
    assert f"unreadable: c1: {bad}: not a JSON syntax tree: " in capsys.readouterr().out
    assert main(["eval", str(small_grammar), str(corpus), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [case["name"] for case in data["cases"]] == ["c0"]
    [unreadable] = data["unreadable"]
    assert unreadable.startswith(f"c1: {bad}: not a JSON syntax tree: ")
    done = run_module("eval", str(small_grammar), str(corpus))
    assert (done.returncode, done.stderr) == (0, "")


def run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m pegrec`` in a new process, which starts at the default
    recursion limit."""
    src = str(Path(pegrec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "pegrec", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _deep_java(tmp_path, depth: int) -> str:
    return write(tmp_path, f"deep{depth}.java",
                 "public class A { public static void main ( String [ ] a ) "
                 "{ x = " + "( " * depth + "1" + " )" * depth + " ; } }")


def test_module_runs_cli_and_deep_nesting_exits_2(tmp_path, grammar_dir):
    # python -m pegrec works without the console script installed; at about
    # 6 frames per paren level, 6000 levels overflow the stack budget of
    # 20000 frames a pegrec call runs under
    source = _deep_java(tmp_path, 6000)
    done = run_module("parse", str(grammar_dir / "tiny_java_annotated.peg"), source)
    assert done.returncode == 2
    assert "input nested too deeply" in done.stderr
    assert "Traceback" not in done.stderr


def test_json_of_a_deep_tree_prints(tmp_path, grammar_dir):
    # 3000 levels parse, and their tree, about 10 JSON levels per paren
    # level, is written without recursion
    grammar = str(grammar_dir / "tiny_java_annotated.peg")
    source = _deep_java(tmp_path, 3000)
    done = run_module("parse", grammar, source, "--json")
    assert (done.returncode, done.stderr) == (0, "")
    tree = pegrec.parse(pegrec.load_grammar(grammar), Path(source).read_text()).tree
    assert done.stdout == tree_to_json_text(tree) + "\n"
    assert done.stdout.count('{"token":"LPAR"') == 3000 + 1


# deeper than the stack budget of a pegrec call (model.STACK_BUDGET)
DEEP_GRAMMAR = "start <- " + "(" * 30000 + "AA" + ")" * 30000 + " ;\nAA <- 'a' ;\n"


@pytest.mark.parametrize("command", [["analyze"], ["parse"]], ids=["analyze", "parse"])
def test_deeply_nested_grammar_exits_2(capsys, tmp_path, command):
    grammar = write(tmp_path, "deep.peg", DEEP_GRAMMAR)
    argv = command + [grammar] + ([write(tmp_path, "x.txt", "a")]
                                  if command == ["parse"] else [])
    assert main(argv) == 2
    assert "grammar nested too deeply" in capsys.readouterr().err
    done = run_module(*argv)
    assert done.returncode == 2
    assert "grammar nested too deeply" in done.stderr
    assert "Traceback" not in done.stderr


def test_self_reaching_lexical_rule_exits_2(capsys, tmp_path):
    grammar = write(tmp_path, "nest.peg", "start <- NEST* ;\nNEST <- '(' NEST* ')' ;\n")
    argv = ["parse", grammar, write(tmp_path, "x.txt", "(())")]
    assert main(argv) == 2
    want = ("pegrec: lexical rule NEST reaches itself; "
            "a token must be a regular pattern")
    assert want in capsys.readouterr().err
    done = run_module(*argv)
    assert done.returncode == 2
    assert want in done.stderr
    assert "Traceback" not in done.stderr
