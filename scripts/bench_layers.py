#!/usr/bin/env python3
"""Split the time of lexing, tree building and the grammar pipeline on
pegbench's own texts.

The texts are those of pegbench's clean_files, broken_files and eval_corpus
workloads (``pegbench/workloads.py``, seed ``SEED``), in the workloads'
order; an eval case gives its mutant, then its original.  Each round lexes
every text with ``TokenStream``, then runs each clean file through
``Session``, ``parse``, ``tree_to_json``, ``tree_to_json_text`` and, with
the collector off, ``tree_to_json`` again.  Then it runs each grammar of
the grammar_tooling workload through the steps of that workload's
operation, with the arguments it passes: the DSL reader and ``validate``
(which ``load_grammar`` runs in turn), ``annotate``, ``Analysis`` with the
FOLLOW set of every rule, ``serialize_grammar`` and ``parse_grammar`` of
its text (the reparse).  The collector is otherwise on,
with ``gc.freeze()`` before each step, as in ``pegbench/run.py``.  Counts
each step's collections per generation (``gc.callbacks``), each set's
tokens per lexer path (one group pattern, the loop over candidates, a stray
character), and each clean tree's nodes by shape and distinct dicts and
lists.  Writes BENCH_layers.json with pegbench's machine record.

    python scripts/bench_layers.py                      # every text, 7 rounds
    python scripts/bench_layers.py --files 1 --rounds 1 -o /tmp/bench.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
from itertools import islice
from pathlib import Path
from statistics import median
from time import perf_counter
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "pegbench"), str(ROOT / "src")]

import run  # noqa: E402  (pegbench's runner, read-only: its machine record)
from workloads import WORKLOADS, Context  # noqa: E402  (pegbench's texts, read-only)
from pegrec import dsl  # noqa: E402
from pegrec.analysis import Analysis  # noqa: E402
from pegrec.annotate import annotate  # noqa: E402
from pegrec.engine import Session, tree_to_json, tree_to_json_text  # noqa: E402
from pegrec.lexer import TokenStream, _lexer, read_text  # noqa: E402
from pegrec.model import serialize_grammar, validate  # noqa: E402

SEED = 1  # pegbench/run.py's default --seed
SETS = ("clean_files", "broken_files", "eval_corpus")
STEPS = ("Session", "parse", "tree_to_json", "tree_to_json_text",
         "tree_to_json_gc_off")
GRAMMAR_STEPS = ("dsl_read", "validate", "annotate", "analysis_follow",
                 "serialize_grammar", "reparse")


def texts(ctx: Context, name: str):
    """(op, text) for each text the workload's first round lexes."""
    for op, _ in WORKLOADS[name](ctx, SEED).first_round():
        if name == "eval_corpus":
            for path in (op.data.bad_path, op.data.ok_path):
                yield op, path.read_text(encoding="utf-8")
        else:
            yield op, op.data[1]


class _Recorder:
    """A pegbench tracer that keeps the arguments of each call it runs."""

    phase = ""

    def __init__(self):
        self.args: dict[str, tuple] = {}

    def call(self, name, fn, *args):
        self.args[name] = args
        return fn(*args)


def grammars(ctx: Context):
    """(op, grammar text, annotator config) for each grammar of the
    grammar_tooling workload's first round, as its operation reads them."""
    workload = WORKLOADS["grammar_tooling"](ctx, SEED)
    for op, _ in workload.first_round():
        calls = _Recorder()
        workload.run(calls, op)
        (path,) = calls.args["dsl.load_grammar"]
        _, config = calls.args["annotate.annotate"]
        yield op, read_text(path), config


def analysis_follow(g) -> None:
    """``Analysis`` and every rule's FOLLOW set, as the workload takes them."""
    a = Analysis(g)
    for rule in g.rules:
        a.follow_of(rule)


def paths(grammar, texts: list[str]) -> dict[str, int]:
    """Tokens by the path that lexed them."""
    counts = dict.fromkeys(("pattern", "loop", "stray"), 0)
    by_char = _lexer(grammar).by_char
    for text in texts:
        stream = TokenStream(grammar, text)
        for kind, (start, _) in zip(stream.kinds, stream.spans):
            if kind is None:
                counts["stray"] += 1
            else:
                counts["loop" if by_char[text[start]][0] is None else "pattern"] += 1
    return counts


def shapes(tree: dict) -> dict:
    """Nodes by shape, and the distinct dicts and lists of the tree."""
    counts = dict.fromkeys(("token", "rule_one_child", "rule_more_children",
                            "rule_empty", "error"), 0)
    containers = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        containers.add(id(node))
        containers.add(id(node["span"]))
        if "token" in node:
            counts["token"] += 1
        elif "error" in node:
            counts["error"] += 1
        else:
            children = node["children"]
            containers.add(id(children))
            counts[("rule_empty", "rule_one_child")[len(children)]
                   if len(children) < 2 else "rule_more_children"] += 1
            stack.extend(children)
    counts["nodes"] = sum(counts.values())
    counts["containers"] = len(containers)
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=None,
                        help="take only the first N texts of each set (default: all)")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("-o", "--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        ctx = Context(Path(tmp))
        sets = {name: list(islice(texts(ctx, name), args.files)) for name in SETS}
        pipeline = list(islice(grammars(ctx), args.files))
    grammar, messages = ctx.grammar, ctx.messages
    Session(grammar, "").parse()  # build the lexer and the matcher before timing

    step = None
    collections: dict = {}  # (step, generation) -> [count, seconds]
    started = [0.0]

    def on_collect(phase, info):
        if phase == "start":
            started[0] = perf_counter()
        elif step is not None:
            entry = collections.setdefault((step, info["generation"]), [0, 0.0])
            entry[0] += 1
            entry[1] += perf_counter() - started[0]

    def timed(name, f, *a, **kw):
        nonlocal step
        gc.freeze()
        step = name
        t0 = perf_counter()
        result = f(*a, **kw)
        times[name] += perf_counter() - t0
        step = None
        return result

    gc.callbacks.append(on_collect)
    rounds, files = [], {}
    for _ in range(args.rounds):
        times = dict.fromkeys(SETS + STEPS + GRAMMAR_STEPS, 0.0)
        collections.clear()
        for name, pairs in sets.items():
            for _, text in pairs:
                timed(name, TokenStream, grammar, text)
            gc.unfreeze()
            gc.collect()
        for op, text in sets["clean_files"]:
            session = timed("Session", Session, grammar, text, messages=messages)
            outcome = timed("parse", session.parse)
            if outcome.status != "matched" or outcome.errors:
                raise SystemExit(f"{op.id}: did not parse cleanly")
            tree = timed("tree_to_json", tree_to_json, outcome.tree)
            if op.id not in files:
                files[op.id] = {"tokens": op.tokens, **shapes(tree)}
            del tree
            timed("tree_to_json_text", tree_to_json_text, outcome.tree)
            gc.disable()
            timed("tree_to_json_gc_off", tree_to_json, outcome.tree)
            gc.enable()
            del session, outcome
        gc.unfreeze()
        gc.collect()
        for op, text, config in pipeline:
            with mock.patch.object(dsl, "validate", lambda g: g):
                g = timed("dsl_read", dsl.parse_grammar, text)  # the reader alone
            timed("validate", validate, g)
            annotated, _ = timed("annotate", annotate, g, config)
            timed("analysis_follow", analysis_follow, annotated)
            out = timed("serialize_grammar", serialize_grammar, annotated)
            timed("reparse", dsl.parse_grammar, out)
            del g, annotated, out
        gc.unfreeze()
        gc.collect()
        rounds.append({"ms": {k: round(v * 1000, 3) for k, v in times.items()},
                       "collections": {f"{name} gen{gen}": [c, round(sec * 1000, 3)]
                                       for (name, gen), (c, sec) in sorted(collections.items())}})
    gc.callbacks.remove(on_collect)

    def med(values) -> float:
        return round(median(values), 3)

    lexer = {}
    for name, pairs in sets.items():
        count = paths(grammar, [text for _, text in pairs])
        tokens, ms = sum(count.values()), med(r["ms"][name] for r in rounds)
        lexer[name] = {"texts": len(pairs), "tokens": tokens, "median_ms_per_round": ms,
                       "tok_s": round(tokens / ms * 1000), "paths": count}
        print(f"{name:19} {ms:9.2f} ms/round {tokens:7} tokens {lexer[name]['tok_s']:8} tok/s"
              f"  {count}")
    steps = {k: med(r["ms"][k] for r in rounds) for k in STEPS}
    for k, ms in steps.items():
        print(f"{k:19} {ms:9.2f} ms/round")
    grammar_ms = {k: med(r["ms"][k] for r in rounds) for k in GRAMMAR_STEPS}
    total = sum(grammar_ms.values())
    for k, ms in grammar_ms.items():
        print(f"{k:19} {ms:9.2f} ms/round  {ms / total:6.1%}")
    keys = sorted({key for r in rounds for key in r["collections"]})
    result = {
        "what": "one round = every text of each set lexed once by TokenStream, then "
                "every clean file once through Session, parse, tree_to_json and "
                "tree_to_json_text, then every grammar of grammar_tooling once "
                "through the DSL reader, validate, annotate, Analysis with every "
                "FOLLOW set, serialize_grammar and the reparse of that text; "
                "collector on, gc.freeze() before each step; "
                "tree_to_json_gc_off is tree_to_json again with the collector off; "
                "collections are [count, ms] per step and generation",
        "machine": run.environment(SEED),
        "rounds": args.rounds,
        "lexer": lexer,
        "steps": {"tokens_per_round": sum(f["tokens"] for f in files.values()),
                  "median_ms_per_round": steps, "files": files},
        "grammar_pipeline": {
            "grammars": {op.id: {"dsl_tokens": op.tokens, "preserve_existing":
                                 config.preserve_existing} for op, _, config in pipeline},
            "median_ms_per_round": grammar_ms,
            "share": {k: round(ms / total, 4) for k, ms in grammar_ms.items()}},
        "median_collections_per_round": {
            key: [med(r["collections"].get(key, [0, 0])[i] for r in rounds) for i in (0, 1)]
            for key in keys},
        "per_round": rounds,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
