#!/usr/bin/env python3
"""Split the time of ``pegrec parse --json`` on clean tiny-Java files by step.

Builds the files of pegbench's clean_files workload (12 of about 1k tokens,
4 of 10k and 1 of 40k, from ``pegbench/gen.py`` with ``random.Random(SEED)``)
and times, per file, ``Session`` (lexing), ``parse``, ``tree_to_json`` and
``tree_to_json_text`` with the cyclic collector on and ``gc.freeze()``
before each step, as ``pegbench/run.py`` does before each operation;
``tree_to_json`` is also timed with the collector off.  It counts the
collections per generation that each step sets off (``gc.callbacks``) and
the time spent in them, and per file the nodes by shape and the distinct
dicts and lists ``tree_to_json`` returns.  Writes BENCH_tree_json.json,
recording the machine and the Python version.

    python scripts/bench_tree_json.py                      # 17 files, 7 rounds
    python scripts/bench_tree_json.py --files 1 --rounds 1 -o /tmp/bench.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import subprocess
import sys
import warnings
from pathlib import Path
from itertools import islice
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "pegbench"))

import gen  # noqa: E402  (the benchmark's generator, read-only)
from pegrec import load_grammar, load_messages  # noqa: E402
from pegrec.engine import Session, tree_to_json, tree_to_json_text  # noqa: E402

SEED = 1  # the generator's seed: pegbench/run.py's default --seed

CLASSES = (("1k", 1000, 12), ("10k", 10000, 4), ("40k", 40000, 1))
STEPS = ("Session", "parse", "tree_to_json", "tree_to_json_text",
         "tree_to_json_gc_off")


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "git_commit": commit}


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
    parser.add_argument("--files", type=int, default=sum(c for _, _, c in CLASSES),
                        help="time only the first N files (default: all 17)")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("-o", "--out", default=str(ROOT / "BENCH_tree_json.json"))
    args = parser.parse_args(argv)

    grammar = load_grammar(str(ROOT / "grammars" / "tiny_java_annotated.peg"))
    with warnings.catch_warnings():
        # the message file names labels of tiny_java_labeled.peg
        warnings.simplefilter("ignore")
        messages = load_messages(str(ROOT / "grammars" / "tiny_java_messages.json"),
                                 grammar)
    rng = random.Random(SEED)
    # the first N files of the full set: the generator draws them in order
    files = [(f"{cls}_{i:02}", gen.program(gen.BASE, rng, size))
             for cls, size, i in islice(((cls, size, i) for cls, size, count in CLASSES
                                         for i in range(count)), args.files)]
    Session(grammar, "").parse()  # compile the grammar before timing

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
    rounds = []
    per_file = {}
    try:
        for _ in range(args.rounds):
            times = dict.fromkeys(STEPS, 0.0)
            collections.clear()
            for name, prog in files:
                session = timed("Session", Session, grammar, prog.text, messages=messages)
                outcome = timed("parse", session.parse)
                if outcome.status != "matched" or outcome.errors:
                    raise SystemExit(f"{name}: did not parse cleanly")
                tree = timed("tree_to_json", tree_to_json, outcome.tree)
                if name not in per_file:
                    per_file[name] = {"tokens": len(prog.tokens), **shapes(tree)}
                del tree
                timed("tree_to_json_text", tree_to_json_text, outcome.tree)
                gc.disable()
                try:
                    timed("tree_to_json_gc_off", tree_to_json, outcome.tree)
                finally:
                    gc.enable()
                del session, outcome
            gc.unfreeze()
            gc.collect()
            rounds.append({"ms": {k: round(v * 1000, 2) for k, v in times.items()},
                           "collections": {
                               name: {str(gen_): {"count": c, "ms": round(s * 1000, 2)}
                                      for (st, gen_), (c, s) in sorted(collections.items())
                                      if st == name}
                               for name in STEPS}})
    finally:
        gc.callbacks.remove(on_collect)

    result = {
        "what": "one round = every file once through Session, parse, tree_to_json "
                "and tree_to_json_text, collector on, gc.freeze() before each step; "
                "tree_to_json_gc_off is tree_to_json again with the collector off",
        "machine": machine(),
        "seed": SEED,
        "rounds": args.rounds,
        "tokens_per_round": sum(f["tokens"] for f in per_file.values()),
        "median_ms_per_round": {k: round(median(r["ms"][k] for r in rounds), 2)
                                for k in STEPS},
        "median_collections_per_round": {
            k: {g: {"count": median(r["collections"][k].get(g, {}).get("count", 0)
                                    for r in rounds),
                    "ms": round(median(r["collections"][k].get(g, {}).get("ms", 0.0)
                                       for r in rounds), 2)}
                for g in ("0", "1", "2")}
            for k in STEPS},
        "files": per_file,
        "per_round": rounds,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for k in STEPS:
        print(f"{k:22} {result['median_ms_per_round'][k]:9.2f} ms/round")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
