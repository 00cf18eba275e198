#!/usr/bin/env python3
"""Benchmark for pegrec: end-to-end speed, per-layer metrics, output checks.

    python3 pegbench/run.py --workload clean_files --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload's inputs come from --seed;
pegrec only sees the generated text.  With --trace 0 the run times the
workload's operations for --seconds and reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics from spans around every
call into pegrec, a cProfile pass, and the cost of the spans themselves.
Every run checks every output, and the outputs of a fixed reference set
against frozen.json; a mismatch makes the run exit with 1.

The human-readable report comes first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
Results, with the machine and Python version, go to pegbench/results/.

    python3 pegbench/run.py --freeze    # rewrite frozen.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FROZEN = BENCH / "frozen.json"
RESULTS = BENCH / "results"
SETUP_REPEATS = 7


def measure_setup() -> tuple[float, float]:
    """Median seconds to import pegrec and load the grammar and messages,
    calibrated (see clock.py) and raw.  Each repeat drops pegrec from
    sys.modules first; the last import is the one the rest of the run
    uses."""
    from clock import Clock

    clock = Clock()
    spans = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        for name in [m for m in sys.modules
                     if m == "pegrec" or m.startswith("pegrec.")]:
            del sys.modules[name]
        t0 = perf_counter()
        pegrec = importlib.import_module("pegrec")
        grammar = pegrec.load_grammar(str(ROOT / "grammars/tiny_java_annotated.peg"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pegrec.load_messages(str(ROOT / "grammars/tiny_java_messages.json"),
                                 grammar)
        spans.append((t0, perf_counter()))
    clock.calibrate()
    return (median((b - a) * clock.scale(a, b) for a, b in spans),
            median(b - a for a, b in spans))


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "pegrec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree; the search
    stops at the checkout so an enclosing repository is not reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    """One benchmark run: runs operations, checks their outputs, and
    counts operations and check failures."""

    def __init__(self, workload, clock):
        self.wl = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}
        self.samples: list[tuple[object, float, float]] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def _execute(self, tr, op):
        """Run one operation; returns (raw, out) or None if it raised."""
        self.attempted += 1
        self.clock.tick()
        # start every operation with an empty young generation and the
        # run's own objects out of the collector's way
        gc.freeze()
        try:
            with tr.operation(op.id):
                t0 = perf_counter()
                result = self.wl.run(tr, op)
                t1 = perf_counter()
        except Exception:  # the run goes on and reports the failure
            traceback.print_exc()
            self.fail(f"{op.id}: raised "
                      + traceback.format_exc(limit=1).strip().splitlines()[-1])
            return None
        self.samples.append((op, t0, t1))
        return result

    def first_round(self, tr) -> list:
        """Run every operation once and check its output fully."""
        from checks import digest

        ops = []
        for op, check in self.wl.first_round():
            ops.append(op)
            result = self._execute(tr, op)
            if result is None:
                continue
            self.first[op.id] = digest(result[1])
            problem = check(*result)
            if problem:
                self.fail(f"{op.id}: {problem}")
            del result
        _collect()
        return ops

    def repeat(self, tr, ops, budget: float = float("inf")) -> float:
        """Run each operation again, stopping early once they have taken
        ``budget`` seconds; its output must equal the first.  Returns the
        seconds the operations took."""
        from checks import digest

        busy = 0.0
        for op in ops:
            if busy >= budget:
                break
            result = self._execute(tr, op)
            if result is None:
                continue
            busy += self.samples[-1][2] - self.samples[-1][1]
            if digest(result[1]) != self.first.get(op.id):
                self.fail(f"{op.id}: output differs from its first run")
            # the next operation must not run with this one's tree alive
            del result
        _collect()
        return busy


def _collect() -> None:
    """Collect what the operations since the last call left in cycles."""
    gc.unfreeze()
    gc.collect()


class NoResult(Exception):
    pass


def check_reference(run: Run, tr, ctx, workloads) -> None:
    frozen = json.loads(FROZEN.read_text(encoding="utf-8"))
    got = workloads.reference_outputs(tr, ctx)
    for key in sorted(set(frozen) | set(got)):
        run.attempted += 1
        if frozen.get(key) != got.get(key):
            run.fail(f"reference {key}: output differs from frozen.json")


def timed(run: Run, ops, seconds: float) -> tuple[dict, dict]:
    """Repeat rounds of the operations until they have taken --seconds,
    the first round included; the last round stops when the time is
    spent.  Every operation's time is its median over the rounds.  Times
    are calibrated (see clock.py); the report has the raw ones too."""
    from spans import NoTracer

    busy = sum(t1 - t0 for _, t0, t1 in run.samples)
    while busy < seconds:
        took = run.repeat(NoTracer(), ops, seconds - busy)
        if not took:
            break  # every operation raised; the failures are counted
        busy += took
    run.clock.calibrate()
    calibrated: dict[str, list] = {}
    raw: dict[str, list] = {}
    for op, t0, t1 in run.samples:
        calibrated.setdefault(op.id, []).append((t1 - t0) * run.clock.scale(t0, t1))
        raw.setdefault(op.id, []).append(t1 - t0)

    done = [op for op in ops if op.id in raw]
    if not done:
        raise NoResult("no operation completed")

    def summary(times: dict[str, list]) -> dict:
        per_op = {op.id: median(times[op.id]) for op in done}
        busy = sum(per_op.values())
        return {
            "tok_s": sum(op.tokens for op in done) / busy,
            "ops_per_s": len(done) / busy,
            "op_ms_p50": median(per_op.values()) * 1e3,
            "op_ms_p90": quantiles(per_op.values(), n=10, method="inclusive")[8] * 1e3,
        }

    metrics = summary(calibrated)
    report = {"rounds": len(run.samples) / len(ops),
              "calibrations": run.clock.calibrations,
              "measured_s": sum(t1 - t0 for _, t0, t1 in run.samples)}
    report.update({f"{k}_raw": v for k, v in summary(raw).items()})
    if run.wl.name in ("clean_files", "broken_files"):
        for cls in dict.fromkeys(op.cls for op in done):
            mine = [op for op in done if op.cls == cls]
            report[f"tok_s_{cls}"] = (sum(op.tokens for op in mine)
                                      / sum(median(calibrated[op.id]) for op in mine))
    elif run.wl.name == "eval_corpus":
        report["cases_per_s"] = metrics["ops_per_s"]
        report["case_ms_p50"] = metrics["op_ms_p50"]
        report["case_ms_p90"] = metrics["op_ms_p90"]
    else:
        report["grammars_per_s"] = metrics["ops_per_s"]
    return metrics, report


def traced(run: Run, ops, seconds: float, ctx, tracer) -> dict:
    """Per-layer metrics: repeat the trace subset with and without spans,
    then the workload's layer pass, then one cProfile pass."""
    import metrics as M
    import spans as T

    import pegrec

    wl = run.wl
    subset = wl.trace_subset(ops)
    plain, spanned = [], []
    tracer.phase = "ops"
    sides = [(T.NoTracer(), plain), (tracer, spanned)]
    start = perf_counter()
    while len(spanned) < 4 or perf_counter() - start < seconds / 2:
        for tr, into in sides:
            first = len(run.samples)
            run.repeat(tr, subset)
            into.append(run.samples[first:])
        sides.reverse()  # alternate which side goes first
    run.clock.calibrate()

    def calibrated(samples):
        return sum((t1 - t0) * run.clock.scale(t0, t1) for _, t0, t1 in samples)

    tracer.phase = "layers"
    problem = wl.layer_pass(tracer, ops)
    if problem:
        run.fail(problem)
    tracer.phase = "profile"
    prof = T.profile(lambda: [wl.run(T.NoTracer(), op) for op in subset])

    def ms(name):
        d = (tracer.durations(name, "ops") + tracer.durations(name, "layers")
             or tracer.durations(name, "reference"))
        return median(d) * 1e3 if d else 0.0

    lexed = ctx.lexed["layers"] or ctx.lexed["reference"]
    lex_tokens = sum(r[0] for r in lexed)
    st = wl.stats
    ratings = st.ratings or ctx.reference_ratings
    if wl.name == "grammar_tooling":
        sites = (st.sites_inserted, st.sites_skipped)
    else:
        sites = (sum(s[0] for s in ctx.sites), sum(s[1] for s in ctx.sites))
    total_prof = sum(v[2] for v in prof.stats.values())
    out = {
        "lexer.scan_tok_s": lex_tokens / sum(r[2] for r in lexed),
        "lexer.share": sum(r[2] for r in lexed) / sum(r[3] for r in lexed),
        "lexer.tokens": lex_tokens,
        "lexer.stray_tokens": sum(r[1] for r in lexed),
        "engine.session_init_ms": ms("engine.Session"),
        "engine.parse_ms": ms("engine.parse"),
        "engine.recovery_share": T.cumulative(prof, "engine.py", "_throw") / total_prof,
        "engine.errors": st.errors,
        "engine.error_nodes": st.error_nodes,
        "engine.skipped_tok_share": st.skipped_tokens / st.tokens if st.tokens else 0.0,
        "engine.tree_nodes": st.tree_nodes,
        "engine.fatal_outcomes": st.fatal,
        "engine.tree_to_json_ms": ms("engine.tree_to_json"),
        "model.desugar_validate_ms": ms("model.desugar"),
        "dsl.load_grammar_ms": ms("dsl.load_grammar"),
        "analysis.build_ms": ms("analysis.Analysis"),
        "annotate.ms": ms("annotate.annotate"),
        "model.serialize_ms": ms("model.serialize_grammar"),
        "annotate.sites_inserted": sites[0],
        "annotate.sites_skipped": sites[1],
        "evaluate.load_corpus_ms": ms("evaluate.load_corpus"),
        "evaluate.run_case_ms": ms("evaluate.run_case"),
        "evaluate.classify_ms": ms("evaluate.classify_recovery"),
        "evaluate.excellent_share": ratings.count("excellent") / len(ratings),
        "evaluate.failed_share": ratings.count("failed") / len(ratings),
        "diagnostics.format_ms": ms("diagnostics.format_error"),
        "cli.eval_s": ms("cli.main") / 1e3,
        "trace.overhead_share": (median(map(calibrated, spanned))
                                 / (median(map(calibrated, plain)) or 1.0) - 1),
        "trace.spans": len(tracer.spans),
    }
    shares = T.module_self_shares(prof, os.path.dirname(pegrec.__file__), M.MODULES)
    for mod in M.MODULES:
        out[f"profile.{mod}.self_share"] = shares[mod]
    self_times = tracer.self_times("ops")
    total = sum(self_times.values())
    for layer in M.TRACE_LAYERS:
        out[f"trace.{layer}.self_share"] = self_times.get(layer, 0.0) / total
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="clean_files")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="write the reference outputs to frozen.json and exit")
    args = parser.parse_args(argv)

    if not (SRC / "pegrec" / "__init__.py").is_file():
        print(f"pegbench: no pegrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    setup_s, setup_raw_s = measure_setup()

    import metrics as M
    import spans as T
    import workloads
    from clock import Clock

    if args.workload not in workloads.WORKLOADS:
        print(f"pegbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
        ctx = workloads.Context(Path(tmp))
        if args.freeze:
            out = workloads.reference_outputs(T.NoTracer(), ctx)
            FROZEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
            print(f"wrote {len(out)} reference digests to {FROZEN}")
            return 0
        tracer = T.Tracer() if args.trace else T.NoTracer()
        wl = workloads.WORKLOADS[args.workload](ctx, args.seed)
        run = Run(wl, Clock())
        tracer.phase = "reference"
        try:
            check_reference(run, tracer, ctx, workloads)
        except Exception:  # the run goes on and reports the failure
            traceback.print_exc()
            run.fail("reference check raised")
        ops = run.first_round(T.NoTracer())
        if args.trace:
            values = traced(run, ops, args.seconds, ctx, tracer)
            report = {}
            names = M.PER_LAYER
        else:
            try:
                values, report = timed(run, ops, args.seconds)
            except NoResult as exc:
                print(f"pegbench: {exc}", file=sys.stderr)
                return 1
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            values["setup_s"] = setup_s
            names = M.END_TO_END

    correct = run.failed == 0
    report["setup_s_raw"] = setup_raw_s
    report["mismatch_share"] = run.failed / max(1, run.attempted)
    st = wl.stats
    if args.workload == "broken_files":
        report["failed_share"] = st.fatal / st.parses
    if args.workload == "eval_corpus":
        report["failed_share"] = st.ratings.count("failed") / len(st.ratings)
        report["excellent_share"] = st.ratings.count("excellent") / len(st.ratings)
    metrics = {n: {"value": values[n], "unit": names[n][0]} for n in names}
    env = environment(args.seed)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems,
              "metrics": metrics, "report": report}
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n",
                                          encoding="utf-8")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"environment": env, "spans": tracer.to_json()}) + "\n",
            encoding="utf-8")

    print(f"pegbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} cpu={env['cpu']!r} nproc={env['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:<28}{m['value']:>16.6g} {m['unit']}")
    for name, value in report.items():
        print(f"  {name:<28}{value:>16.6g}")
    for problem in run.problems:
        print(f"  MISMATCH {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
