"""Every metric the benchmark reports, with its unit and direction.

BENCHMARK.json lists the same names (a test keeps them equal).  Each
workload reports every end-to-end metric; an operation is one
``pegrec parse --json`` of a file (clean_files, broken_files), one
``run_case`` (eval_corpus), or one grammar through load_grammar ->
annotate -> Analysis -> serialize_grammar -> parse_grammar
(grammar_tooling).  So ``ops_per_s`` is cases per second on eval_corpus
and grammars per second on grammar_tooling, and ``tok_s`` counts program
tokens, except on grammar_tooling, where it counts grammar-text tokens.
"""

from __future__ import annotations

MODULES = ("analysis", "annotate", "cli", "diagnostics", "dsl", "engine",
           "evaluate", "lexer", "model")
# layers as the traced run sees them: pegrec modules, plus "bench" for the
# benchmark's own time inside an operation
TRACE_LAYERS = ("bench",) + MODULES

# name: (unit, better, bound, what it is)
END_TO_END = {
    "tok_s": ("tok/s", "higher", 0.25,
              "input tokens per second of operation time"),
    "ops_per_s": ("1/s", "higher", 0.25,
                  "operations per second of operation time"),
    "op_ms_p50": ("ms", "lower", 0.2, "median latency of one operation"),
    "op_ms_p90": ("ms", "lower", 0.2,
                  "90th-percentile latency of one operation"),
    "peak_rss_mb": ("MB", "lower", 0.1, "peak resident memory of the run"),
    "setup_s": ("s", "lower", 0.25,
                "import pegrec, load the annotated grammar and messages; "
                "median of 7"),
}

# name: (unit, better, the end-to-end metric and workload it should move,
#        and where it should not)
PER_LAYER = {
    "lexer.scan_tok_s": ("tok/s", "higher",
                         "tok_s on clean_files and broken_files; not grammars on grammar_tooling"),
    "lexer.share": ("share", "lower",
                    "tok_s on clean_files and broken_files; not grammar_tooling"),
    "lexer.tokens": ("count", "lower", "exact; must not change"),
    "lexer.stray_tokens": ("count", "lower", "exact; must not change"),
    "engine.session_init_ms": ("ms", "lower",
                               "op_ms_p50 and ops_per_s on eval_corpus; op_ms_p50 (1k files) more than tok_s on clean_files"),
    "engine.parse_ms": ("ms", "lower",
                        "op_ms_p50 on eval_corpus; tok_s on clean_files and broken_files"),
    "engine.recovery_share": ("share", "lower",
                              "tok_s on broken_files; about 0 on clean_files"),
    "engine.errors": ("count", "lower", "exact; with failed_share"),
    "engine.error_nodes": ("count", "lower", "exact"),
    "engine.skipped_tok_share": ("share", "lower",
                                 "exact; a larger share makes broken_files faster"),
    "engine.tree_nodes": ("count", "lower", "exact; must not change"),
    "engine.fatal_outcomes": ("count", "lower", "exact; with failed_share"),
    "engine.tree_to_json_ms": ("ms", "lower",
                               "tok_s on clean_files and broken_files; not eval_corpus"),
    "model.desugar_validate_ms": ("ms", "lower",
                                  "ops_per_s and op_ms_p50 on eval_corpus and grammar_tooling; setup_s"),
    "dsl.load_grammar_ms": ("ms", "lower",
                            "setup_s everywhere; ops_per_s on grammar_tooling; no tok_s"),
    "analysis.build_ms": ("ms", "lower",
                          "ops_per_s on grammar_tooling; no tok_s"),
    "annotate.ms": ("ms", "lower", "ops_per_s on grammar_tooling; no tok_s"),
    "model.serialize_ms": ("ms", "lower",
                           "ops_per_s on grammar_tooling; no tok_s"),
    "annotate.sites_inserted": ("count", "higher", "exact; must not change"),
    "annotate.sites_skipped": ("count", "lower", "exact; must not change"),
    "evaluate.load_corpus_ms": ("ms", "lower", "eval_corpus set-up only"),
    "evaluate.run_case_ms": ("ms", "lower",
                             "ops_per_s and op_ms_p50 on eval_corpus"),
    "evaluate.classify_ms": ("ms", "lower",
                             "ops_per_s on eval_corpus; not clean_files"),
    "evaluate.excellent_share": ("share", "higher",
                                 "exact; recovery quality, must not drop"),
    "evaluate.failed_share": ("share", "lower",
                              "exact; recovery quality, must not rise"),
    "diagnostics.format_ms": ("ms", "lower",
                              "tok_s on broken_files; nothing on clean_files"),
    "cli.eval_s": ("s", "lower", "ops_per_s on eval_corpus"),
    "trace.overhead_share": ("share", "lower",
                             "cost of the spans; not an effect of pegrec"),
    "trace.spans": ("count", "lower", "spans recorded in the traced run"),
}
PER_LAYER.update({
    f"profile.{m}.self_share": ("share", "lower",
                                f"cProfile self time of {m}.py over the trace subset")
    for m in MODULES})
PER_LAYER.update({
    f"trace.{layer}.self_share": ("share", "lower",
                                  f"span self time of {layer} in the traced run")
    for layer in TRACE_LAYERS})


def benchmark_json(run_seconds: int, workloads: dict[str, str]) -> dict:
    """The BENCHMARK.json these definitions imply."""
    return {
        "command": ["python3", "pegbench/run.py"],
        "paths": ["pegbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in workloads.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound, _) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _) in PER_LAYER.items()],
    }
