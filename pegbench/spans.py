"""Spans around the benchmark's calls into pegrec, and a cProfile summary.

Every call into a layer goes through ``Tracer.call(name, fn, *args)``,
where ``name`` is ``<module>.<function>``.  ``Tracer`` records a span per
call (name, start, end, parent span, operation id) in memory;
``NoTracer`` only makes the call, for the timed runs.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
from collections import defaultdict
from time import perf_counter


class NoTracer:
    phase = ""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def operation(self, op_id):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, operation id, phase]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None
        self.phase = ""

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op_id, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def operation(self, op_id):
        """Context for one operation: its calls share op_id, under a root
        span named "bench.op"."""
        return _Operation(self, op_id)

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (phase is None or s[5] == phase)]

    def self_times(self, phase: str) -> dict[str, float]:
        """Seconds of each layer's self time in one phase: a span's
        duration minus its children's, summed by the module part of the
        span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            if s[5] == phase:
                out[s[0].split(".", 1)[0]] += s[2] - s[1] - c
        return dict(out)

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": a, "end": b, "parent": p, "op": o,
                 "phase": ph} for n, a, b, p, o, ph in self.spans]


class _Operation:
    def __init__(self, tracer: Tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        self.saved = t.op_id
        t.op_id = self.op_id
        t._stack.append(len(t.spans))
        t.spans.append(["bench.op", perf_counter(), 0.0, -1, self.op_id, t.phase])
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[t._stack.pop()][2] = perf_counter()
        t.op_id = self.saved
        return False


def profile(fn) -> pstats.Stats:
    """Run fn() under cProfile."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    return pstats.Stats(prof)


def module_self_shares(stats: pstats.Stats, package_dir: str,
                       modules: tuple[str, ...]) -> dict[str, float]:
    """Share of all profiled time spent in each pegrec module's own code.
    A builtin's time is charged to the module of the function that called
    it, split by call edge, so str and list methods count where used."""
    def module_of(func):
        path = func[0]
        if os.path.dirname(os.path.abspath(path)) == package_dir:
            return os.path.splitext(os.path.basename(path))[0]
        return None

    total = 0.0
    own: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        total += tt
        mod = module_of(func)
        if mod is not None:
            own[mod] += tt
        elif func[0] == "~":  # a builtin: charge its callers
            for caller, edge in callers.items():
                caller_mod = module_of(caller)
                if caller_mod is not None:
                    own[caller_mod] += edge[2]
    return {m: (own[m] / total if total else 0.0) for m in modules}


def cumulative(stats: pstats.Stats, path_suffix: str, funcname: str) -> float:
    """Cumulative seconds of the function ``funcname`` defined in a file
    whose path ends with ``path_suffix``."""
    return sum(ct for func, (_cc, _nc, _tt, ct, _callers) in stats.stats.items()
               if func[0].endswith(path_suffix)
               and func[2].rsplit(".", 1)[-1] == funcname)
