"""In-memory spans around the public calls into each irrcyclic layer.

A Tracer replaces the listed functions and methods with wrappers that record
(name, start, end, parent) for every call.  Nothing inside the package is
edited: the wrappers are installed on the module and class attributes that
callers look up, including the names other modules imported directly.
Spans stay in memory; the caller writes them out when its run ends.
"""

from __future__ import annotations

import functools
import time
import weakref

from irrcyclic import cli, cyclotomy, fields, oracle, weights

# metric name -> (owner, attribute, other modules that imported the name,
# whether the call returns an ndarray whose nbytes are counted)
TARGETS = {
    "fields.build_tower": (fields, "build_tower", (oracle, weights), False),
    "fields.trace_by_log": (fields._Core, "trace_by_log", (), True),
    "fields.traceq_zero_by_log": (fields.FieldTower, "traceq_zero_by_log", (), True),
    "fields.log_table": (fields._Core, "log_table", (), True),
    "fields.succ_log": (fields._Core, "succ_log", (), True),
    "oracle.brute_weight_distribution": (oracle, "brute_weight_distribution", (), False),
    "weights.code_params": (weights, "code_params", (), False),
    "weights.weight_distribution": (weights, "weight_distribution", (), False),
    "weights.check_period_properties": (weights, "check_period_properties", (), False),
    "cyclotomy.gaussian_periods_exact": (cyclotomy, "gaussian_periods_exact", (), False),
    "cyclotomy.numeric": (cyclotomy.GaussianPeriodSet, "numeric", (), True),
    "cyclotomy.cyclotomic_numbers": (cyclotomy, "cyclotomic_numbers", (), False),
    "cli.main": (cli, "main", (), False),
}

ARRAY_FUNCTIONS = tuple(name for name, t in TARGETS.items() if t[3])


class Tracer:
    """Records spans for the wrapped calls of one process.

    spans holds [name, start, end, parent] lists, parent being the index of
    the enclosing span or -1.  counts holds the ratio numerators:
    closed-form answers and build_tower calls that returned a known core.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"closed": 0, "core_reuse": 0}
        self.array_bytes = {name: 0 for name in ARRAY_FUNCTIONS}
        self._stack: list[int] = []
        self._arrays: dict[int, weakref.ref] = {}
        self._cores: weakref.WeakSet = weakref.WeakSet()
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _note(self, name: str, result) -> None:
        if name in self.array_bytes:
            # cached arrays come back on every call; count each one once
            ref = self._arrays.get(id(result))
            if ref is None or ref() is not result:
                self._arrays[id(result)] = weakref.ref(result)
                self.array_bytes[name] += int(result.nbytes)
        elif name == "fields.build_tower":
            if result.core in self._cores:
                self.counts["core_reuse"] += 1
            self._cores.add(result.core)
        elif name == "weights.weight_distribution":
            if result.method != "brute":
                self.counts["closed"] += 1

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._note(name, result)
            return result

        return traced

    def install(self) -> None:
        for name, (owner, attr, importers, _) in TARGETS.items():
            original = owner.__dict__[attr]
            traced = self._wrapper(name, original)
            for target in (owner, *importers):
                self._saved.append((target, attr, target.__dict__[attr]))
                setattr(target, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def summarize(spans, counts, array_bytes) -> dict:
    """Per-layer metrics from the spans and counters of one or more processes.

    A span's self time is its duration minus the durations of its direct
    children.  spans may hold the spans of several processes, each list
    indexing its own parents, so it is a list of span lists.
    """
    out = {}
    for name in TARGETS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for name in ARRAY_FUNCTIONS:
        out[f"{name}.bytes"] = array_bytes.get(name, 0)
    for process_spans in spans:
        child = [0.0] * len(process_spans)
        for name, start, end, parent in process_spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(process_spans, child):
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.calls"] += 1
    wd_calls = out["weights.weight_distribution.calls"]
    bt_calls = out["fields.build_tower.calls"]
    out["weights.weight_distribution.closed_ratio"] = (
        counts.get("closed", 0) / wd_calls if wd_calls else 0.0
    )
    out["fields.build_tower.reuse_ratio"] = (
        counts.get("core_reuse", 0) / bt_calls if bt_calls else 0.0
    )
    return out
