"""In-memory span and counter recorder, and the wrappers that feed it.

The program is not modified: `instrument` replaces functions of the loaded
gsvkit modules, in the replay process only, with wrappers that time each
call.  Three kinds of wrapper:

  span   - one record per call: name, start, end, parent span, run id,
           self time and growth of the process's peak RSS during the call;
  leaf   - functions called once per candidate or per matrix entry; their
           calls are summed per (parent span, name) as count, total and self
           time, so memory stays bounded on hundreds of thousands of calls;
  count  - a call counter only (Cyclo multiply and inverse), no timing.

A span's self time is its duration minus the time of the wrapped calls
directly inside it.  The code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import resource
import sys
from collections import Counter
from time import perf_counter
from types import ModuleType

SPANS = (
    ("gsvkit.singular", "verify_transversal", "singular.verify"),
    ("gsvkit.singular", "find_singular_rays", "singular.find"),
    ("gsvkit.singular", "_exact_search", "singular.scan"),
    ("gsvkit.singular", "_float_search", "singular.float"),
    ("gsvkit.singular", "classify_singularity", "singular.classify"),
    ("gsvkit.strata", "build_ground_state_variety", "strata.build"),
    ("gsvkit.strata", "strata_report", "strata.report"),
    ("gsvkit.cohomology", "cohomology_report", "cohomology.report"),
    ("gsvkit.cohomology", "cohomology_report_text", "cohomology.text"),
    ("gsvkit.resolutions", "build_transition_graph", "resolutions.graph"),
    ("gsvkit.resolutions", "enumerate_small_resolutions", "resolutions.enumerate"),
    ("gsvkit.resolutions", "naive_resolution_count", "resolutions.naive_count"),
)
LEAVES = (
    ("gsvkit.poly", "Polynomial.evaluate", "poly.evaluate"),
    ("gsvkit.poly", "Polynomial.evaluate_complex", "poly.evaluate_complex"),
    ("gsvkit.poly", "Polynomial.partial", "poly.derive"),
    ("gsvkit.poly", "parse_polynomial", "poly.parse"),
    ("gsvkit.linalg", "matrix_rank", "linalg.rank"),
)
COUNTS = (
    ("gsvkit.cyclo", "Cyclo.__mul__", "cyclo.mul"),
    ("gsvkit.cyclo", "Cyclo.__rmul__", "cyclo.mul"),
    ("gsvkit.cyclo", "Cyclo.inverse", "cyclo.inv"),
)


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Spans, leaf aggregates and counters of one process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}     # (parent id, name) -> [calls, total, self]
        self.counts: Counter = Counter()
        self.missing: list[str] = []            # wrapped names the program lacks
        self.run_id = ""
        self._stack: list[list] = []            # [span id or parent id, child time]
        self._next_id = 0

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, name, fn, *args, **kwargs):
        span_id, parent = self._next_id, self._parent()
        self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        rss0 = _peak_rss_kb()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append({"id": span_id, "name": name, "start": start, "end": end,
                               "parent": parent, "run_id": self.run_id,
                               "self_s": end - start - frame[1],
                               "rss_growth_kb": _peak_rss_kb() - rss0})

    def leaf(self, name, fn, *args, **kwargs):
        parent = self._parent()
        frame = [parent, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            agg = self.leaves.get((parent, name))
            if agg is None:
                agg = self.leaves[(parent, name)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]

    def to_json_dict(self) -> dict:
        return {"spans": self.spans,
                "leaves": [{"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
                           for (p, n), (c, t, s) in self.leaves.items()],
                "counts": dict(self.counts), "missing": self.missing}


def _count_items(iterable, counts, key):
    for item in iterable:
        counts[key] += 1
        yield item


def _resolve(module_name: str, attr: str):
    owner = sys.modules.get(module_name)
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0], None)
    return owner, name


def instrument(rec: Recorder):
    """Wrap the gsvkit functions listed above for the rest of the process.

    A function the program no longer has is listed in `rec.missing` and its
    metrics read 0, so a later change to gsvkit cannot break the traced run.
    """

    def replace(owner, name, wrapper):
        original = getattr(owner, name)
        targets = [owner]
        if isinstance(owner, ModuleType):
            # `from .x import f` binds f in other modules too
            targets = [m for n, m in list(sys.modules.items())
                       if n.startswith("gsvkit") and getattr(m, name, None) is original]
        for target in targets:
            setattr(target, name, wrapper)

    def make_span(name, fn):
        if name == "singular.scan":
            def wrapper(g, candidates, *rest, **kw):
                candidates = _count_items(candidates, rec.counts, "singular.candidates")
                return rec.span(name, fn, g, candidates, *rest, **kw)
        elif name == "resolutions.graph":
            def wrapper(*args, **kw):
                result = rec.span(name, fn, *args, **kw)
                rec.counts["resolutions.edges"] += len(result.edges)
                return result
        else:
            def wrapper(*args, **kw):
                return rec.span(name, fn, *args, **kw)
        return wrapper

    def make_leaf(name, fn):
        def wrapper(*args, **kw):
            return rec.leaf(name, fn, *args, **kw)
        return wrapper

    def make_count(name, fn, counts=rec.counts):
        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    for table, make in ((SPANS, make_span), (LEAVES, make_leaf), (COUNTS, make_count)):
        for module_name, attr, name in table:
            owner, attr_name = _resolve(module_name, attr)
            if not callable(getattr(owner, attr_name, None)):
                rec.missing.append(f"{module_name}.{attr}")
                continue
            replace(owner, attr_name, make(name, getattr(owner, attr_name)))


def self_times(trace: dict) -> dict[str, float]:
    """Self time per span or leaf name, summed over the whole trace."""
    out: Counter = Counter()
    for s in trace["spans"]:
        out[s["name"]] += s["self_s"]
    for leaf in trace["leaves"]:
        out[leaf["name"]] += leaf["self_s"]
    return dict(out)
