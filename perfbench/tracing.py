"""Spans and counters around spectrumkit's public functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
spectrumkit module namespace that holds it.  That matters because
``from .optim import min_convex_over_support`` binds the name at import:
wrapping only ``optim.min_convex_over_support`` would miss the calls made
from ``functionals``.  A span records (name, start, end, parent); a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    start: float
    end: float = 0.0


def _entropic_scaling(counts, args, result, span_parent):
    _, trace = result
    counts["iterations"] += trace.iterations
    counts["not_converged"] += not trace.converged


def _min_convex(counts, args, result, span_parent):
    counts["iterations"] += result.iterations
    if span_parent == "optim.min_convex_over_support":
        counts["polish_calls"] += 1
        return
    counts["solves"] += 1
    counts["missed_tol"] += result.certified_gap > args["tol"]


def _moment_descent(counts, args, result, span_parent):
    counts["iterations"] += result.iterations
    counts["not_converged"] += not result.converged


def _solve_lp(counts, args, result, span_parent):
    counts["rows"] += args["lp"].n_rows


def _bipartite(counts, args, result, span_parent):
    counts["edges"] += len(args["b"].edges)


#: traced functions (defining module, name) and the counters each records
TRACED: dict[tuple[str, str], Callable | None] = {
    ("functionals", "entropic_scaling"): _entropic_scaling,
    ("functionals", "minimize_over_moment_polytope"): _moment_descent,
    ("optim", "min_convex_over_support"): _min_convex,
    ("tensors", "support"): None,
    ("tensors", "apply_group"): None,
    ("linprog", "solve_lp"): _solve_lp,
    ("hypergraphs", "fractional_vertex_cover"): None,
    ("hypergraphs", "vertex_cover"): None,
    ("hypergraphs", "asymptotic_vertex_cover"): None,
    ("hypergraphs", "kronecker_power"): None,
    ("hypergraphs", "hypergraph_of"): None,
    ("hypergraphs", "bipartite_vertex_cover"): _bipartite,
    ("ranks", "asymptotic_slice_rank"): None,
    ("ranks", "g_stable_rank"): None,
    ("ranks", "ncrank_fr"): None,
    ("ranks", "ncrank_blowup"): None,
    ("cli", "main"): None,
    ("serialize", "dumps"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        signature = inspect.signature(fn)
        counts = self.counts[name]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent, time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            counts["calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["failed"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(counts, bound.arguments, result, spans[parent].name if parent >= 0 else None)
            return result

        return traced

    def install(self) -> None:
        defining = {module: importlib.import_module(f"spectrumkit.{module}") for module, _ in TRACED}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "spectrumkit" or key.startswith("spectrumkit.")]
        for (module, fname), count in TRACED.items():
            original = getattr(defining[module], fname)
            wrapper = self.wrap(f"{module}.{fname}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child_time):
            totals[span.name] += span.end - span.start - inner
        return totals


def span_cost_s(repeats: int = 20000) -> float:
    """Wall time one traced call adds, measured on a no-op."""

    def noop(x):
        return x

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop, None)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(repeats):
            noop(i)
        t1 = time.perf_counter()
        for i in range(repeats):
            wrapped(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
        tracer.spans.clear()
    return max(best, 0.0)


def layer_metrics(tracer: Tracer, wall_s: float, cost_per_span: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    self_s = tracer.self_times()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def calls_self(key):
        put(f"{key}.calls", c[key]["calls"], "count")
        put(f"{key}.self_s", self_s.get(key, 0.0), "s")

    es = "functionals.entropic_scaling"
    calls_self(es)
    put(f"{es}.iterations", c[es]["iterations"], "count")
    iters = c[es]["iterations"]
    put(f"{es}.us_per_iter", 1e6 * self_s.get(es, 0.0) / iters if iters else 0.0, "us")
    put(f"{es}.not_converged", c[es]["not_converged"], "count")

    mc = "optim.min_convex_over_support"
    solves = c[mc]["solves"]
    put(f"{mc}.calls", solves, "count")
    put(f"{mc}.polish_calls", c[mc]["polish_calls"], "count")
    put(f"{mc}.self_s", self_s.get(mc, 0.0), "s")
    put(f"{mc}.iterations", c[mc]["iterations"], "count")
    put(f"{mc}.missed_tol", c[mc]["missed_tol"], "count")
    put(f"{mc}.met_tol_frac", (solves - c[mc]["missed_tol"]) / solves if solves else 0.0, "ratio")

    md = "functionals.minimize_over_moment_polytope"
    calls_self(md)
    put(f"{md}.iterations", c[md]["iterations"], "count")
    put(f"{md}.not_converged", c[md]["not_converged"], "count")

    for key in ("tensors.support", "tensors.apply_group"):
        calls_self(key)

    lp = "linprog.solve_lp"
    calls_self(lp)
    put(f"{lp}.rows", c[lp]["rows"], "count")
    put(f"{lp}.failed", c[lp]["failed"], "count")
    put("hypergraphs.fractional_vertex_cover.self_s", self_s.get("hypergraphs.fractional_vertex_cover", 0.0), "s")

    for name in ("vertex_cover", "asymptotic_vertex_cover", "kronecker_power", "hypergraph_of"):
        calls_self(f"hypergraphs.{name}")
    bc = "hypergraphs.bipartite_vertex_cover"
    calls_self(bc)
    put(f"{bc}.edges", c[bc]["edges"], "count")
    put(f"{bc}.failed", c[bc]["failed"], "count")

    for key in ("ranks.asymptotic_slice_rank", "ranks.g_stable_rank", "ranks.ncrank_fr",
                "ranks.ncrank_blowup", "cli.main", "serialize.dumps"):
        put(f"{key}.self_s", self_s.get(key, 0.0), "s")

    added = cost_per_span * len(tracer.spans)
    put("trace.overhead_frac", added / max(wall_s - added, 1e-12), "ratio")
    put("trace.wall_s", wall_s, "s")
    return out
