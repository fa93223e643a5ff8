#!/usr/bin/env python3
"""Time the max-min entropy program with cold and warm-started oracles.

Usage: python3 scripts/bench_max_min.py [--repeats N] [--json]

Each case is one ``max_min_weighted_entropy_witness`` call at tol 1e-7, on
the support of W^3 or W^4, or of a seeded sparse tensor, at
xi = (1, 1/2, 1) and (1, 1, 1/4).  Each case runs in four modes:

* ``cold``: every oracle's Newton solve starts from the uniform weights;
* ``eps=0``: each oracle after the first starts from the previous optimum
  itself, with its exact zeros;
* ``eps=1e-3`` and ``eps=1e-6``: from the previous optimum blended that far
  toward uniform (``optim.WARM_START_BLEND``; the library default is 1e-6).

For each it prints the oracle count (the result's ``iterations``), the
master LPs (``kelley_master`` calls) and the simplex pivots they report,
the Newton steps summed over the oracles, the ``_assess`` calls, the value,
its certified gap, and the CPU milliseconds of the call, the best of
``--repeats`` runs.  The counts come from one more run with the three
functions wrapped where ``optim`` calls them; that run also pays for any
lazy import before a timed run.
``--json`` prints one JSON object in place of the table.  BLAS is pinned to
one thread.
"""

import argparse
import json
import os
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

import spectrumkit as sk  # noqa: E402
from spectrumkit import optim  # noqa: E402

XIS = ((1.0, 0.5, 1.0), (1.0, 1.0, 0.25))
MODES = ("cold", "eps=0", "eps=1e-3", "eps=1e-6")


def sparse_support(dims, nnz, seed):
    """The support of ``sparse_tensor(dims, nnz, seed)`` of the test suite:
    nnz Gaussian complex entries at seeded positions."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(int(np.prod(dims)), dtype=complex)
    idx = rng.choice(flat.size, nnz, replace=False)
    flat[idx] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    return sk.support(sk.Tensor(flat.reshape(dims)), 0.0)


def supports():
    w = sk.hypergraph_of(sk.w_tensor())
    return [
        ("W^3", sk.kronecker_power(w, 3).as_support()),
        ("W^4", sk.kronecker_power(w, 4).as_support()),
        ("sparse (4,3,6) nnz=6 seed=1", sparse_support((4, 3, 6), 6, 1)),
        ("sparse (4,3,6) nnz=9 seed=0", sparse_support((4, 3, 6), 9, 0)),
        ("sparse (6,6,6) nnz=9 seed=0", sparse_support((6, 6, 6), 9, 0)),
    ]


class Count:
    """Counts the calls of one function; with ``work``, also sums the work
    that ``work(result)`` reads off each result."""

    def __init__(self, fn, work=None):
        self.fn = fn
        self.work = work
        self.calls = 0
        self.steps = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        result = self.fn(*args, **kwargs)
        if self.work is not None:
            self.steps += int(self.work(result))
        return result


def run(s, xi, mode, newton, count=False):
    """One max-min call in ``mode``: (value, gap, oracles, CPU seconds, the
    probes of ``_newton``, ``_assess`` and ``kelley_master``, or None)."""
    blend = optim.WARM_START_BLEND
    if mode == "cold":
        def solver(prog, objective, tol, start=None):
            return newton(prog, objective, tol)
    else:
        solver = newton
        optim.WARM_START_BLEND = float(mode.split("=")[1])
    saved = optim._newton, optim._assess, optim.kelley_master
    probes = (Count(solver, lambda r: r[2]), Count(optim._assess),
              Count(optim.kelley_master, lambda r: r.iterations)) if count else None
    optim._newton, optim._assess, optim.kelley_master = probes or (solver, *saved[1:])
    try:
        start = time.process_time()
        opt = optim.max_min_weighted_entropy_witness(s, sk.ThetaWeights.xi(xi), tol=1e-7)
        cpu = time.process_time() - start
    finally:
        optim._newton, optim._assess, optim.kelley_master = saved
        optim.WARM_START_BLEND = blend
    return opt.value, opt.certified_gap, opt.iterations, cpu, probes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    newton = optim._newton
    rows = []
    for label, s in supports():
        for xi in XIS:
            for mode in MODES:
                value, gap, oracles, _, (steps, assess, masters) = run(s, xi, mode, newton, count=True)
                cpu = min(run(s, xi, mode, newton)[3] for _ in range(max(1, args.repeats)))
                rows.append({
                    "case": f"{label} xi={xi}",
                    "points": s.size,
                    "mode": mode,
                    "oracles": oracles,
                    "masters": masters.calls,
                    "master_pivots": masters.steps,
                    "newton_steps": steps.steps,
                    "assess_calls": assess.calls,
                    "value": value,
                    "certified_gap": gap,
                    "cpu_ms": round(1e3 * cpu, 1),
                })
    if args.json:
        print(json.dumps({"repeats": args.repeats, "rows": rows}))
        return 0
    print(f"{'case':44s} {'mode':>9s} {'orc':>4s} {'mst':>4s} {'pivots':>6s} {'steps':>6s} {'assess':>7s} "
          f"{'value':>19s} {'gap':>8s} {'cpu_ms':>8s}")
    for r in rows:
        print(f"{r['case']:44s} {r['mode']:>9s} {r['oracles']:4d} {r['masters']:4d} {r['master_pivots']:6d} "
              f"{r['newton_steps']:6d} {r['assess_calls']:7d} {r['value']:19.15f} "
              f"{r['certified_gap']:8.1e} {r['cpu_ms']:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
