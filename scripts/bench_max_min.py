#!/usr/bin/env python3
"""Time the max-min entropy program with Newton and with Kelley steps over theta.

Usage: python3 scripts/bench_max_min.py [--repeats N] [--src DIR] [--json]

Each case is one ``max_min_weighted_entropy_witness`` call at tol 1e-7, on
the support of W^3 or W^4, or of a seeded sparse tensor, at
xi = (1, 1/2, 1), (1, 1, 1/4), (1, 1, 1), (1, 1, 0) and (0.3, 1, 0.7).
Each case runs under two rules for the next theta:

* ``newton``: the library's rule, a damped Newton step from the latest
  oracle when it has the least value so far (``optim._theta_newton_step``),
  else the Kelley master's theta;
* ``kelley``: the Kelley master's theta every time (the step is patched to
  fail, which is the library's fallback).

A checkout without ``_theta_newton_step`` runs plain Kelley cutting planes,
and only its ``kelley`` rule is run.  For each run it prints the oracle
count (the result's ``iterations``), the master LPs (``kelley_master``
calls) and the simplex pivots they report, the Newton steps over theta
(``_theta_newton_step`` calls that returned a point), the oracles' own
Newton steps summed (``_newton``), the ``_assess`` calls, the value, its
certified gap, and the CPU milliseconds of the call, the best of
``--repeats`` runs.  The counts come from one more run with the functions
wrapped where ``optim`` calls them; that run also pays for any lazy import
before a timed run.  ``--src`` runs the same cases against another
checkout's ``src`` directory; ``--json`` prints one JSON object in place of
the table.  BLAS is pinned to one thread.
"""

import argparse
import json
import os
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

XIS = ((1.0, 0.5, 1.0), (1.0, 1.0, 0.25), (1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (0.3, 1.0, 0.7))


def sparse_support(sk, dims, nnz, seed):
    """The support of ``sparse_tensor(dims, nnz, seed)`` of the test suite:
    nnz Gaussian complex entries at seeded positions."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(int(np.prod(dims)), dtype=complex)
    idx = rng.choice(flat.size, nnz, replace=False)
    flat[idx] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    return sk.support(sk.Tensor(flat.reshape(dims)), 0.0)


def supports(sk):
    w = sk.hypergraph_of(sk.w_tensor())
    return [
        ("W^3", sk.kronecker_power(w, 3).as_support()),
        ("W^4", sk.kronecker_power(w, 4).as_support()),
        ("sparse (4,3,6) nnz=6 seed=1", sparse_support(sk, (4, 3, 6), 6, 1)),
        ("sparse (4,3,6) nnz=9 seed=0", sparse_support(sk, (4, 3, 6), 9, 0)),
        ("sparse (6,6,6) nnz=9 seed=0", sparse_support(sk, (6, 6, 6), 9, 0)),
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


def run(sk, optim, s, xi, rule, count=False):
    """One max-min call under ``rule``: (value, gap, oracles, CPU seconds,
    the probes by the name of the function they wrap, or None)."""
    saved = {n: getattr(optim, n) for n in
             ("_newton", "_assess", "kelley_master", "_theta_newton_step") if hasattr(optim, n)}
    patched = dict(saved)
    if rule == "kelley" and "_theta_newton_step" in saved:
        patched["_theta_newton_step"] = lambda *args: None
    probes = None
    if count:
        work = {"_newton": lambda r: r[2], "kelley_master": lambda r: r.iterations,
                "_theta_newton_step": lambda r: r is not None}
        probes = {n: Count(fn, work.get(n)) for n, fn in patched.items()}
        patched = probes
    for n, fn in patched.items():
        setattr(optim, n, fn)
    try:
        start = time.process_time()
        opt = optim.max_min_weighted_entropy_witness(s, sk.ThetaWeights.xi(xi), tol=1e-7)
        if isinstance(opt, tuple):  # (optimum, theta); an older checkout returns the optimum
            opt = opt[0]
        cpu = time.process_time() - start
    finally:
        for n, fn in saved.items():
            setattr(optim, n, fn)
    return opt.value, opt.certified_gap, opt.iterations, cpu, probes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import spectrumkit as sk
    from spectrumkit import optim

    rules = ("newton", "kelley") if hasattr(optim, "_theta_newton_step") else ("kelley",)
    rows = []
    for label, s in supports(sk):
        for xi in XIS:
            for rule in rules:
                value, gap, oracles, _, probes = run(sk, optim, s, xi, rule, count=True)
                cpu = min(run(sk, optim, s, xi, rule)[3] for _ in range(max(1, args.repeats)))
                steps = probes.get("_theta_newton_step")
                rows.append({
                    "case": f"{label} xi={xi}",
                    "points": s.size,
                    "rule": rule,
                    "oracles": oracles,
                    "masters": probes["kelley_master"].calls,
                    "master_pivots": probes["kelley_master"].steps,
                    "theta_steps": steps.steps if steps else 0,
                    "oracle_newton_steps": probes["_newton"].steps,
                    "assess_calls": probes["_assess"].calls,
                    "value": value,
                    "certified_gap": gap,
                    "cpu_ms": round(1e3 * cpu, 1),
                })
    if args.json:
        print(json.dumps({"repeats": args.repeats, "rows": rows}))
        return 0
    print(f"{'case':46s} {'rule':>6s} {'orc':>4s} {'mst':>4s} {'pivots':>6s} {'theta':>5s} {'steps':>6s} "
          f"{'assess':>7s} {'value':>19s} {'gap':>8s} {'cpu_ms':>8s}")
    for r in rows:
        print(f"{r['case']:46s} {r['rule']:>6s} {r['oracles']:4d} {r['masters']:4d} {r['master_pivots']:6d} "
              f"{r['theta_steps']:5d} {r['oracle_newton_steps']:6d} {r['assess_calls']:7d} "
              f"{r['value']:19.15f} {r['certified_gap']:8.1e} {r['cpu_ms']:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
