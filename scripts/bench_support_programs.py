#!/usr/bin/env python3
"""Time one solve of each support-side program: a weighted entropy, a max-min
entropy, an inf-norm and an l1 program.

Usage: python3 scripts/bench_support_programs.py [--repeats N] [--src DIR] [--json]

Each case is one library call on a support of a Kronecker power of the W
hypergraph.  It prints the calls of ``min_convex_over_support`` (the oracle
solves of the max-min cutting planes, or the nested face solves of an older
engine), the sum of the ``iterations`` those solves report (Newton steps,
LP pivots, or an older engine's descent iterations), the cutting-plane
masters (``kelley_master`` calls), the pivots of the in-package simplex
(``slack_simplex``: the inf-norm and l1 LPs and, where the masters use it,
the masters), the value, its certified gap and the CPU seconds of the
call, the median over ``--repeats`` runs after one untimed run of each case
that pays for any lazy import.  The counts are taken by wrapping the
functions where ``spectrumkit.optim`` calls them.  On a checkout that
solves its masters with HiGHS the masters add no pivots, and on one without
``kelley_master`` the masters read 0.  The max-min case's warm-started
oracles call the Newton solver directly, so it counts 0 solves and 0
iterations (``bench_max_min.py`` counts them).  ``--src`` runs the same
cases against another checkout's ``src`` directory; ``--json`` prints one
JSON object in place of the table.  BLAS is pinned to one thread.
"""

import argparse
import json
import os
import statistics
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


class Probe:
    """Counts the calls of one function and sums the work of its results
    (``work(result)``, by default their ``iterations``); ``outer`` keeps the
    result of the outermost call."""

    def __init__(self, fn, work=lambda result: getattr(result, "iterations", 0)):
        self.fn = fn
        self.work = work
        self.calls = 0
        self.iterations = 0
        self.depth = 0
        self.outer = None

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.depth += 1
        try:
            result = self.fn(*args, **kwargs)
        finally:
            self.depth -= 1
        self.iterations += int(self.work(result))
        if self.depth == 0:
            self.outer = result
        return result


def cases(sk, optim):
    """(name, call) for every case; each call returns (value, certified gap)."""
    w4 = sk.kronecker_power(sk.hypergraph_of(sk.w_tensor()), 4).as_support()
    theta = sk.ThetaWeights.theta([0.5, 0.5, 0.0])
    xi = sk.ThetaWeights.xi([1.0, 0.5, 1.0])
    alpha = sk.ThetaWeights.alpha([1.0, 0.5, 2.0])

    def program(objective):
        def call(probe):
            opt = optim.min_convex_over_support(w4, objective, tol=1e-9)
            return opt.value, opt.certified_gap
        return call

    def max_min(probe):
        res = optim.max_min_weighted_entropy_witness(w4, xi, tol=1e-7)
        if isinstance(res, tuple):  # (optimum, theta); an older checkout: (value, witness)
            res = res[0]
        if isinstance(res, float):
            return res, probe.outer.certified_gap
        return res.value, res.certified_gap

    return [
        ("entropy W^4 theta=(1/2,1/2,0)", program(optim.NegWeightedEntropy(theta))),
        ("max-min W^4 xi=(1,1/2,1)", max_min),
        ("linf W^4 alpha=(1,1/2,2)", program(optim.MaxInfNorm(alpha))),
        ("l1 W^4", program(optim.L1FromUniform())),
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import spectrumkit as sk
    from spectrumkit import optim

    todo = cases(sk, optim)
    # the functions wrapped where optim calls them, and the work each
    # reports; a checkout that lacks one leaves it out
    wrapped = {"min_convex_over_support": Probe, "kelley_master": Probe,
               "slack_simplex": lambda fn: Probe(fn, lambda result: result[2])}
    saved = {n: getattr(optim, n) for n in wrapped if hasattr(optim, n)}
    rows = []
    for name, call in todo:
        runs = []
        for _ in range(max(1, args.repeats) + 1):
            probes = {n: wrapped[n](fn) for n, fn in saved.items()}
            for n, probe in probes.items():
                setattr(optim, n, probe)
            try:
                start = time.process_time()
                value, gap = call(probes["min_convex_over_support"])
                runs.append((time.process_time() - start, probes, value, gap))
            finally:
                for n, fn in saved.items():
                    setattr(optim, n, fn)
        runs = runs[1:]  # the first run pays for the lazy imports
        _, probes, value, gap = runs[0]
        rows.append({
            "case": name,
            "solves": probes["min_convex_over_support"].calls,
            "iterations": probes["min_convex_over_support"].iterations,
            "masters": probes["kelley_master"].calls if "kelley_master" in probes else 0,
            "pivots": probes["slack_simplex"].iterations if "slack_simplex" in probes else 0,
            "value": value,
            "certified_gap": gap,
            "cpu_s": round(statistics.median(r[0] for r in runs), 4),
        })
    if args.json:
        print(json.dumps({"repeats": args.repeats, "cases": rows}))
        return 0
    print(f"{'case':32s} {'solves':>6s} {'iters':>6s} {'masters':>7s} {'pivots':>6s} "
          f"{'value':>14s} {'gap':>8s} {'cpu_s':>8s}")
    for r in rows:
        print(f"{r['case']:32s} {r['solves']:6d} {r['iterations']:6d} {r['masters']:7d} "
              f"{r['pivots']:6d} {r['value']:14.10f} {r['certified_gap']:8.1e} {r['cpu_s']:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
