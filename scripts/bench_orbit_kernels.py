#!/usr/bin/env python3
"""Time the orbit loops one layer down: scaling runs and moment descents.

Usage: python3 scripts/bench_orbit_kernels.py [--repeats N] [--src DIR] [--json]

Each case is one call of ``entropic_scaling`` or ``minimize_over_moment_polytope``
at its library defaults (the descent at a 6000-iteration cap and with no
bound, so it runs on past the point where ``g_stable_rank`` and ``ncrank``
stop it at their route bracket).  It prints the iterations, the CPU seconds (median over
``--repeats`` runs) and the CPU microseconds per iteration, so that a change in
the cost of one iteration can be told apart from a change in the number of
iterations.  ``--src`` runs the same cases against another checkout's ``src``
directory; ``--json`` prints one JSON object in place of the table.  BLAS is
pinned to one thread.
"""

import argparse
import json
import os
import statistics
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def cases(sk, np):
    """(name, call returning (iterations, converged)) for every case."""
    from spectrumkit.functionals import entropic_scaling, minimize_over_moment_polytope
    from spectrumkit.optim import L1FromUniform, MaxInfNorm, ThetaWeights
    from spectrumkit.tensors import random_tensor, tensor_product

    w = sk.w_tensor()
    rand234 = random_tensor((2, 3, 4), np.random.default_rng(0))
    rand663 = sk.MatrixTuple(
        np.random.default_rng(1).standard_normal((3, 6, 6))
        + 1j * np.random.default_rng(2).standard_normal((3, 6, 6))
    ).as_tensor()

    def scaling(t, theta):
        def run():
            _, trace = entropic_scaling(t, ThetaWeights.theta(theta))
            return trace.iterations, trace.converged

        return run

    def descent(t, objective, legs=None):
        def run():
            res = minimize_over_moment_polytope(t, objective, active_legs=legs, max_iter=6000)
            return res.iterations, res.converged

        return run

    return [
        ("scaling W theta=(3/5,2/5,0)", scaling(w, [0.6, 0.4, 0.0])),
        ("scaling W theta=uniform", scaling(w, [1 / 3, 1 / 3, 1 / 3])),
        ("scaling rand234 theta=uniform", scaling(rand234, [1 / 3, 1 / 3, 1 / 3])),
        ("descent WxW linf", descent(tensor_product(w, w), MaxInfNorm(ThetaWeights.alpha([1, 1, 1])))),
        ("descent rand663 l1 legs=(0,1)", descent(rand663, L1FromUniform(), (0, 1))),
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import spectrumkit as sk

    rows = []
    for name, run in cases(sk, np):
        times = []
        for _ in range(max(1, args.repeats)):
            start = time.process_time()
            iterations, converged = run()
            times.append(time.process_time() - start)
        cpu = statistics.median(times)
        rows.append({
            "case": name,
            "iterations": iterations,
            "converged": converged,
            "cpu_s": round(cpu, 4),
            "us_per_iter": round(1e6 * cpu / max(iterations, 1), 1),
        })
    if args.json:
        print(json.dumps({"repeats": args.repeats, "cases": rows}))
        return 0
    print(f"{'case':34s} {'iterations':>10s} {'conv':>5s} {'cpu_s':>8s} {'us/iter':>8s}")
    for r in rows:
        print(f"{r['case']:34s} {r['iterations']:10d} {str(r['converged']):>5s} "
              f"{r['cpu_s']:8.3f} {r['us_per_iter']:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
