#!/usr/bin/env python3
"""Time one basis search: the support functional, the slice-rank cover route
and the minimax check.

Usage: python3 scripts/bench_basis_search.py [--repeats N] [--src DIR] [--json]

Each case is one library call at the command line's defaults (20 Haar
restarts, no Nelder-Mead refinement, seed 0) on a named tensor.  It prints
the bases scored, the CPU seconds of the basis search (from the first
candidate drawn to the end of the scan) and the CPU seconds of the whole
call, which adds the independent route (scaling, cutting planes or moment
descent); times are medians over ``--repeats`` runs, after one untimed run
of every case that pays for scipy's lazy imports.  The bases are counted
by wrapping ``unitary_candidates`` where the searches call it, so the
numbers mean the same on a checkout whose searches score every candidate.
``--src`` runs the same cases against another checkout's ``src`` directory;
``--json`` prints one JSON object in place of the table.  BLAS is pinned to
one thread.
"""

import argparse
import json
import os
import statistics
import sys
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


class SearchProbe:
    """Counts the candidates a search draws and the CPU time it spends on
    them, by standing in for ``unitary_candidates``."""

    def __init__(self, candidates):
        self.candidates = candidates
        self.bases = 0
        self.search_s = 0.0

    def __call__(self, t, cfg):
        start = time.process_time()
        try:
            for u in self.candidates(t, cfg):
                self.bases += 1
                yield u
        finally:  # exhausted, or closed when the search stops early
            self.search_s += time.process_time() - start


def cases(sk, np):
    """(name, call) for every case."""
    from spectrumkit.optim import MaxInfNorm, ThetaWeights
    from spectrumkit.tensors import Tensor, direct_sum, random_tensor

    w = sk.w_tensor()
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    tensors = {
        "W": w,
        "matmul222": sk.matmul_tensor(2, 2, 2),
        "unit2+unit1": direct_sum(sk.make_unit(2, 3), sk.make_unit(1, 3)),
        "rand234": random_tensor((2, 3, 4), np.random.default_rng(0)),
        # W under a Gaussian GL element: no candidate meets the bound
        "GL.W": Tensor(np.einsum("ai,bj,ck,ijk->abc", *mats, w.entries)),
    }
    cfg = sk.SearchConfig(nm_budget=0)
    theta = ThetaWeights.uniform(3)
    xi = ThetaWeights.xi([1, 1, 1])
    linf = MaxInfNorm(ThetaWeights.alpha([1, 1, 1]))
    out = []
    for name, t in tensors.items():
        out.append((f"support {name}", lambda t=t: sk.support_functional(t, theta, cfg)))
        out.append((f"slice cover {name}", lambda t=t: sk.asymptotic_slice_rank(t, xi, cfg)))
        out.append((f"minimax linf {name}", lambda t=t: sk.minimax_gap(t, linf, cfg)))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    import spectrumkit as sk
    from spectrumkit import functionals, ranks

    todo = cases(sk, np)
    for _, call in todo:
        call()
    rows = []
    for name, call in todo:
        bases, search, total = [], [], []
        for _ in range(max(1, args.repeats)):
            probe = SearchProbe(functionals.unitary_candidates)
            functionals.unitary_candidates = ranks.unitary_candidates = probe
            try:
                start = time.process_time()
                call()
                total.append(time.process_time() - start)
            finally:
                functionals.unitary_candidates = ranks.unitary_candidates = probe.candidates
            bases.append(probe.bases)
            search.append(probe.search_s)
        rows.append({
            "case": name,
            "bases": bases[0],
            "search_cpu_s": round(statistics.median(search), 4),
            "call_cpu_s": round(statistics.median(total), 4),
        })
    if args.json:
        print(json.dumps({"repeats": args.repeats, "cases": rows}))
        return 0
    print(f"{'case':28s} {'bases':>5s} {'search_s':>9s} {'call_s':>8s}")
    for r in rows:
        print(f"{r['case']:28s} {r['bases']:5d} {r['search_cpu_s']:9.4f} {r['call_cpu_s']:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
