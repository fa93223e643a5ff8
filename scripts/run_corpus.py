#!/usr/bin/env python3
"""Evaluate every functional and rank on a small named corpus and print a table.

Usage: python3 scripts/run_corpus.py [--seed N]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spectrumkit import (
    MatrixTuple,
    SearchConfig,
    ThetaWeights,
    asymptotic_slice_rank,
    g_stable_rank,
    make_unit,
    matmul_tensor,
    ncrank,
    quantum_functional,
    support_functional,
    symmetric_quantum_functional,
    w_tensor,
)
from spectrumkit.tensors import direct_sum, random_tensor


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    cfg = SearchConfig(seed=args.seed)
    rng = np.random.default_rng(args.seed)

    corpus = [
        ("unit<2>", make_unit(2, 3)),
        ("unit<3>", make_unit(3, 3)),
        ("w", w_tensor()),
        ("matmul<2,2,2>", matmul_tensor(2, 2, 2)),
        ("unit<2>+unit<1>", direct_sum(make_unit(2, 3), make_unit(1, 3))),
        ("random 2x2x2", random_tensor((2, 2, 2), rng)),
        ("random 2x3x4", random_tensor((2, 3, 4), rng)),
    ]

    print(f"{'tensor':<16} {'F_unif':>9} {'zeta_unif':>10} {'gap':>9} {'SR~':>8} {'rk^G':>7} {'F_Sym':>7}")
    for name, t in corpus:
        t0 = time.time()
        theta = ThetaWeights.uniform(t.order)
        q = quantum_functional(t, theta)
        z = support_functional(t, theta, cfg, compute_gap=False)
        sr = asymptotic_slice_rank(t, ThetaWeights.xi(np.ones(t.order)), cfg)
        gs = g_stable_rank(t, ThetaWeights.alpha(np.ones(t.order)), cfg)
        fsym = (
            f"{symmetric_quantum_functional(t).value:7.4f}"
            if len(set(t.dims)) == 1
            else "      -"
        )
        print(
            f"{name:<16} {q.value:9.5f} {z.value:10.5f} {z.value - q.value:9.1e} "
            f"{sr.value:8.5f} {gs.value:7.4f} {fsym}  ({time.time() - t0:.1f}s)"
        )

    print("\nnoncommutative ranks:")
    e = np.zeros((2, 2, 2), dtype=complex)
    e[0, 0, 0] = e[1, 0, 1] = 1.0
    sk = np.zeros((3, 3, 3), dtype=complex)
    sk[0][0, 1], sk[0][1, 0] = 1, -1
    sk[1][0, 2], sk[1][2, 0] = 1, -1
    sk[2][1, 2], sk[2][2, 1] = 1, -1
    tuples = [
        ("identity 3x3", MatrixTuple(np.eye(3)[None])),
        ("row pencil", MatrixTuple(e)),
        ("skew basis 3x3", MatrixTuple(sk)),
    ]
    for name, a in tuples:
        rep = ncrank(a, cfg)
        routes = ", ".join(f"{k}={v:g}" for k, v in sorted(rep.routes.items()))
        print(f"  {name:<16} value={rep.value:g}  [{routes}]  status={rep.status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
