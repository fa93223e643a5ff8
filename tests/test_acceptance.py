"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-6 route their scaling runs through ``run_scaling`` so
criterion 7 can audit every recorded trace for monotonicity.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import F_W, corpus_tensors, symmetric_corpus
from oracles import grid_max_weighted_entropy
from spectrumkit import (
    BipartiteGraph,
    Hypergraph,
    MatrixTuple,
    SearchConfig,
    ThetaWeights,
    asymptotic_slice_rank,
    asymptotic_vertex_cover,
    bipartite_vertex_cover,
    entropic_scaling,
    fractional_vertex_cover,
    g_stable_rank,
    hypergraph_of,
    kronecker_power,
    make_unit,
    matmul_tensor,
    min_convex_over_support,
    minimax_gap,
    ncrank,
    ncrank_blowup,
    ncrank_fr,
    ncrank_moment,
    support,
    support_functional,
    symmetric_quantum_functional,
    symmetric_support_functional,
    tensor_product,
    vertex_cover,
    w_tensor,
)
from spectrumkit.optim import L1FromUniform, MaxInfNorm, NegWeightedEntropy
from spectrumkit.tensors import direct_sum, random_tensor

SCALING_LOG: list[tuple[str, np.ndarray]] = []

CFG = SearchConfig()


def run_scaling(tag: str, t, theta: ThetaWeights, **kw):
    cert, trace = entropic_scaling(t, theta, **kw)
    SCALING_LOG.append((tag, trace.objective_bits))
    return cert


def theta_grid_10(d: int) -> list[ThetaWeights]:
    """Ten deterministic weight vectors spanning the simplex."""
    rows = [np.full(d, 1.0 / d)]
    rows += [np.eye(d)[i] for i in range(d)]
    halves = sorted(set(itertools.permutations([0.5, 0.5] + [0.0] * (d - 2))))
    rows += [np.array(h) for h in halves]
    quarters = sorted(set(itertools.permutations([0.5] + [0.5 / (d - 1)] * (d - 1))))
    rows += [np.array(q) for q in quarters]
    return [ThetaWeights.theta(r) for r in rows[:10]]


def test_criterion_01_unit_normalization():
    start = time.time()
    for d in (3, 4):
        thetas = theta_grid_10(d)
        assert len(thetas) == 10
        for r in (1, 2, 3, 4):
            t = make_unit(r, d)
            for theta in thetas:
                cert = run_scaling(f"unit{r}d{d}", t, theta)
                assert abs(cert.value - r) <= 1e-6, (r, d, theta.values, cert.value)
            z = support_functional(t, thetas[0], CFG, compute_gap=False)
            assert z.value - r <= 1e-3, (r, d, z.value)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 01 PASS: unit tensors valued r on 10-theta grids, d in {{3,4}} ({elapsed:.1f}s)")


def test_criterion_02_support_equals_quantum_on_corpus():
    start = time.time()
    corpus = corpus_tensors()
    rng = np.random.default_rng(57)
    worst = (-np.inf, None)
    for name, t in corpus:
        thetas = [ThetaWeights.uniform(t.order)] + [
            ThetaWeights.theta(rng.dirichlet([1.0] * t.order)) for _ in range(5)
        ]
        for k, theta in enumerate(thetas):
            q = run_scaling(f"c2:{name}", t, theta)
            z = support_functional(t, theta, CFG, compute_gap=False)
            gap = z.value - q.value
            assert -1e-3 <= gap <= 2e-3, (name, k, gap)
            if gap > worst[0]:
                worst = (gap, name)
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 02 PASS: support-side minus quantum in [-1e-3, 2e-3] on "
        f"{len(corpus)} tensors x 6 thetas (worst {worst[0]:.2e} at {worst[1]}, {elapsed:.0f}s)"
    )


def test_criterion_03_w_tensor_values():
    w = w_tensor()
    uniform = ThetaWeights.uniform(3)

    # grid-search oracle over the joint-weight simplex, step 1e-3
    s = support(w, 0.0)
    oracle_bits = grid_max_weighted_entropy(s.points, s.dims, [1 / 3] * 3, steps=1000)
    assert abs(2.0**oracle_bits - 1.88988) <= 1e-4

    f = run_scaling("c3:w", w, uniform)
    assert abs(f.value - 1.88988) <= 1e-4
    assert abs(f.value - 2.0**oracle_bits) <= 1e-4

    sr = asymptotic_slice_rank(w, ThetaWeights.xi([1, 1, 1]), CFG)
    for route, v in sr.routes.items():
        assert abs(v - 1.88988) <= 2e-3, (route, v)

    gs = g_stable_rank(w, ThetaWeights.alpha([1, 1, 1]), CFG)
    for route, v in gs.routes.items():
        assert abs(v - 1.5) <= 1e-3, (route, v)

    hw = hypergraph_of(w, 0.0)
    assert vertex_cover(hw, ThetaWeights.xi([1, 1, 1])).value == 2
    assert abs(fractional_vertex_cover(hw, ThetaWeights.alpha([1, 1, 1])).value - 1.5) <= 1e-9
    print("\nACCEPTANCE 03 PASS: W values (F, slice rank, G-stable rank, covers) against the grid oracle")


def test_criterion_04_matmul_tensor():
    t = matmul_tensor(2, 2, 2)
    for theta in theta_grid_10(3):
        cert = run_scaling("c4:matmul", t, theta)
        assert abs(cert.value - 4.0) <= 1e-4, (theta.values, cert.value)
    sr = asymptotic_slice_rank(t, ThetaWeights.xi([1, 1, 1]), CFG)
    for route, v in sr.routes.items():
        assert abs(v - 4.0) <= 2e-3, (route, v)
    print("\nACCEPTANCE 04 PASS: matmul <2,2,2> has F = 4 on the theta grid and slice rank 4")


def test_criterion_05_minimax_on_corpus():
    start = time.time()
    rng = np.random.default_rng(99)
    corpus = corpus_tensors(n_small=5, n_mixed=5)
    worst = 0.0
    for name, t in corpus:
        objectives = [
            ("neg-entropy:uniform", NegWeightedEntropy(ThetaWeights.uniform(t.order))),
            ("neg-entropy:r1", NegWeightedEntropy(ThetaWeights.theta(rng.dirichlet([2.0] * t.order)))),
            ("neg-entropy:r2", NegWeightedEntropy(ThetaWeights.theta(rng.dirichlet([2.0] * t.order)))),
            ("linf:ones", MaxInfNorm(ThetaWeights.alpha(np.ones(t.order)))),
            ("linf:211", MaxInfNorm(ThetaWeights.alpha([2.0] + [1.0] * (t.order - 1)))),
            ("l1-uniform", L1FromUniform()),
        ]
        for fname, objective in objectives:
            rep = minimax_gap(t, objective, CFG)
            assert abs(rep.gap) <= 1e-3, (name, fname, rep.lhs, rep.rhs)
            worst = max(worst, abs(rep.gap))
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE 05 PASS: minimax gap <= 1e-3 for 6 objectives on {len(corpus)} tensors "
        f"(worst {worst:.2e}, {elapsed:.0f}s)"
    )


def test_criterion_06_additive_multiplicative():
    rng = np.random.default_rng(14)
    w = w_tensor()
    u2 = make_unit(2, 3)
    u3 = make_unit(3, 3)
    r1 = random_tensor((2, 2, 2), rng)
    r2 = random_tensor((2, 2, 2), rng)
    r3 = random_tensor((2, 3, 4), rng)
    pairs = [
        (w, w), (w, u2), (u2, u3), (w, r1), (r1, r2),
        (r1, r3), (u2, r3), (w, u3), (r2, r3), (u3, r1),
    ]
    assert len(pairs) == 10
    for k, (s, t) in enumerate(pairs):
        for theta_vec in (np.full(3, 1 / 3), rng.dirichlet([2.0, 2.0, 2.0])):
            theta = ThetaWeights.theta(theta_vec)
            fs = run_scaling(f"c6:{k}s", s, theta).value
            ft = run_scaling(f"c6:{k}t", t, theta).value
            fprod = run_scaling(f"c6:{k}prod", tensor_product(s, t), theta).value
            fsum = run_scaling(f"c6:{k}sum", direct_sum(s, t), theta).value
            assert abs(fprod - fs * ft) <= 1e-3 * fs * ft, (k, fprod, fs * ft)
            assert abs(fsum - (fs + ft)) <= 1e-3 * (fs + ft), (k, fsum, fs + ft)
    print("\nACCEPTANCE 06 PASS: F multiplicative and additive on 10 corpus pairs (rel. 1e-3)")


def test_criterion_07_scaling_monotonicity():
    assert len(SCALING_LOG) > 200, "criteria 1-6 must run first"
    worst = 0.0
    for tag, bits in SCALING_LOG:
        if bits.size > 1:
            drop = float(np.diff(bits).min())
            worst = min(worst, drop)
            assert drop >= -1e-12, (tag, drop)
    print(
        f"\nACCEPTANCE 07 PASS: objective non-decreasing in all {len(SCALING_LOG)} "
        f"recorded scaling runs (worst step {worst:.1e})"
    )


def test_criterion_08_koenig_exactness():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        edges = tuple(
            (int(i), int(j)) for i in range(n) for j in range(n) if rng.random() < 0.3
        )
        res = bipartite_vertex_cover(BipartiteGraph(n, edges))
        assert len(res.matching) == res.value == len(res.cover)
        chosen = set(res.cover)
        assert all(("L", i) in chosen or ("R", j) in chosen for i, j in edges)
    print("\nACCEPTANCE 08 PASS: matching size equals cover size on 100 random bipartite graphs")


def _random_hypergraph(rng, max_edges=8) -> Hypergraph:
    parts = tuple(int(rng.integers(2, 4)) for _ in range(3))
    m = int(rng.integers(2, max_edges + 1))
    edges = set()
    for _ in range(40):
        edges.add(tuple(int(rng.integers(0, n)) for n in parts))
        if len(edges) >= m:
            break
    return Hypergraph(parts, tuple(sorted(edges)))


def test_criterion_09_lp_duality_and_polytope_route():
    rng = np.random.default_rng(20260810)
    worst_dual, worst_route = 0.0, 0.0
    for k in range(20):
        h = _random_hypergraph(rng)
        alpha = ThetaWeights.alpha(rng.uniform(0.5, 2.0, size=3))
        res = fractional_vertex_cover(h, alpha)
        assert res.lp_duality_gap <= 1e-9 * (1 + abs(res.value)), (k, res.lp_duality_gap)
        worst_dual = max(worst_dual, res.lp_duality_gap)
        opt = min_convex_over_support(h.as_support(), MaxInfNorm(alpha), tol=1e-9)
        diff = abs(res.value - 1.0 / opt.value)
        assert diff <= 1e-6, (k, res.value, 1.0 / opt.value)
        worst_route = max(worst_route, diff)
    print(
        f"\nACCEPTANCE 09 PASS: LP duality gap <= 1e-9 and LP-vs-polytope "
        f"agreement <= 1e-6 on 20 hypergraphs (worst {worst_dual:.1e} / {worst_route:.1e})"
    )


def test_criterion_10_tao_sawin_consistency():
    rng = np.random.default_rng(20260810)
    xi = ThetaWeights.xi([1, 1, 1])
    for k in range(10):
        h = _random_hypergraph(rng, max_edges=8)
        asym = asymptotic_vertex_cover(h, xi)
        t1 = vertex_cover(h, xi).value
        t2 = vertex_cover(kronecker_power(h, 2), xi).value
        assert asym <= t1 + 1e-6, (k, asym, t1)
        assert asym <= t2 ** 0.5 + 1e-6, (k, asym, t2)
    print("\nACCEPTANCE 10 PASS: entropy formula below finite cover roots (n = 1, 2) on 10 hypergraphs")


def test_criterion_11_ncrank_triple_agreement():
    start = time.time()
    cases = [("I_2", MatrixTuple(np.eye(2)[None])), ("I_3", MatrixTuple(np.eye(3)[None]))]
    e = np.zeros((2, 2, 2), dtype=complex)
    e[0, 0, 0] = e[1, 0, 1] = 1.0
    cases.append(("row_pencil", MatrixTuple(e)))
    sk = np.zeros((3, 3, 3), dtype=complex)
    sk[0][0, 1], sk[0][1, 0] = 1, -1
    sk[1][0, 2], sk[1][2, 0] = 1, -1
    sk[2][1, 2], sk[2][2, 1] = 1, -1
    cases.append(("skew3", MatrixTuple(sk)))
    rng = np.random.default_rng(11)
    for k in range(20):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        mats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        cases.append((f"rand{k}(n={n},m={m})", MatrixTuple(mats)))

    cfg = SearchConfig()
    for name, a in cases:
        fr, _ = ncrank_fr(a, cfg)
        blow = ncrank_blowup(a, seed=cfg.seed)
        raw, rounded, _ = ncrank_moment(a)
        assert fr == blow == rounded, (name, fr, blow, rounded)
        assert abs(raw - rounded) <= 0.1, (name, raw)
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 11 PASS: Fortin-Reutenauer, blow-up, and l1-moment routes agree on "
        f"{len(cases)} tuples ({elapsed:.0f}s)"
    )


def test_criterion_12_symmetric_functional():
    corpus = symmetric_corpus()
    pairs = [
        (corpus[0], corpus[0]),
        (corpus[0], corpus[1]),
        (corpus[1], corpus[2]),
        (corpus[3], corpus[0]),
        (corpus[3], corpus[1]),
    ]
    for (n1, a), (n2, b) in pairs:
        fa = symmetric_quantum_functional(a).value
        fb = symmetric_quantum_functional(b).value
        fab = symmetric_quantum_functional(tensor_product(a, b)).value
        assert fab <= fa * fb + 1e-3, (n1, n2, fab, fa * fb)
    for name, t in corpus:
        q = symmetric_quantum_functional(t).value
        z = symmetric_support_functional(t).value
        assert abs(q - z) <= 1e-3, (name, q, z)
    print("\nACCEPTANCE 12 PASS: symmetric functional submultiplicative on 5 pairs; "
          "minimax variant within 1e-3 on the symmetric corpus")
