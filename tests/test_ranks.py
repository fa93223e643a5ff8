import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import F_W, basis_search_corpus, gl_w_tensor, sparse332, sparse_tensor
from spectrumkit import (
    MatrixTuple,
    SearchConfig,
    ThetaWeights,
    asymptotic_slice_rank,
    g_stable_rank,
    make_unit,
    matmul_tensor,
    ncrank,
    ncrank_blowup,
    ncrank_fr,
    ncrank_moment,
    quantum_functional,
)
from spectrumkit import functionals, optim, ranks
from spectrumkit.functionals import unitary_candidates
from spectrumkit.hypergraphs import (
    asymptotic_vertex_cover,
    bipartite_vertex_cover,
    fractional_vertex_cover,
    hypergraph_of,
)
from spectrumkit.optim import (
    MaxInfNorm,
    NegSummedEntropy,
    NegWeightedEntropy,
    min_convex_over_support,
)
from spectrumkit.tensors import (
    GroupElement,
    Tensor,
    apply_group,
    direct_sum,
    random_tensor,
    random_unitary,
    support,
    tensor_product,
    w_tensor,
)

FAST = SearchConfig()
XI1 = ThetaWeights.xi([1, 1, 1])
AL1 = ThetaWeights.alpha([1, 1, 1])


def row_pencil() -> MatrixTuple:
    e = np.zeros((2, 2, 2), dtype=complex)
    e[0, 0, 0] = 1.0  # E_11
    e[1, 0, 1] = 1.0  # E_12
    return MatrixTuple(e)


def skew_basis3() -> MatrixTuple:
    sk = np.zeros((3, 3, 3), dtype=complex)
    sk[0][0, 1], sk[0][1, 0] = 1, -1
    sk[1][0, 2], sk[1][2, 0] = 1, -1
    sk[2][1, 2], sk[2][2, 1] = 1, -1
    return MatrixTuple(sk)


def _tiny_entry_tensor() -> Tensor:
    """One entry 1 and one 1e-12: the default eta drops the second."""
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0], arr[1, 1, 1] = 1.0, 1e-12
    return Tensor(arr)


def _haar(n: int, seed: int) -> np.ndarray:
    return random_unitary(n, np.random.default_rng(seed))


@pytest.mark.parametrize("eta", [1e-9, 0.0])
def test_a_haar_basis_never_beats_the_identity(eta):
    # every entry of u.t is a polynomial in u: an entry nonzero at u = I is
    # nonzero at a Haar u, so supp(t) lies in supp(u.t), and every score a
    # basis search takes is monotone in the support
    def points(t):
        return {tuple(p) for p in support(t, eta).points}

    def scores(t):
        s = support(t, eta)
        h = hypergraph_of(t, eta)
        return (
            -min_convex_over_support(s, NegWeightedEntropy(ThetaWeights.uniform(3))).value,
            asymptotic_vertex_cover(h, XI1),
            fractional_vertex_cover(h, AL1).value,
            -min_convex_over_support(s, MaxInfNorm(AL1)).value,  # the minimax search maximizes
        )

    tensors = [w_tensor(), gl_w_tensor(), direct_sum(make_unit(2, 3), make_unit(1, 3)),
               _tiny_entry_tensor()] + [sparse_tensor((3, 3, 2), 5, k) for k in (6, 8, 11)]
    for t in tensors:
        base = scores(t)
        for seed in (0, 1, 2):
            factors = tuple(_haar(n, 10 * seed + j) for j, n in enumerate(t.dims))
            ut = apply_group(GroupElement(factors, unitary=True), t)
            assert points(ut) >= points(t)
            for b, v in zip(base, scores(ut)):
                assert v >= b - 1e-7
    for t in (w_tensor(), make_unit(3, 3)):
        summed = NegSummedEntropy(3)
        base = min_convex_over_support(support(t, eta), summed).value
        for seed in (0, 1, 2):
            ut = apply_group(GroupElement((_haar(t.dims[0], seed),) * 3, unitary=True), t)
            assert points(ut) >= points(t)
            assert -min_convex_over_support(support(ut, eta), summed).value >= -base - 1e-7
    a = skew_basis3()
    eye = np.eye(3, dtype=complex)
    base = ranks._support_bigraph(a, eye, eye, eta)
    for seed in (0, 1, 2):
        haar = ranks._support_bigraph(a, _haar(3, seed), _haar(3, seed + 100), eta)
        assert set(haar.edges) >= set(base.edges)
        assert bipartite_vertex_cover(haar).value >= bipartite_vertex_cover(base).value


def test_slice_rank_unit():
    rep = asymptotic_slice_rank(make_unit(3, 3), XI1, FAST)
    for v in rep.routes.values():
        assert abs(v - 3.0) <= 2e-3
    assert rep.status == "ok"


def test_slice_rank_w(w):
    rep = asymptotic_slice_rank(w, XI1, FAST)
    for v in rep.routes.values():
        assert abs(v - F_W) <= 2e-3
    assert rep.gap <= 2e-3


def test_slice_rank_matmul(matmul222):
    rep = asymptotic_slice_rank(matmul222, XI1, FAST)
    for v in rep.routes.values():
        assert abs(v - 4.0) <= 2e-3


def test_slice_rank_bounds():
    rng = np.random.default_rng(0)
    t = random_tensor((2, 3, 4), rng)
    rep = asymptotic_slice_rank(t, XI1, FAST)
    assert 1.0 - 1e-9 <= rep.value <= min(t.dims) + 1e-6


def test_slice_rank_w_unequal_xi_beats_grid(w):
    # a tight scaling run at the route's theta confirms 1.998284; the old
    # 153-point grid plus a local simplex search over theta stopped at 1.999998
    rep = asymptotic_slice_rank(w, ThetaWeights.xi([1, 1, 0.25]), FAST)
    value = rep.routes["quantum_theta_min"]
    lo, hi = rep.details["theta_bracket"]
    assert value <= 1.99830
    assert lo <= value <= hi
    assert np.log2(hi / lo) <= ranks.THETA_BRACKET_BITS
    assert rep.status == "ok" and not rep.notes


@pytest.mark.parametrize("name", ["w", "rand234", "sparse332"])
def test_theta_route_beats_quarter_grid(name, w):
    t = {
        "w": w,
        "rand234": random_tensor((2, 3, 4), np.random.default_rng(5)),
        "sparse332": sparse332(),
    }[name]
    # full-tolerance runs at the points of the 1/4 theta grid; a run stopped
    # at its cap only underestimates bits(theta), which makes the check stricter
    grid = [np.array(c) / 4 for c in itertools.product(range(5), repeat=3) if sum(c) == 4]
    bits = [quantum_functional(t, ThetaWeights.theta(th)).bits for th in grid]
    for xi in ([1, 1, 1], [1, 0.5, 1]):
        _, (lo, _), _, _, _ = ranks._slice_rank_theta_route(t, ThetaWeights.xi(xi), FAST)
        value = asymptotic_slice_rank(t, ThetaWeights.xi(xi), FAST).routes["quantum_theta_min"]
        assert 2.0**lo <= value
        for th, b in zip(grid, bits):
            assert value <= 2.0 ** (b / float(th @ np.array(xi))) + 1e-9


def test_theta_route_scaling_runs(monkeypatch):
    # sparse332's support is not free: every cut is a loose run, and the
    # route makes no other
    calls = []

    def counted(scaling):
        def run(*args, **kwargs):
            calls.append(kwargs)
            return scaling(*args, **kwargs)
        return run

    monkeypatch.setattr(ranks, "entropic_scaling", counted(ranks.entropic_scaling))
    monkeypatch.setattr(functionals, "entropic_scaling", counted(functionals.entropic_scaling))
    rep = asymptotic_slice_rank(sparse332(), XI1, FAST)
    assert abs(rep.value - 2.0) <= 2e-3
    assert 0 < rep.details["scaling_runs"] == len(calls) <= 20


def test_theta_route_vertex_cuts_are_two_step_runs(monkeypatch):
    # a generic 3x3x3 tensor: its support is not free and no semistability
    # rule covers 3x3x3, so every cut is a loose run; at the vertices
    # theta = e_j each run stops at its one-step fixed point
    t = random_tensor((3, 3, 3), np.random.default_rng(7))
    assert not functionals._is_free(support(t, 0.0).points)
    assert functionals._flattening_ranks(t, range(3)) == ((3, 3, 3), None)
    runs = []

    def counted(*args, **kwargs):
        cert, trace = functionals.entropic_scaling(*args, **kwargs)
        runs.append((args[1].values, trace.iterations))
        return cert, trace

    monkeypatch.setattr(ranks, "entropic_scaling", counted)
    rep = asymptotic_slice_rank(t, XI1, FAST)
    vertex = [its for theta, its in runs if np.count_nonzero(theta) == 1]
    assert len(vertex) == 3 and max(vertex) <= 2
    assert rep.details["moment_certificate"] is None
    assert rep.details["scaling_runs"] == len(runs) > 3
    lo, hi = rep.details["theta_bracket"]
    assert lo <= 3.0 <= hi * 2.0**1e-9 and np.log2(hi / lo) <= ranks.THETA_BRACKET_BITS


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 0.5, 1), (1, 1, 0)])
def test_theta_route_on_a_semistable_tensor_makes_no_scaling_run(xi, monkeypatch):
    # rand234 is a generic tensor of the boundary format 2 x 3 x 4, whose
    # hyperdeterminant (rule d) certifies bits(theta) = sum_j theta_j log2 r_j
    # at every theta: the route is least at the vertex of leg 0, 1 bit
    t = random_tensor((2, 3, 4), np.random.default_rng(5))
    assert not functionals._is_free(support(t, 0.0).points)

    def refuse(*args, **kwargs):
        raise AssertionError("scaling run on a certified tensor")

    monkeypatch.setattr(ranks, "entropic_scaling", refuse)
    monkeypatch.setattr(functionals, "entropic_scaling", refuse)
    theta, bracket, cuts, solve, certificate = ranks._slice_rank_theta_route(
        t, ThetaWeights.xi(xi), FAST)
    assert (bracket, cuts, solve, certificate) == ((1.0, 1.0), 0, None, "semistable")
    assert np.array_equal(theta, [1.0, 0.0, 0.0])
    rep = asymptotic_slice_rank(t, ThetaWeights.xi(xi), FAST)
    assert rep.details["scaling_runs"] == 0
    assert rep.details["moment_certificate"] == "semistable"
    assert rep.value == 2.0 and rep.details["theta_bracket"] == (2.0, 2.0)
    assert rep.status == "ok" and not rep.notes


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 0.5, 1), (1, 1, 0)])
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 2), (2, 3, 4), (3, 3, 1)])
def test_certified_theta_route_lies_in_the_kelley_bracket(dims, xi, monkeypatch):
    # the certified value is the least log2 r_j / xi_j; Kelley's cuts, run
    # with the rules switched off, bracket the same minimum: the certified
    # lower end of the cuts is never above it
    t = random_tensor(dims, np.random.default_rng(3))
    weights = ThetaWeights.xi(xi)
    _, (lo, hi), cuts, _, certificate = ranks._slice_rank_theta_route(t, weights, FAST)
    assert certificate in ("semistable", "square_pencil") and cuts == 0 and lo == hi
    monkeypatch.setattr(ranks, "_flattening_ranks", lambda t, legs: None)
    _, (ref_lo, ref_hi), ref_cuts, _, ref_certificate = ranks._slice_rank_theta_route(
        t, weights, FAST)
    assert ref_certificate is None and ref_cuts >= 2
    assert ref_lo <= lo + 1e-12
    assert lo <= ref_hi + ranks.THETA_BRACKET_BITS


def _w_slice_rank_half_middle() -> float:
    # W's support is {e_0, e_1, e_2} per leg; by symmetry the max-min at
    # xi = (1, 1/2, 1) puts a on legs 0 and 2 and 1 - 2a on leg 1, and
    # balances h(a) = 2 h(1 - 2a) for a in (1/3, 1/2)
    def h(p):
        return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))

    lo, hi = 1 / 3, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if h(mid) < 2 * h(1 - 2 * mid) else (lo, mid)
    return 2.0 ** h(lo)


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 0.5, 1), (1, 1, 0)])
@pytest.mark.parametrize("name", ["w", "matmul222", "unit2+unit1"])
def test_theta_route_runs_no_scaling_on_free_supports(name, xi, monkeypatch):
    t = {"w": w_tensor(), "matmul222": matmul_tensor(2, 2, 2),
         "unit2+unit1": direct_sum(make_unit(2, 3), make_unit(1, 3))}[name]
    known = {"matmul222": 4.0, "unit2+unit1": 3.0}.get(name) or {
        (1, 1, 1): F_W, (1, 0.5, 1): _w_slice_rank_half_middle(), (1, 1, 0): 2.0}[xi]

    def refuse(*args, **kwargs):
        raise AssertionError("scaling run on a free support")

    monkeypatch.setattr(ranks, "entropic_scaling", refuse)
    monkeypatch.setattr(functionals, "entropic_scaling", refuse)
    weights = ThetaWeights.xi(xi)
    _, (lo, hi), _, solve, certificate = ranks._slice_rank_theta_route(t, weights, FAST)
    assert solve is not None and certificate == "free_support"
    rep = asymptotic_slice_rank(t, weights, FAST)
    assert rep.details["scaling_runs"] == 0
    value = rep.routes["quantum_theta_min"]
    assert abs(np.log2(value / known)) <= ranks.THETA_BRACKET_BITS
    assert abs(np.log2(value / rep.routes["cover_entropy"])) <= ranks.THETA_BRACKET_BITS
    # the cuts are exact, so the bracket holds the known value
    assert lo - 1e-9 <= np.log2(known) <= hi + 1e-9


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 0.5, 1)])
@pytest.mark.parametrize("name", ["w", "matmul222", "unit2+unit1"])
def test_slice_rank_on_a_free_support_ends_at_the_max_min_solve(name, xi, monkeypatch):
    # the theta route's value is the max-min program's lower end, and the
    # identity's cover reuses that solve: no bracket at the best theta, and
    # the two routes report one value
    t = {"w": w_tensor(), "matmul222": matmul_tensor(2, 2, 2),
         "unit2+unit1": direct_sum(make_unit(2, 3), make_unit(1, 3))}[name]

    def refuse(*args, **kwargs):
        raise AssertionError("bracketed scaling on a free support")

    monkeypatch.setattr(ranks, "_bracketed_scaling", refuse, raising=False)
    rep = asymptotic_slice_rank(t, ThetaWeights.xi(xi), FAST)
    assert rep.routes["quantum_theta_min"] == rep.routes["cover_entropy"]
    assert rep.gap == 0.0
    assert rep.value == rep.details["theta_bracket"][0]


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 0.5, 1)])
@pytest.mark.parametrize("name", ["rand234", "sparse332", "gl_w"])
def test_slice_rank_off_a_free_support_ends_at_the_kelley_bracket(name, xi, monkeypatch):
    # every cut is a point of the moment polytope, so the master LP's value
    # is a certified lower end: the route reports it, and scales only for
    # its cuts
    t = {"rand234": random_tensor((2, 3, 4), np.random.default_rng(5)),
         "sparse332": sparse332(), "gl_w": gl_w_tensor()}[name]
    assert not functionals._is_free(support(t, 0.0).points)

    def refuse(*args, **kwargs):
        raise AssertionError("bracketed scaling after the Kelley cuts")

    monkeypatch.setattr(ranks, "_bracketed_scaling", refuse, raising=False)
    monkeypatch.setattr(functionals, "_bracketed_scaling", refuse)
    route = ranks._slice_rank_theta_route(t, ThetaWeights.xi(xi), FAST)
    rep = asymptotic_slice_rank(t, ThetaWeights.xi(xi), FAST)
    assert rep.value == rep.details["theta_bracket"][0]
    assert rep.details["scaling_runs"] == route[2]


def test_theta_route_closes_to_inner_tol_on_w_at_unequal_xi(w):
    # on a free support the route is the max-min program, solved to
    # cfg.inner_tol (Kelley's cuts stopped at THETA_BRACKET_BITS)
    rep = asymptotic_slice_rank(w, ThetaWeights.xi([1, 0.5, 1]), FAST)
    lo, hi = rep.details["theta_bracket"]
    assert np.log2(hi / lo) <= FAST.inner_tol
    assert lo <= _w_slice_rank_half_middle() <= hi
    assert lo <= rep.value <= hi


@pytest.mark.parametrize("xi", [(1, 1, 1), (1, 0.5, 1)])
def test_slice_rank_on_a_free_support_solves_the_max_min_program_once(w, xi, monkeypatch):
    # the identity's eta-support is the exact one, so the cover route
    # reuses the theta route's solve
    calls = []
    witness = optim.max_min_weighted_entropy_witness

    def counted(*args, **kwargs):
        calls.append(args)
        return witness(*args, **kwargs)

    monkeypatch.setattr(ranks, "max_min_weighted_entropy_witness", counted)
    monkeypatch.setattr(optim, "max_min_weighted_entropy_witness", counted)
    rep = asymptotic_slice_rank(w, ThetaWeights.xi(xi), FAST)
    assert len(calls) == 1
    assert rep.details["cover_bases"] == 1
    assert np.log2(rep.routes["cover_entropy"]) == pytest.approx(
        np.log2(rep.details["theta_bracket"][0]), abs=1e-12)


def test_cover_route_reuses_the_solve_only_on_the_same_support(w):
    # W + 1e-12 e_111: the exact support is free with 4 points, where the
    # max-min value is 1 bit, but the eta-support is W's 3 points, whose
    # cover is 2^h(1/3)
    arr = w.entries.copy()
    arr[1, 1, 1] = 1e-12
    t = Tensor(arr)
    exact = support(t, 0.0)
    assert functionals._is_free(exact.points) and exact.size == 4
    assert np.array_equal(support(t, FAST.eta).points, support(w, 0.0).points)
    rep = asymptotic_slice_rank(t, XI1, FAST)
    assert abs(rep.routes["quantum_theta_min"] - 2.0) <= 1e-6
    assert abs(rep.routes["cover_entropy"] - F_W) <= 1e-6


def test_theta_route_drops_legs_with_zero_xi(w):
    rep = asymptotic_slice_rank(w, ThetaWeights.xi([1, 1, 0]), FAST)
    assert rep.details["theta"][2] == 0.0
    assert abs(rep.routes["quantum_theta_min"] - 2.0) <= 1e-5


def test_theta_route_warns_when_bracket_stays_open(w, monkeypatch):
    # W's support is free, so its route is the max-min program and stops at
    # that program's oracle cap; the rounded GL.W's is not, and its Kelley
    # loop stops at the same cap (it needs 17 cuts)
    assert not functionals._is_free(support(gl_w_tensor(), 0.0).points)
    for t, xi in ((w, ThetaWeights.xi([1, 0.5, 1])), (gl_w_tensor(), XI1)):
        with monkeypatch.context() as m:
            m.setattr(optim, "MAX_MIN_CUTS", 3)
            rep = asymptotic_slice_rank(t, xi, FAST)
        lo, hi = rep.details["theta_bracket"]
        assert np.log2(hi / lo) > ranks.THETA_BRACKET_BITS
        assert rep.status == "warn"
        assert any("not closed after 3 cuts" in n for n in rep.notes)


def test_kelley_lower_end_holds_whatever_the_simplex_rounding(monkeypatch):
    # the second draw of the soundness corpus: a 3x2x2 tensor on the support
    # 000, 011, 110, 111, 200, 201; legs 1 and 2 have dimension 2, so no cut
    # exceeds 1 bit there and the minimum over theta is at most 1 bit, where
    # the master's mu read 1 + 2.5e-11
    rng = np.random.default_rng(5)
    for _ in range(2):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        nnz = int(rng.integers(3, 10))
        flat = np.zeros(int(np.prod(dims)), dtype=complex)
        idx = rng.choice(flat.size, nnz, replace=False)
        flat[idx] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    t = Tensor(flat.reshape(dims))
    assert dims == (3, 2, 2) and support(t, 0.0).size == 6
    monkeypatch.setattr(ranks, "_flattening_ranks", lambda *args: None)
    _, (lo, hi), cuts, solve, certificate = ranks._slice_rank_theta_route(t, XI1, FAST)
    assert solve is None and certificate is None and cuts > 3
    assert lo <= 1.0 and hi - lo <= ranks.THETA_BRACKET_BITS


@pytest.mark.parametrize("label,t", basis_search_corpus())
def test_cover_route_stopped_by_bracket_matches_full_scan(label, t):
    rep = asymptotic_slice_rank(t, XI1, FAST)
    full = min(
        asymptotic_vertex_cover(hypergraph_of(apply_group(u, t), FAST.eta), XI1, tol=FAST.inner_tol)
        for u in unitary_candidates(t)
    )
    assert 1 <= rep.details["cover_bases"] <= 2
    assert abs(np.log2(rep.routes["cover_entropy"]) - np.log2(full)) <= 2 * FAST.inner_tol


def test_cover_route_stops_at_the_first_basis_meeting_the_bound(w):
    rep = asymptotic_slice_rank(w, XI1, FAST)
    assert rep.details["cover_bases"] == 1
    assert abs(rep.routes["cover_entropy"] - F_W) <= 1e-6


def test_cover_route_open_bracket_scores_every_basis():
    rep = asymptotic_slice_rank(gl_w_tensor(), XI1, FAST)
    assert rep.details["cover_bases"] == 2
    assert rep.routes["cover_entropy"] > rep.details["theta_bracket"][1] + 1e-3


def test_g_stable_rank_examples(w):
    rep = g_stable_rank(w, AL1, FAST)
    assert abs(rep.routes["cover_lp"] - 1.5) <= 1e-9
    assert abs(rep.routes["moment_linf"] - 1.5) <= 1e-3
    for r in (1, 2, 3):
        rep = g_stable_rank(make_unit(r, 3), AL1, FAST)
        for v in rep.routes.values():
            assert abs(v - r) <= 1e-3
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    rep = g_stable_rank(Tensor(arr), AL1, FAST)
    for v in rep.routes.values():
        assert abs(v - 1.0) <= 1e-6


def test_g_stable_cover_route_scores_every_basis(w, monkeypatch):
    # W's support is free: the identity's cover is the certificate's solve,
    # which meets the moment route, so the search stops there
    assert g_stable_rank(w, AL1, FAST).details["cover_bases"] == 1
    seen = []
    solve = functionals.min_convex_over_support
    monkeypatch.setattr(functionals, "min_convex_over_support",
                        lambda s, *a, **k: seen.append(s.points.tobytes()) or solve(s, *a, **k))
    rep = g_stable_rank(gl_w_tensor(), AL1, FAST)
    assert rep.details["cover_bases"] == 2
    assert 1 <= len(seen) == len(set(seen)) <= 2  # one solve per distinct support


def test_g_stable_descent_stops_at_the_bracket():
    # a generic 3x3x4 tensor: not free, and no semistability rule covers it
    t = random_tensor((3, 3, 4), np.random.default_rng(0))
    rep = g_stable_rank(t, AL1, FAST)
    assert rep.details["moment_certificate"] is None
    assert rep.details["descent_stop"] == "bracket"
    assert 0 < rep.details["descent_iterations"] <= 200
    assert abs(rep.value - 3.0) <= 1e-9
    assert rep.gap <= ranks.ROUTE_TOL and rep.status == "ok"


@pytest.mark.parametrize("name", ["w", "wxw", "unit2", "rand234", "rand222"])
def test_g_stable_rank_certified_without_a_descent(name, monkeypatch):
    # free supports (W, W x W, a unit tensor) and semistable concise tensors
    # (the boundary format 2 x 3 x 4, Cayley's 2 x 2 x 2) make no descent;
    # on a free support no cover LP either
    t = {"w": w_tensor(), "wxw": tensor_product(w_tensor(), w_tensor()),
         "unit2": make_unit(2, 3), "rand234": random_tensor((2, 3, 4), np.random.default_rng(5)),
         "rand222": random_tensor((2, 2, 2), np.random.default_rng(3))}[name]
    known, how = {"w": (1.5, "free_support"), "wxw": (3.0, "free_support"),
                  "unit2": (2.0, "free_support"), "rand234": (2.0, "semistable"),
                  "rand222": (2.0, "semistable")}[name]

    def refuse(*args, **kwargs):
        raise AssertionError("moment descent on a certified tensor")

    monkeypatch.setattr(functionals, "minimize_over_moment_polytope", refuse)
    solves = []
    solve = functionals.min_convex_over_support
    monkeypatch.setattr(functionals, "min_convex_over_support",
                        lambda *a, **k: solves.append(solve(*a, **k)) or solves[-1])
    rep = g_stable_rank(t, AL1, FAST)
    # one support solve: on a free support the certificate's, which the
    # identity reuses, else the identity's
    assert len(solves) == 1
    assert rep.details["moment_certificate"] == rep.details["descent_stop"] == how
    assert rep.details["descent_iterations"] == 0
    assert rep.details["cover_bases"] == 1
    for v in rep.routes.values():
        assert abs(v - known) <= 1e-12
    assert rep.status == "ok" and not rep.notes


def test_g_stable_inverted_bracket_warns(monkeypatch):
    # a cover route of 1 (every support program read as 1) below the moment
    # route of a generic 3x3x4 tensor, whose descent stops at its start
    # (1 / value >= 1 there)
    monkeypatch.setattr(functionals, "min_convex_over_support",
                        lambda s, objective, tol: SimpleNamespace(value=1.0, certified_gap=0.0))
    rep = g_stable_rank(random_tensor((3, 3, 4), np.random.default_rng(0)), AL1, FAST)
    assert rep.status == "warn"
    assert [n for n in rep.notes if n.startswith("inverted bracket: ")]
    assert rep.routes["moment_linf"] - rep.routes["cover_lp"] > ranks.ROUTE_TOL


def test_g_stable_below_slice_rank(w):
    # fractional covers sit below entropic covers, pointwise in the basis
    for t in (w, make_unit(2, 3)):
        g = g_stable_rank(t, AL1, FAST).value
        s = asymptotic_slice_rank(t, XI1, FAST).value
        assert g <= s + 1e-3


def test_ncrank_identity():
    for n in (1, 2, 3):
        rep = ncrank(MatrixTuple(np.eye(n)[None, :, :]), FAST)
        assert rep.routes == {
            "fortin_reutenauer": float(n),
            "blowup": float(n),
            "moment_l1": float(n),
        }
        assert rep.status == "ok"


def test_ncrank_row_pencil():
    rep = ncrank(row_pencil(), FAST)
    assert all(v == 1.0 for v in rep.routes.values())
    assert abs(rep.details["moment_raw"] - 1.0) <= 0.1
    assert any("cokernel" in n for n in rep.notes)


def test_ncrank_skew_basis():
    rep = ncrank(skew_basis3(), FAST)
    assert all(v == 3.0 for v in rep.routes.values())
    assert rep.status == "ok"


@pytest.mark.parametrize("label", ["identity", "row_pencil", "skew"])
def test_ncrank_moment_stops_at_the_start(label):
    # the 3 x 3 identity has a leg of rank 1, and the row pencil's concise
    # ranks (1, 2, 2) give a square flattening: both are certified; the
    # skew pencil (ranks 3, 3, 3) meets the cover at the descent's start
    a = {"identity": MatrixTuple(np.eye(3)[None, :, :]), "row_pencil": row_pencil(),
         "skew": skew_basis3()}[label]
    stop = {"identity": "semistable", "row_pencil": "semistable", "skew": "bracket"}[label]
    rep = ncrank(a, FAST)
    assert (rep.details["descent_iterations"], rep.details["descent_stop"]) == (0, stop)
    assert rep.details["moment_certificate"] == (None if stop == "bracket" else stop)
    assert rep.value - rep.details["moment_raw"] <= ranks.ROUTE_TOL


def _block_tuple() -> MatrixTuple:
    """Three 3 x 3 matrices nonzero only in the first row and column: the
    2 x 2 zero block below them gives ncrank 2."""
    rng = np.random.default_rng(1)
    mats = np.zeros((3, 3, 3), dtype=complex)
    for k in range(3):
        mats[k, 0, :] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mats[k, :, 0] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return MatrixTuple(mats)


def test_ncrank_moment_stops_within_route_tol_of_the_cover():
    a = _block_tuple()
    rep = ncrank(a, FAST)
    assert rep.value == 2.0 and rep.status == "ok"
    assert rep.details["moment_certificate"] is None
    assert rep.details["descent_stop"] == "bracket"
    assert 0.0 <= rep.value - rep.details["moment_raw"] <= ranks.ROUTE_TOL
    raw, rounded, res = ncrank_moment(a)  # no upper end: the descent runs on
    assert rounded == 2 and res.stop != "bracket"
    assert res.iterations > rep.details["descent_iterations"]


@pytest.mark.parametrize("seed", [4, 5])
def test_ncrank_moment_on_a_square_pencil_makes_no_descent(seed, monkeypatch):
    # a random 6 x 6 pencil of three slices holds a nonsingular matrix, so
    # left-right scaling reaches the uniform marginals (Gurvits)
    rng = np.random.default_rng(seed)
    a = MatrixTuple(rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6)))

    def refuse(*args, **kwargs):
        raise AssertionError("moment descent on a certified tuple")

    monkeypatch.setattr(ranks, "minimize_over_moment_polytope", refuse)
    rep = ncrank(a, FAST)
    assert rep.details["moment_certificate"] == rep.details["descent_stop"] == "square_pencil"
    assert rep.details["descent_iterations"] == 0
    assert rep.details["moment_raw"] == 6.0 and rep.value == 6.0 and rep.status == "ok"


def test_ncrank_inverted_bracket_warns(monkeypatch):
    # a cover route of 1 on the 3x3 identity, whose moment route gives 3
    monkeypatch.setattr(ranks, "ncrank_fr", lambda a, cfg: (1, {}))
    rep = ncrank(MatrixTuple(np.eye(3)[None, :, :]), FAST)
    assert rep.status == "warn"
    assert [n for n in rep.notes if n.startswith("inverted bracket: ")]
    assert rep.details["moment_raw"] - rep.value > 0.25


def test_ncrank_fr_scores_the_identity_and_the_eigenbasis_pairs(monkeypatch):
    pairs = []
    bigraph = ranks._support_bigraph
    monkeypatch.setattr(ranks, "_support_bigraph",
                        lambda a, u, v, eta: pairs.append((u, v)) or bigraph(a, u, v, eta))
    a = skew_basis3()
    value, cert = ncrank_fr(a)
    assert value == 3 and cert["pairs_scored"] == len(pairs) == 2
    for u in pairs[0]:
        assert np.array_equal(u, np.eye(3))
    eig = ranks._eigenbasis_unitary(a.as_tensor())
    assert np.array_equal(pairs[1][0], eig.factors[0])
    assert np.array_equal(pairs[1][1], eig.factors[1].conj())


def test_ncrank_blowup_needs_size_two_for_skew():
    a = skew_basis3()
    assert ncrank_blowup(a, max_size=1) == 2  # odd skew pencils drop rank at size 1
    assert ncrank_blowup(a, max_size=2) == 3


def test_ncrank_rank_deficient_block_tuple():
    # matrices with a 2x2 zero block in rows {2,3} x cols {2,3}: ncrank 2
    a = _block_tuple()
    fr, _ = ncrank_fr(a, FAST)
    assert fr == 2
    assert ncrank_blowup(a) == 2
    raw, rounded, _ = ncrank_moment(a)
    assert rounded == 2 and abs(raw - 2) <= 0.1


def test_ncrank_bounds_ordering():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        mats = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        a = MatrixTuple(mats)
        lower = ncrank_blowup(a)
        upper, _ = ncrank_fr(a, FAST)
        assert lower <= upper


def test_rank_report_json_shape():
    rep = ncrank(row_pencil(), FAST)
    from spectrumkit.serialize import rank_report_to_json_dict

    d = rank_report_to_json_dict(rep)
    assert d["quantity"] == "ncrank"
    assert d["routes"]["moment_l1"]["rounded"] == 1
    assert set(d) >= {"quantity", "value", "routes", "gap", "status"}


def _undecided_ranks() -> Tensor:
    # e_000 + e_111 + 1e-14 (e_222 + e_221): entries below the rank cut
    a = np.zeros((3, 3, 3), complex)
    a[0, 0, 0] = a[1, 1, 1] = 1.0
    a[2, 2, 2] = a[2, 2, 1] = 1e-14
    return Tensor(a)


@pytest.mark.parametrize("label", ["free", "semistable", "no-rule", "undecided"])
def test_each_call_takes_the_flattening_ranks_at_most_once(label, monkeypatch):
    # the certificate, the quantum functional's rank cap and the slice
    # route's vertex branch share one concise tensor per call
    t = {"free": w_tensor(), "semistable": random_tensor((2, 2, 2), np.random.default_rng(0)),
         "no-rule": sparse332(), "undecided": _undecided_ranks()}[label]
    concise, calls = functionals._concise, []

    def counted(x):
        calls.append(x)
        return concise(x)

    monkeypatch.setattr(functionals, "_concise", counted)
    uniform = ThetaWeights.uniform(3)
    runs = [
        lambda: quantum_functional(t, uniform, inner_tol=FAST.inner_tol),
        lambda: functionals.support_functional(t, uniform, FAST),
        lambda: functionals.minimax_gap(t, NegWeightedEntropy(uniform), FAST),
        lambda: functionals.minimax_gap(t, MaxInfNorm(AL1), FAST),
        lambda: g_stable_rank(t, AL1, FAST),
        lambda: asymptotic_slice_rank(t, XI1, FAST),
        lambda: ncrank_moment(MatrixTuple(np.moveaxis(t.entries[:2, :2], 2, 0))),
    ]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) <= 1
