import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_lp
from spectrumkit import LinearProgram, LpInfeasible, LpUnbounded, solve_lp
from spectrumkit.linprog import slack_simplex
from spectrumkit.hypergraphs import hypergraph_of
from spectrumkit import ThetaWeights, fractional_vertex_cover, w_tensor


def test_min_x_geq_3():
    sol = solve_lp(LinearProgram([1.0], [[1.0]], (">=",), [3.0]))
    assert abs(sol.value - 3.0) <= 1e-9
    assert abs(sol.x[0] - 3.0) <= 1e-9


def test_fractional_cover_lp_of_w_support():
    res = fractional_vertex_cover(hypergraph_of(w_tensor(), 0.0), ThetaWeights.alpha([1, 1, 1]))
    assert abs(res.value - 1.5) <= 1e-9
    assert res.lp_duality_gap <= 1e-9
    # dual: the fractional matching reaches the same total
    assert abs(sum(res.matching.values()) - 1.5) <= 1e-9


def test_cover_lp_matches_vertex_enumeration():
    h = hypergraph_of(w_tensor(), 0.0)
    offsets = [0, 2, 4]
    a = np.zeros((3, 6))
    for k, e in enumerate(h.edges):
        for j, v in enumerate(e):
            a[k, offsets[j] + v] = 1.0
    oracle = brute_force_lp(np.ones(6), a, (">=",) * 3, np.ones(3))
    assert abs(oracle - 1.5) <= 1e-9


def test_infeasible_reported():
    with pytest.raises(LpInfeasible):
        solve_lp(LinearProgram([1.0], [[1.0], [1.0]], (">=", "<="), [3.0, 1.0]))


def test_unbounded_reported():
    with pytest.raises(LpUnbounded):
        solve_lp(LinearProgram([-1.0], [[1.0]], (">=",), [1.0]))


def test_equality_rows_value():
    # min x + 2y st x + y = 4, x - y >= 0, x,y >= 0 -> x=4, y=0, value 4
    sol = solve_lp(
        LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], ("=", ">="), [4.0, 0.0])
    )
    assert abs(sol.value - 4.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_lp_strong_duality_and_feasibility(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    c = np.abs(rng.standard_normal(n)) + 0.1
    senses = tuple(rng.choice(["<=", ">=", "="]) for _ in range(m))
    try:
        sol = solve_lp(LinearProgram(c, a, senses, b))
    except (LpInfeasible, LpUnbounded):
        return
    ax = a @ sol.x
    for i, s in enumerate(senses):
        if s == "<=":
            assert ax[i] <= b[i] + 1e-7
        elif s == ">=":
            assert ax[i] >= b[i] - 1e-7
        else:
            assert abs(ax[i] - b[i]) <= 1e-7
    assert np.all(sol.x >= -1e-9)
    # strong duality and dual feasibility
    assert abs(sol.value - b @ sol.y) <= 1e-9 * (1 + abs(sol.value))
    assert np.all(a.T @ sol.y <= c + 1e-7)
    # complementary slackness: positive primal vars have tight dual rows
    slack = c - a.T @ sol.y
    assert np.all(np.abs(sol.x * slack) <= 1e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_lp_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    a = np.round(rng.standard_normal((m, n)), 2)
    b = np.round(np.abs(rng.standard_normal(m)), 2)
    c = np.round(np.abs(rng.standard_normal(n)) + 0.1, 2)
    senses = tuple(rng.choice(["<=", ">="]) for _ in range(m))
    oracle = brute_force_lp(c, a, senses, b)
    try:
        sol = solve_lp(LinearProgram(c, a, senses, b))
    except LpInfeasible:
        assert oracle == np.inf
        return
    except LpUnbounded:
        return
    if np.isfinite(oracle):
        assert abs(sol.value - oracle) <= 1e-6 * (1 + abs(oracle))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_slack_simplex_matches_highs(seed):
    # degenerate rows (h = 0) and tied ratios are common in the support programs
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    g = np.vstack([rng.integers(-2, 4, (m, n)), np.ones(n)]).astype(float)
    h = np.append(rng.integers(0, 3, m), 5.0).astype(float)
    c = rng.integers(-1, 3, n).astype(float)
    x, y, _ = slack_simplex(c, g, h)
    sol = solve_lp(LinearProgram(-c, g, ("<=",) * h.size, h))
    assert abs(c @ x + sol.value) <= 1e-9
    assert np.all(g @ x <= h + 1e-9) and np.all(x >= -1e-12)
    assert np.all(y >= -1e-12) and np.all(g.T @ y >= c - 1e-9)
    assert abs(h @ y - c @ x) <= 1e-9


def test_slack_simplex_unbounded_reported():
    with pytest.raises(LpUnbounded):
        slack_simplex(np.array([1.0]), np.array([[-1.0]]), np.array([1.0]))
