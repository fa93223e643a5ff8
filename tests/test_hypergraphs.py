import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F_W, gl_w_tensor
from oracles import brute_force_vertex_cover, brute_force_weighted_cover
from spectrumkit import (
    BipartiteGraph,
    Hypergraph,
    ThetaWeights,
    asymptotic_vertex_cover,
    bipartite_vertex_cover,
    fractional_vertex_cover,
    g_stable_rank,
    hypergraph_of,
    kronecker_power,
    make_unit,
    matmul_tensor,
    vertex_cover,
    w_tensor,
)
from spectrumkit import functionals
from spectrumkit.hypergraphs import ResourceLimitError
from spectrumkit import min_convex_over_support
from spectrumkit.optim import MaxInfNorm

XI1 = ThetaWeights.xi([1, 1, 1])
AL1 = ThetaWeights.alpha([1, 1, 1])


def rand_hypergraph(rng, max_edges=8) -> Hypergraph:
    parts = tuple(int(rng.integers(2, 4)) for _ in range(3))
    m = int(rng.integers(2, max_edges + 1))
    edges = set()
    for _ in range(40):
        edges.add(tuple(int(rng.integers(0, n)) for n in parts))
        if len(edges) >= m:
            break
    return Hypergraph(parts, tuple(sorted(edges)))


def test_hypergraph_of_examples():
    h = hypergraph_of(make_unit(2, 3), 0.0)
    assert h.parts == (2, 2, 2) and h.n_edges == 2
    h = hypergraph_of(w_tensor(), 0.0)
    assert h.edges == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    h = hypergraph_of(matmul_tensor(2, 2, 2), 0.0)
    assert h.parts == (4, 4, 4) and h.n_edges == 8


def test_kronecker_power_examples():
    h2 = hypergraph_of(make_unit(2, 3), 0.0)
    p = kronecker_power(h2, 2)
    assert p.parts == (4, 4, 4) and p.n_edges == 4
    # product of perfect matchings stays a perfect matching pattern
    assert all(a == b == c for a, b, c in p.edges)
    hw = hypergraph_of(w_tensor(), 0.0)
    assert kronecker_power(hw, 2).n_edges == 9
    assert kronecker_power(hw, 1) == hw


def test_kronecker_power_cap():
    hw = hypergraph_of(w_tensor(), 0.0)
    with pytest.raises(ResourceLimitError):
        kronecker_power(hw, 20)


def test_kronecker_power_matches_tensor_product():
    from spectrumkit import tensor_product

    w = w_tensor()
    hw2 = kronecker_power(hypergraph_of(w, 0.0), 2)
    direct = hypergraph_of(tensor_product(w, w), 0.0)
    assert hw2 == direct


def test_vertex_cover_examples():
    for r in (1, 2, 3):
        h = hypergraph_of(make_unit(r, 3), 0.0)
        assert vertex_cover(h, XI1).value == r
    hw = hypergraph_of(w_tensor(), 0.0)
    res = vertex_cover(hw, XI1)
    assert res.value == 2
    # returned cover really covers
    chosen = set(res.cover)
    assert all(any((j, e[j]) in chosen for j in range(3)) for e in hw.edges)


def test_vertex_cover_of_w_square_is_three():
    # Every pair of W support points shares a zero coordinate, so the three
    # "paired zero" vertices cover the whole square; a 3-edge matching shows
    # optimality.  (Covers of Kronecker powers can beat products of covers.)
    hw2 = kronecker_power(hypergraph_of(w_tensor(), 0.0), 2)
    res = vertex_cover(hw2, XI1)
    assert res.value == 3
    assert brute_force_vertex_cover(hw2.parts, hw2.edges) == 3


def test_vertex_cover_weighted_restriction():
    hw = hypergraph_of(w_tensor(), 0.0)
    # only part 1 usable: both of its vertices are needed
    res = vertex_cover(hw, ThetaWeights.xi([1, 0, 0]))
    assert res.value == 2
    assert all(j == 0 for j, _ in res.cover)


def test_vertex_cover_matches_brute_force_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = rand_hypergraph(rng, max_edges=6)
        assert vertex_cover(h, XI1).value == brute_force_vertex_cover(h.parts, h.edges)


@pytest.mark.parametrize("xi", [(1.0, 1.0, 0.0), (1.0, 0.5, 1.0), (0.5, 1.0, 1.0)])
def test_vertex_cover_matches_weighted_brute_force_random(xi):
    rng = np.random.default_rng(11)
    for _ in range(15):
        h = rand_hypergraph(rng, max_edges=7)
        res = vertex_cover(h, ThetaWeights.xi(xi))
        best = brute_force_weighted_cover(h.parts, h.edges, xi)
        assert abs(res.value - best) <= 1e-9, (h, res.value, best)
        assert res.lower_bound <= best + 1e-9
        chosen = set(res.cover)
        assert all(xi[j] > 0 for j, _ in chosen)
        assert all(any((j, e[j]) in chosen for j in range(3)) for e in h.edges)


def test_vertex_cover_stops_only_once_the_best_cover_meets_the_bound():
    # the first cover found costs 31 and the certified bound is 9, so a
    # search stopped short of the bound returns more than the optimum 11
    h = kronecker_power(hypergraph_of(w_tensor()), 4)
    res = vertex_cover(h, ThetaWeights.xi([1.0, 0.5, 1.0]))
    assert res.value == 11 and res.lower_bound == 9


def test_vertex_cover_stops_at_the_lower_bound():
    # the optimum 16 is found at node 17 and meets the bound; without the
    # stop the search needs 65,537 nodes to prove it.  Part 0 keeps the vertices of
    # at most two 1-bits, part 1 those of at most one.
    h = kronecker_power(hypergraph_of(w_tensor()), 4)
    res = vertex_cover(h, ThetaWeights.xi([1.0, 1.0, 0.0]))
    assert res.value == 16 and res.lower_bound == 16
    assert res.nodes <= 20
    assert res.cover == tuple((0, v) for v in (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12)) + tuple(
        (1, v) for v in (0, 1, 2, 4, 8)
    )


def test_vertex_cover_of_many_disjoint_edges():
    # one branching level per edge: deeper than the recursion limit
    n = 1100
    h = Hypergraph((n, n, n), tuple((i, i, i) for i in range(n)))
    res = vertex_cover(h, XI1)
    assert res.value == n and len(res.cover) == n
    # one node per level and the leaf: the bound is never met on the way
    assert res.nodes == n + 1


#: (nodes, value, cover) of vertex_cover on the W^3 and W^4 jobs of the
#: covers benchmark.  The disjoint-edge bound can prune nothing before the
#: first cover is found, so skipping it there must change none of them.
W_POWER_COVERS = {
    (3, (1.0, 1.0, 1.0)): (34, 6.0, ((0, 0), (0, 1), (0, 2), (0, 4), (1, 0), (2, 0))),
    (3, (1.0, 0.5, 1.0)): (31, 6.0, ((0, 0), (0, 1), (0, 2), (0, 4), (1, 0), (2, 0))),
    (3, (1.0, 1.0, 0.0)): (9, 8.0, ((0, 0), (0, 1), (0, 2), (0, 4), (1, 0), (1, 1), (1, 2),
                                     (1, 4))),
    (4, (1.0, 1.0, 1.0)): (781, 11.0, ((0, 0), (0, 1), (0, 2), (0, 4), (0, 8), (1, 0), (1, 1),
                                        (1, 2), (1, 4), (1, 8), (2, 0))),
    (4, (1.0, 0.5, 1.0)): (352, 11.0, ((0, 0), (0, 1), (0, 2), (0, 4), (0, 8), (1, 0), (2, 0),
                                        (2, 1), (2, 2), (2, 4), (2, 8))),
    (4, (1.0, 1.0, 0.0)): (17, 16.0, ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
                                       (0, 8), (0, 9), (0, 10), (0, 12), (1, 0), (1, 1), (1, 2),
                                       (1, 4), (1, 8))),
}


@pytest.mark.parametrize("n, xi", sorted(W_POWER_COVERS))
def test_vertex_cover_nodes_on_w_powers(n, xi):
    res = vertex_cover(kronecker_power(hypergraph_of(w_tensor()), n), ThetaWeights.xi(xi))
    assert (res.nodes, res.value, res.cover) == W_POWER_COVERS[(n, xi)]


def test_fractional_cover_examples():
    hw = hypergraph_of(w_tensor(), 0.0)
    assert abs(fractional_vertex_cover(hw, AL1).value - 1.5) <= 1e-9
    assert abs(fractional_vertex_cover(hw, ThetaWeights.alpha([2, 1, 1])).value - 2.0) <= 1e-9
    for r in (1, 2, 3):
        h = hypergraph_of(make_unit(r, 3), 0.0)
        assert abs(fractional_vertex_cover(h, AL1).value - r) <= 1e-9


def test_fractional_cover_of_w_power_six():
    # 729 edges: past the reach of a dense tableau simplex
    h = kronecker_power(hypergraph_of(w_tensor()), 6)
    res = fractional_vertex_cover(h, AL1)
    assert abs(res.value - 30.0) <= 1e-9
    assert res.lp_duality_gap <= 1e-9


def test_g_stable_rank_solves_one_lp_per_support(monkeypatch):
    calls = []
    solve = functionals.min_convex_over_support

    def counted(s, objective, **kwargs):
        calls.append(s.points.tobytes())
        return solve(s, objective, **kwargs)

    monkeypatch.setattr(functionals, "min_convex_over_support", counted)
    # W's support is free: the identity's cover comes from the inf-norm
    # program's solve that certifies the moment route, with no other solve
    rep = g_stable_rank(w_tensor())
    assert abs(rep.value - 1.5) <= 1e-9 and len(calls) == 1
    calls.clear()
    g_stable_rank(gl_w_tensor())
    assert 1 <= len(calls) <= 2 and len(set(calls)) == len(calls)


def test_fractional_cover_polytope_route_agreement():
    rng = np.random.default_rng(20260810)
    for k in range(20):
        h = rand_hypergraph(rng)
        alpha = ThetaWeights.alpha(rng.uniform(0.5, 2.0, size=3))
        lp = fractional_vertex_cover(h, alpha)
        assert lp.lp_duality_gap <= 1e-9
        opt = min_convex_over_support(h.as_support(), MaxInfNorm(alpha), tol=1e-9)
        assert abs(lp.value - 1.0 / opt.value) <= 1e-6, (k, lp.value, 1.0 / opt.value)


def test_asymptotic_cover_examples():
    hw = hypergraph_of(w_tensor(), 0.0)
    assert abs(asymptotic_vertex_cover(hw, XI1) - F_W) <= 1e-6
    for r in (1, 2, 3):
        h = hypergraph_of(make_unit(r, 3), 0.0)
        assert abs(asymptotic_vertex_cover(h, XI1) - r) <= 1e-6
    single = Hypergraph((2, 2, 2), ((1, 0, 1),))
    assert abs(asymptotic_vertex_cover(single, XI1) - 1.0) <= 1e-9


def test_cover_sandwich_on_named_hypergraphs():
    # fractional <= asymptotic <= one-shot, on hypergraphs where the
    # one-shot bound is not beaten by power covers
    for h in (
        hypergraph_of(w_tensor(), 0.0),
        hypergraph_of(make_unit(2, 3), 0.0),
        hypergraph_of(make_unit(3, 3), 0.0),
        hypergraph_of(matmul_tensor(2, 2, 2), 0.0),
    ):
        frac = fractional_vertex_cover(h, AL1).value
        asym = asymptotic_vertex_cover(h, XI1)
        exact = vertex_cover(h, XI1).value
        assert frac <= asym + 1e-6
        assert asym <= exact + 1e-6


def test_fractional_below_asymptotic_random():
    # this inequality is pointwise (entropy dominates min-entropy)
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rand_hypergraph(rng)
        frac = fractional_vertex_cover(h, AL1).value
        asym = asymptotic_vertex_cover(h, XI1)
        assert frac <= asym + 1e-6


def test_asymptotic_cover_can_exceed_one_shot_cover():
    # documented counterexample: covers do not multiply under Kronecker
    # powers, so the asymptotic number may exceed the one-shot number
    h = Hypergraph(
        (3, 3, 3),
        ((0, 2, 1), (0, 2, 2), (1, 2, 0), (1, 2, 1), (2, 0, 1), (2, 1, 2), (2, 2, 1)),
    )
    asym = asymptotic_vertex_cover(h, XI1)
    one = vertex_cover(h, XI1).value
    assert one == 2
    assert asym > one + 0.5


def test_monotonicity_under_edge_addition():
    rng = np.random.default_rng(12)
    for _ in range(6):
        h = rand_hypergraph(rng, max_edges=5)
        extra = tuple(int(rng.integers(0, n)) for n in h.parts)
        if extra in h.edges:
            continue
        h2 = Hypergraph(h.parts, h.edges + (extra,))
        assert vertex_cover(h2, XI1).value >= vertex_cover(h, XI1).value
        assert (
            fractional_vertex_cover(h2, AL1).value
            >= fractional_vertex_cover(h, AL1).value - 1e-9
        )
        assert asymptotic_vertex_cover(h2, XI1) >= asymptotic_vertex_cover(h, XI1) - 1e-6


def test_bipartite_cover_examples():
    b = BipartiteGraph(4, tuple((i, i) for i in range(4)))
    assert bipartite_vertex_cover(b).value == 4
    b = BipartiteGraph(2, ((0, 0), (0, 1), (1, 1)))
    assert bipartite_vertex_cover(b).value == 2
    assert bipartite_vertex_cover(BipartiteGraph(3, ())).value == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_koenig_matching_equals_cover(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    edges = tuple(
        (int(i), int(j)) for i in range(n) for j in range(n) if rng.random() < 0.3
    )
    res = bipartite_vertex_cover(BipartiteGraph(n, edges))
    assert len(res.matching) == res.value == len(res.cover)
    chosen = set(res.cover)
    assert all(("L", i) in chosen or ("R", j) in chosen for i, j in edges)
    # matching edges are pairwise disjoint
    lefts = [i for i, _ in res.matching]
    rights = [j for _, j in res.matching]
    assert len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)


def test_bipartite_cover_of_long_path_like_graph():
    # augmenting paths here are n long, deeper than the recursion limit
    n = 3000
    edges = [(i, i) for i in range(n)] + [(i, i - 1) for i in range(1, n)]
    res = bipartite_vertex_cover(BipartiteGraph(n, tuple(edges)))
    assert res.value == n
    assert len(res.matching) == len(res.cover) == n
