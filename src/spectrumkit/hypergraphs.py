"""d-partite hypergraph covers: exact, fractional, asymptotic, and bipartite.

The exact weighted cover is a branch-and-bound over "which vertex covers the
first uncovered edge"; the fractional cover is a linear program solved with
HiGHS; the asymptotic cover is the entropy program over the edge set viewed
as a support set; the bipartite cover comes from a Hopcroft-Karp matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linprog import GEQ, LinearProgram, LpInfeasible, solve_lp
from .optim import ThetaWeights, max_min_weighted_entropy
from .tensors import DEFAULT_ETA, InvalidArgumentError, SupportSet, Tensor, support


class ResourceLimitError(RuntimeError):
    """A configured size cap was exceeded."""


KRONECKER_EDGE_CAP = 1_000_000


@dataclass(frozen=True)
class Hypergraph:
    """A d-uniform d-partite hypergraph with vertex parts [n_1], ..., [n_d]."""

    parts: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]  # 0-based index tuples

    def __post_init__(self):
        parts = tuple(int(n) for n in self.parts)
        if any(n < 1 for n in parts):
            raise InvalidArgumentError(f"part sizes must be positive: {parts}")
        seen = set()
        norm = []
        for e in self.edges:
            e = tuple(int(i) for i in e)
            if len(e) != len(parts):
                raise InvalidArgumentError(f"edge {e} does not have {len(parts)} vertices")
            for j, i in enumerate(e):
                if not 0 <= i < parts[j]:
                    raise InvalidArgumentError(f"edge {e} out of range on part {j}")
            if e in seen:
                raise InvalidArgumentError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def d(self) -> int:
        return len(self.parts)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def as_support(self) -> SupportSet:
        if not self.edges:
            raise InvalidArgumentError("hypergraph has no edges")
        return SupportSet(self.parts, np.array(self.edges, dtype=np.int64))


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite graph on [n] + [n] given by its edge set."""

    n: int
    edges: tuple[tuple[int, int], ...]  # 0-based (left, right) pairs

    def __post_init__(self):
        n = int(self.n)
        if n < 0:
            raise InvalidArgumentError("negative vertex count")
        norm = set()
        for i, j in self.edges:
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidArgumentError(f"edge ({i}, {j}) out of range for n={n}")
            norm.add((i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))


def hypergraph_of(t: Tensor, eta: float = DEFAULT_ETA) -> Hypergraph:
    """The support hypergraph of a tensor: one vertex part per leg, one edge per support point."""
    s = support(t, eta)
    return Hypergraph(s.dims, tuple(s.as_tuples()))


def kronecker_power(h: Hypergraph, n: int, *, edge_cap: int = KRONECKER_EDGE_CAP) -> Hypergraph:
    """The n-th Kronecker power: parts of size n_i^n, edges all n-tuples of edges.

    Tuple indices are merged with the same row-major pairing used for tensor
    products, so the power of a support hypergraph is the hypergraph of the
    tensor power.
    """
    if n < 1:
        raise InvalidArgumentError(f"power must be >= 1, got {n}")
    if h.n_edges**n > edge_cap:
        raise ResourceLimitError(f"{h.n_edges}^{n} edges exceeds the cap {edge_cap}")
    result = list(h.edges)
    sizes = list(h.parts)
    for _ in range(n - 1):
        result = [
            tuple(a * h.parts[j] + b for j, (a, b) in enumerate(zip(e1, e2)))
            for e1 in result
            for e2 in h.edges
        ]
        sizes = [s * p for s, p in zip(sizes, h.parts)]
    return Hypergraph(tuple(sizes), tuple(result))


@dataclass(frozen=True)
class CoverResult:
    value: float
    cover: tuple[tuple[int, int], ...]  # (part, vertex) 0-based


def _greedy_matching_bound(edges: Sequence[tuple[int, ...]], covered: np.ndarray) -> int:
    """Number of pairwise disjoint uncovered edges: a lower bound on extra cover vertices."""
    used_parts: list[set[int]] | None = None
    count = 0
    for k, e in enumerate(edges):
        if covered[k]:
            continue
        if used_parts is None:
            used_parts = [set() for _ in e]
        if any(e[j] in used_parts[j] for j in range(len(e))):
            continue
        for j in range(len(e)):
            used_parts[j].add(e[j])
        count += 1
    return count


def vertex_cover(h: Hypergraph, xi: ThetaWeights) -> CoverResult:
    """Exact weighted vertex cover: minimize sum_i r_i^(1/xi_i) over 0/1 covers.

    r_i is the number of chosen vertices in part i.  Parts with xi_i = 0 may
    not be used at all.  Branch and bound: branch on which vertex of the
    first uncovered edge joins the cover, pruned with a disjoint-edge bound.
    """
    if xi.role != "xi":
        raise InvalidArgumentError("vertex_cover expects weights with role 'xi'")
    if xi.values.size != h.d:
        raise InvalidArgumentError("one weight per part required")
    allowed = [j for j in range(h.d) if xi.values[j] > 0]
    if not allowed:
        raise LpInfeasible("no usable parts: all xi weights are zero")
    if h.n_edges == 0:
        return CoverResult(0.0, ())
    edges = list(h.edges)
    exponents = {j: 1.0 / xi.values[j] for j in allowed}

    # deterministic branching order: vertices of the edge sorted by
    # decreasing degree, then by (part, vertex)
    degree = {}
    for e in edges:
        for j in allowed:
            degree[(j, e[j])] = degree.get((j, e[j]), 0) + 1

    edge_arr = np.array(edges, dtype=np.int64)
    best_val = np.inf
    best_cover: list[tuple[int, int]] = []

    def cost(counts: dict[int, int]) -> float:
        return sum(c ** exponents[j] for j, c in counts.items() if c > 0)

    def recurse(chosen: set[tuple[int, int]], counts: dict[int, int], covered: np.ndarray):
        nonlocal best_val, best_cover
        if covered.all():
            val = cost(counts)
            if val < best_val - 1e-12:
                best_val = val
                best_cover = sorted(chosen)
            return
        bound = cost(counts) + _greedy_matching_bound(edges, covered)
        if bound >= best_val - 1e-12:
            return
        k = int(np.flatnonzero(~covered)[0])
        e = edges[k]
        options = sorted(allowed, key=lambda j: (-degree[(j, e[j])], j))
        for j in options:
            v = (j, e[j])
            chosen.add(v)
            counts[j] = counts.get(j, 0) + 1
            newly = edge_arr[:, j] == e[j]
            delta = newly & ~covered
            covered[delta] = True
            recurse(chosen, counts, covered)
            covered[delta] = False
            counts[j] -= 1
            chosen.discard(v)

    recurse(set(), {}, np.zeros(len(edges), dtype=bool))
    return CoverResult(float(best_val), tuple(best_cover))


@dataclass(frozen=True)
class FractionalCoverResult:
    value: float
    cover: dict[tuple[int, int], float]  # (part, vertex) -> weight
    matching: dict[tuple[int, ...], float]  # edge -> weight
    lp_duality_gap: float


def build_cover_lp(h: Hypergraph, alpha: ThetaWeights) -> LinearProgram:
    """The covering LP behind the fractional cover, exposed for debug dumps.

    Variables are vertex weights, ordered part by part; one >=1 row per edge.
    """
    if alpha.role != "alpha":
        raise InvalidArgumentError("fractional cover expects weights with role 'alpha'")
    if alpha.values.size != h.d:
        raise InvalidArgumentError("one weight per part required")
    offsets = np.concatenate([[0], np.cumsum(h.parts)])
    n_vars = int(offsets[-1])
    c = np.concatenate([np.full(h.parts[j], alpha.values[j]) for j in range(h.d)])
    a = np.zeros((h.n_edges, n_vars))
    for k, e in enumerate(h.edges):
        for j, v in enumerate(e):
            a[k, offsets[j] + v] = 1.0
    return LinearProgram(c, a, (GEQ,) * h.n_edges, np.ones(h.n_edges))


def fractional_vertex_cover(h: Hypergraph, alpha: ThetaWeights) -> FractionalCoverResult:
    """The weighted fractional cover LP min sum_i alpha_i sum_j u_ij
    subject to every edge collecting total weight >= 1, u >= 0.

    The LP dual is the fractional matching; both are returned.
    """
    if h.n_edges == 0:
        if alpha.role != "alpha":
            raise InvalidArgumentError("fractional cover expects weights with role 'alpha'")
        return FractionalCoverResult(0.0, {}, {}, 0.0)
    lp = build_cover_lp(h, alpha)
    offsets = np.concatenate([[0], np.cumsum(h.parts)])
    sol = solve_lp(lp)
    cover = {}
    for j in range(h.d):
        for v in range(h.parts[j]):
            u = sol.x[offsets[j] + v]
            if u > 1e-12:
                cover[(j, v)] = float(u)
    matching = {e: float(y) for e, y in zip(h.edges, sol.y) if y > 1e-12}
    gap = abs(sol.value - float(sol.y @ np.ones(h.n_edges)))
    return FractionalCoverResult(float(sol.value), cover, matching, gap)


def asymptotic_vertex_cover(h: Hypergraph, xi: ThetaWeights, *, tol: float = 1e-7) -> float:
    """2 to the maximum over edge distributions of min_i H(p_i)/xi_i."""
    if h.n_edges == 0:
        raise InvalidArgumentError("asymptotic cover needs a nonempty edge set")
    bits = max_min_weighted_entropy(h.as_support(), xi, tol=tol)
    return float(2.0**bits)


@dataclass(frozen=True)
class BipartiteCoverResult:
    value: int
    cover: tuple[tuple[str, int], ...]  # ("L", i) or ("R", j), 0-based
    matching: tuple[tuple[int, int], ...]


def bipartite_vertex_cover(b: BipartiteGraph) -> BipartiteCoverResult:
    """Minimum vertex cover of a bipartite graph via maximum matching.

    Hopcroft-Karp matching (scipy's ``maximum_bipartite_matching``) plus the
    alternating-reachability construction (Konig), so matching size and
    cover size agree exactly.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    edges = np.array(b.edges, dtype=np.int64).reshape(-1, 2)
    # the edges are sorted, so each row's neighbours come out sorted
    adj = csr_array(
        (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(b.n, b.n)
    )
    match_l = maximum_bipartite_matching(adj, perm_type="column")
    match_r = np.full(b.n, -1)
    matched = np.flatnonzero(match_l >= 0)
    match_r[match_l[matched]] = matched
    indptr, indices = adj.indptr, adj.indices

    # alternating reachability from unmatched left vertices
    visited_l = np.zeros(b.n, dtype=bool)
    visited_r = np.zeros(b.n, dtype=bool)
    stack = [i for i in range(b.n) if indptr[i + 1] > indptr[i] and match_l[i] < 0]
    visited_l[stack] = True
    while stack:
        i = stack.pop()
        for j in indices[indptr[i] : indptr[i + 1]]:
            if not visited_r[j]:
                visited_r[j] = True
                i2 = match_r[j]
                if i2 >= 0 and not visited_l[i2]:
                    visited_l[i2] = True
                    stack.append(i2)
    cover = [("L", int(i)) for i in matched if not visited_l[i]]
    cover += [("R", int(j)) for j in np.flatnonzero(visited_r)]
    matching = tuple((int(i), int(match_l[i])) for i in matched)
    return BipartiteCoverResult(len(matching), tuple(cover), matching)
