"""d-partite hypergraph covers: exact, fractional, asymptotic, and bipartite.

The exact weighted cover is a branch-and-bound over "which vertex covers the
first uncovered edge", run from an explicit stack; it stops as soon as its
best cover costs no more than a certified lower bound, the dual fractional
matching of the unit-weight cover LP on the edges projected onto the usable
parts.  The fractional cover is a linear program solved with HiGHS; the
asymptotic cover is the entropy program over the edge set viewed as a
support set; the bipartite cover comes from a Hopcroft-Karp matching.
"""

from __future__ import annotations

import math
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


def kronecker_power(h: Hypergraph, n: int) -> Hypergraph:
    """The n-th Kronecker power: parts of size n_i^n, edges all n-tuples of edges.

    Tuple indices are merged with the same row-major pairing used for tensor
    products, so the power of a support hypergraph is the hypergraph of the
    tensor power.  More than KRONECKER_EDGE_CAP edges raise
    ``ResourceLimitError``.
    """
    if n < 1:
        raise InvalidArgumentError(f"power must be >= 1, got {n}")
    if h.n_edges**n > KRONECKER_EDGE_CAP:
        raise ResourceLimitError(f"{h.n_edges}^{n} edges exceeds the cap {KRONECKER_EDGE_CAP}")
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
    lower_bound: float = 0.0  # certified: no cover costs less
    nodes: int = 0  # branch-and-bound nodes visited


def _greedy_matching_bound(edges: Sequence[tuple[int, ...]], uncovered: np.ndarray) -> int:
    """Number of pairwise disjoint edges among the uncovered ones: a lower
    bound on the extra cover vertices they need."""
    used: list[set[int]] = [set() for _ in edges[0]]
    count = 0
    for k in uncovered.tolist():
        e = edges[k]
        if any(v in u for v, u in zip(e, used)):
            continue
        for v, u in zip(e, used):
            u.add(v)
        count += 1
    return count


def _cover_lower_bound(h: Hypergraph, allowed: Sequence[int], xi: ThetaWeights) -> float:
    """A certified lower bound on the cost of every cover that uses only the
    allowed parts.

    Such a cover costs sum_j r_j^(1/xi_j) >= sum_j r_j, since xi <= 1, and
    its vertices cover the edges projected onto the allowed parts, so it
    costs at least the unit-weight fractional cover of that projection.  Its
    dual matching y, scaled down by its largest vertex load, is feasible
    whatever rounding the LP solver left in it, so sum(y) / load is a bound
    by weak duality.  With every allowed xi_j = 1 the cost is an integer.
    """
    projected = Hypergraph(
        tuple(h.parts[j] for j in allowed), tuple({tuple(e[j] for j in allowed) for e in h.edges})
    )
    matching = fractional_vertex_cover(projected, ThetaWeights.alpha(np.ones(len(allowed)))).matching
    load: dict[tuple[int, int], float] = {}
    for e, y in matching.items():
        for j, v in enumerate(e):
            load[(j, v)] = load.get((j, v), 0.0) + y
    lo = sum(matching.values()) / max(1.0, max(load.values(), default=0.0))
    if all(xi.values[j] == 1.0 for j in allowed):
        lo = math.ceil(lo - 1e-9)
    return float(lo)


def vertex_cover(h: Hypergraph, xi: ThetaWeights) -> CoverResult:
    """Exact weighted vertex cover: minimize sum_i r_i^(1/xi_i) over 0/1 covers.

    r_i is the number of chosen vertices in part i.  Parts with xi_i = 0 may
    not be used at all.  Branch and bound, depth first from an explicit
    stack: branch on which vertex of the first uncovered edge joins the
    cover, pruned with a bound from edges disjoint on the allowed parts, and
    stopped once the best cover meets the certified lower bound of
    ``_cover_lower_bound``.  The incumbent changes only on a strict
    improvement, so the stop changes neither the value nor the cover.
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
    lower = _cover_lower_bound(h, allowed, xi)

    # deterministic branching order: vertices of the edge sorted by
    # decreasing degree, then by (part, vertex)
    degree = {}
    for e in edges:
        for j in allowed:
            degree[(j, e[j])] = degree.get((j, e[j]), 0) + 1

    # vertices of zero-weight parts are never chosen, so only the allowed
    # parts can make two uncovered edges need one vertex between them
    projected = [tuple(e[j] for j in allowed) for e in edges]
    edge_arr = np.array(edges, dtype=np.int64)
    covered = np.zeros(len(edges), dtype=bool)
    counts = [0] * h.d
    chosen: set[tuple[int, int]] = set()
    best_val = np.inf
    best_cover: list[tuple[int, int]] = []
    nodes = 0

    def cost() -> float:
        return sum(counts[j] ** exponents[j] for j in allowed if counts[j] > 0)

    def visit() -> list[tuple[int, int]] | None:
        """Enter the current node: keep a strictly better cover at a leaf,
        and return the branching options of an inner node the bound keeps."""
        nonlocal best_val, best_cover, nodes
        nodes += 1
        uncovered = np.flatnonzero(~covered)
        if uncovered.size == 0:
            val = cost()
            if val < best_val - 1e-12:
                best_val = val
                best_cover = sorted(chosen)
            return None
        # until a first cover is found no bound can prune, so the first dive
        # skips the walk over the uncovered edges
        if best_val < np.inf and (
            cost() + _greedy_matching_bound(projected, uncovered) >= best_val - 1e-12
        ):
            return None
        e = edges[uncovered[0]]
        return [(j, e[j]) for j in sorted(allowed, key=lambda j: (-degree[(j, e[j])], j))]

    # a frame holds a node's options, the index of the next one, and the
    # edges that the option taken last newly covered
    stack: list[list] = []
    options = visit()
    if options:
        stack.append([options, 0, None])
    while stack and best_val > lower + 1e-12:
        frame = stack[-1]
        options, pos, delta = frame
        if delta is not None:
            j, v = options[pos - 1]
            covered[delta] = False
            counts[j] -= 1
            chosen.discard((j, v))
        if pos == len(options):
            stack.pop()
            continue
        j, v = options[pos]
        delta = (edge_arr[:, j] == v) & ~covered
        covered[delta] = True
        counts[j] += 1
        chosen.add((j, v))
        frame[1], frame[2] = pos + 1, delta
        options = visit()
        if options:
            stack.append([options, 0, None])
    return CoverResult(float(best_val), tuple(best_cover), lower, nodes)


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
