"""Independent brute-force oracles used to pin expected values.

Nothing here shares code paths with the package solvers: entropy programs
are checked by dense grids over the weight simplex, linear programs by
enumerating basic feasible points, and covers, plain and weighted, by
exhausting vertex subsets.
The orbit-loop steps at the end are built leg by leg from
``tensors.marginal``, ``np.linalg.eigh`` and ``tensors.apply_factor``.
"""

from __future__ import annotations

import itertools

import numpy as np

from spectrumkit.tensors import Tensor, apply_factor, marginal


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    pos = p[p > 1e-300]
    return float(-(pos * np.log2(pos)).sum())


def simplex_grid(m: int, steps: int) -> np.ndarray:
    """All weight vectors with entries k/steps summing to 1, shape (G, m).

    Stars and bars: m - 1 bars among steps + m - 1 slots; the counts are the
    runs of stars between consecutive bars."""
    slots = steps + m - 1
    combos = list(itertools.combinations(range(slots), m - 1))
    bars = np.array(combos, dtype=int).reshape(len(combos), m - 1)
    ends = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), slots)])
    return (np.diff(ends, axis=1) - 1) / steps


def _marginal_table(points: np.ndarray, dims, weights: np.ndarray) -> list[np.ndarray]:
    """Marginals for a batch of weight vectors: list of (G, n_j) arrays."""
    res = []
    for j, n in enumerate(dims):
        table = np.zeros((weights.shape[0], n))
        for e in range(points.shape[0]):
            table[:, points[e, j]] += weights[:, e]
        res.append(table)
    return res


def grid_max_weighted_entropy(points: np.ndarray, dims, theta, steps: int) -> float:
    """Dense-grid maximum of sum_j theta_j H(p_j) over joint weights, in bits."""
    weights = simplex_grid(points.shape[0], steps)
    total = np.zeros(weights.shape[0])
    for j, table in enumerate(_marginal_table(points, dims, weights)):
        if theta[j] == 0:
            continue
        safe = np.where(table > 0, table, 1.0)
        total += theta[j] * (-(table * np.log2(safe)).sum(axis=1))
    return float(total.max())


def grid_max_min_entropy(points: np.ndarray, dims, xi, steps: int) -> float:
    """Dense-grid maximum of min_j H(p_j)/xi_j (zero-weight legs skipped)."""
    weights = simplex_grid(points.shape[0], steps)
    tables = _marginal_table(points, dims, weights)
    terms = []
    for j, table in enumerate(tables):
        if xi[j] == 0:
            continue
        safe = np.where(table > 0, table, 1.0)
        terms.append((-(table * np.log2(safe)).sum(axis=1)) / xi[j])
    return float(np.min(terms, axis=0).max())


def grid_min_convex(points: np.ndarray, dims, fn, steps: int) -> float:
    """Dense-grid minimum of a marginal-tuple function over joint weights."""
    weights = simplex_grid(points.shape[0], steps)
    tables = _marginal_table(points, dims, weights)
    best = np.inf
    for g in range(weights.shape[0]):
        best = min(best, fn([table[g] for table in tables]))
    return float(best)


def brute_force_lp(c: np.ndarray, a: np.ndarray, senses, b: np.ndarray) -> float:
    """Minimum of c.x over {A x (sense) b, x >= 0} by vertex enumeration."""
    c = np.asarray(c, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n = c.size
    rows = [(a[i], b[i]) for i in range(b.size)]
    rows += [(-np.eye(n)[i], 0.0) for i in range(n)]  # x_i >= 0 as -x_i <= 0 boundary
    best = np.inf
    for combo in itertools.combinations(range(len(rows)), n):
        mat = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        x = np.linalg.solve(mat, rhs)
        if np.any(x < -1e-9):
            continue
        ax = a @ x
        ok = True
        for i, s in enumerate(senses):
            if s == "<=" and ax[i] > b[i] + 1e-9:
                ok = False
            elif s == ">=" and ax[i] < b[i] - 1e-9:
                ok = False
            elif s == "=" and abs(ax[i] - b[i]) > 1e-9:
                ok = False
        if ok:
            best = min(best, float(c @ x))
    return best


def brute_force_vertex_cover(parts, edges) -> int:
    """Smallest vertex set hitting every edge, by subset enumeration."""
    vertices = [(j, v) for j, n in enumerate(parts) for v in range(n)]
    for size in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            chosen = set(combo)
            if all(any((j, e[j]) in chosen for j in range(len(parts))) for e in edges):
                return size
    return len(vertices)


def brute_force_weighted_cover(parts, edges, xi) -> float:
    """Least cost sum_j r_j^(1/xi_j) of a vertex set hitting every edge, with
    r_j the chosen vertices of part j and the parts of xi_j = 0 excluded, by
    subset enumeration."""
    vertices = [(j, v) for j, n in enumerate(parts) if xi[j] > 0 for v in range(n)]
    best = np.inf
    for size in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            chosen = set(combo)
            if all(any((j, e[j]) in chosen for j in range(len(parts))) for e in edges):
                counts = [sum(1 for j, _ in combo if j == k) for k in range(len(parts))]
                best = min(best, sum(c ** (1.0 / xi[k]) for k, c in enumerate(counts) if c > 0))
    return float(best)


def _sorted_spectra(t: Tensor, legs) -> tuple[list[np.ndarray], list[np.ndarray]]:
    pairs = [np.linalg.eigh(marginal(t, j)) for j in legs]
    return [np.clip(lam[::-1], 0.0, None) for lam, _ in pairs], [vec[:, ::-1] for _, vec in pairs]


def scaling_step(t: Tensor, theta) -> tuple[float, Tensor]:
    """sum_j theta_j H(spec rho_j) at t, and the next unit tensor of entropic
    scaling: each leg of positive weight times rho_j^(-theta_j/2) on its support."""
    lams, vecs = _sorted_spectra(t, range(t.order))
    out = t
    for j, (th, lam, vec) in enumerate(zip(theta, lams, vecs)):
        if th > 0:
            cut = 1e-13 * lam[0]
            powed = np.where(lam > cut, np.maximum(lam, cut) ** (-th / 2.0), 0.0)
            out = apply_factor(out, j, (vec * powed) @ vec.conj().T)
    return sum(th * entropy_bits(lam) for th, lam in zip(theta, lams)), out.unit()


def descent_step(t: Tensor, objective, sharp: float, step: float, legs):
    """One step of the moment descent: the sorted marginal spectra at t, and
    the line search on exp(-eta/2 h_j) with h_j = V diag(grad) V^dag, each
    exponential taken by its own eigendecomposition.  Returns (spectra, next
    tensor, eta), with eta None and t unchanged when no step improves the
    smooth value."""
    lams, vecs = _sorted_spectra(t, legs)
    hs = [(vec * g) @ vec.conj().T for vec, g in zip(vecs, objective.minorant(lams, sharp)[1])]
    sval = objective.smooth_value(lams, sharp)

    def move(eta):
        x = t
        for j, h in zip(legs, hs):
            lam_h, vec_h = np.linalg.eigh(h)
            x = apply_factor(x, j, (vec_h * np.exp(-0.5 * eta * lam_h)) @ vec_h.conj().T)
        x = x.unit()
        return x, objective.smooth_value(_sorted_spectra(x, legs)[0], sharp)

    eta = step
    x, v = move(eta)
    while not v < sval - 1e-15 and eta > 1e-16:
        eta /= 2.0
        x, v = move(eta)
    if not v < sval - 1e-15:
        return lams, t, None
    while eta < 1e8 and (nxt := move(2.0 * eta))[1] < v - 1e-15:
        eta, (x, v) = 2.0 * eta, nxt
    return lams, x, eta
