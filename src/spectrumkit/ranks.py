"""Asymptotic slice rank, G-stable rank, and noncommutative rank.

Each rank is computed by independent routes that bound or equal each other:

* slice rank: minimize the quantum functional over entropy weights, vs. the
  asymptotic cover number of the support hypergraph over sampled bases;
* G-stable rank: the fractional-cover LP over sampled bases, vs. the
  reciprocal of an inf-norm minimization over marginal spectra;
* ncrank: bipartite cover search over basis pairs (an upper bound), random
  blow-up ranks (a lower bound), and the l1 distance of the left-right
  marginals from uniform.

Reports carry every route's value and the largest pairwise disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .functionals import (
    SearchConfig,
    entropic_scaling,
    minimize_over_moment_polytope,
    unitary_candidates,
)
from .hypergraphs import (
    BipartiteGraph,
    Hypergraph,
    asymptotic_vertex_cover,
    bipartite_vertex_cover,
    fractional_vertex_cover,
    hypergraph_of,
)
from .optim import L1FromUniform, MaxInfNorm, ThetaWeights
from .tensors import (
    InvalidArgumentError,
    MatrixTuple,
    Tensor,
    apply_group,
    random_unitary,
)


@dataclass(frozen=True)
class RankReport:
    quantity: str
    value: float
    routes: dict[str, float]
    gap: float
    status: str  # "ok" | "warn"
    notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "value": self.value,
            "routes": dict(sorted(self.routes.items())),
            "gap": self.gap,
            "status": self.status,
            "notes": list(self.notes),
        }


def _route_gap(routes: dict[str, float]) -> float:
    vals = [v for v in routes.values() if np.isfinite(v)]
    if len(vals) < 2:
        return 0.0
    return float(max(vals) - min(vals))


# ---------------------------------------------------------------------------
# asymptotic slice rank


def _theta_grid(d: int, step_denominator: int) -> list[np.ndarray]:
    grid = []
    for comp in itertools.combinations_with_replacement(range(d), step_denominator):
        counts = np.bincount(comp, minlength=d).astype(float)
        grid.append(counts / step_denominator)
    return grid


def _slice_rank_theta_route(
    t: Tensor,
    xi: ThetaWeights,
    cfg: SearchConfig,
    grid_denominator: int = 16,
) -> tuple[float, np.ndarray]:
    """min over theta of F_theta(t)^(1 / <theta, xi>), by grid plus refinement.

    Grid evaluations run the scaling at a loose budget and warm-start each
    run from the previous endpoint (any orbit point is a valid start); the
    winner is re-evaluated at full accuracy.
    """
    d = t.order
    warm: dict[str, np.ndarray | None] = {"s": None}

    def ratio_bits(theta_vec: np.ndarray, *, loose: bool) -> float:
        dot = float(theta_vec @ xi.values)
        if dot < 1e-9:
            return np.inf
        start = warm["s"] if loose else None
        cert, trace = entropic_scaling(
            t,
            ThetaWeights.theta(theta_vec),
            tol=1e-9 if loose else cfg.scaling_tol,
            max_iter=1500 if loose else min(cfg.scaling_max_iter, 30_000),
            window=30 if loose else 50,
            spectrum_tol=1e-6 if loose else 1e-8,
            start=start,
        )
        if loose:
            # reuse the endpoint unless it degenerated too close to a face
            floor = min(l[l > 0].min() if (l > 0).any() else 0.0 for l in
                        (np.clip(w, 0, None) for w in cert.witness.probs))
            warm["s"] = trace.final_entries if floor > 1e-6 else None
        return cert.bits / dot

    scored = []
    for th in _theta_grid(d, grid_denominator):
        scored.append((ratio_bits(th, loose=True), th))
    scored.sort(key=lambda x: x[0])

    from scipy.optimize import minimize

    def of_z(z: np.ndarray) -> float:
        e = np.exp(z - z.max())
        return ratio_bits(e / e.sum(), loose=True)

    best_bits, best_theta = scored[0]
    for _, th0 in scored[:3]:
        z0 = np.log(np.clip(th0, 1e-9, None))
        res = minimize(of_z, z0, method="Nelder-Mead", options={"maxfev": 60, "fatol": 1e-10})
        if res.fun < best_bits:
            e = np.exp(res.x - res.x.max())
            best_bits, best_theta = float(res.fun), e / e.sum()
    warm["s"] = None
    final_bits = ratio_bits(best_theta, loose=False)
    return float(2.0 ** min(best_bits, final_bits)), best_theta


def asymptotic_slice_rank(
    t: Tensor,
    xi: ThetaWeights | None = None,
    cfg: SearchConfig | None = None,
) -> RankReport:
    """The weighted asymptotic slice rank, by two routes.

    Route "quantum_theta_min" minimizes the quantum functional over entropy
    weights; route "cover_entropy" minimizes the asymptotic cover number of
    the rotated support hypergraph over sampled unitary bases.
    """
    t.require_nonzero()
    cfg = cfg or SearchConfig()
    xi = xi or ThetaWeights.xi(np.ones(t.order))
    if xi.role != "xi":
        raise InvalidArgumentError("slice rank expects weights with role 'xi'")

    val_a, best_theta = _slice_rank_theta_route(t, xi, cfg)

    val_b, best_u = np.inf, None
    for u in unitary_candidates(t, cfg):
        h = hypergraph_of(apply_group(u, t), cfg.eta)
        v = asymptotic_vertex_cover(h, xi, tol=cfg.inner_tol)
        if v < val_b - 1e-15:
            val_b, best_u = v, u

    routes = {"quantum_theta_min": float(val_a), "cover_entropy": float(val_b)}
    gap = _route_gap(routes)
    return RankReport(
        quantity="asymptotic_slice_rank",
        value=float(val_a),
        routes=routes,
        gap=gap,
        status="ok" if gap <= 5e-3 else "warn",
        details={"theta": best_theta, "basis": best_u},
    )


# ---------------------------------------------------------------------------
# G-stable rank


def g_stable_rank(
    t: Tensor,
    alpha: ThetaWeights | None = None,
    cfg: SearchConfig | None = None,
) -> RankReport:
    """The G-stable rank by the cover LP over sampled bases ("cover_lp") and
    by the reciprocal inf-norm program over marginal spectra ("moment_linf")."""
    t.require_nonzero()
    cfg = cfg or SearchConfig()
    alpha = alpha or ThetaWeights.alpha(np.ones(t.order))
    if alpha.role != "alpha":
        raise InvalidArgumentError("G-stable rank expects weights with role 'alpha'")

    # the candidates share few distinct supports, and equal supports have
    # equal covers: one LP per support, and the first basis reaching it
    cover_of: dict[Hypergraph, float] = {}
    val_a, best_u = np.inf, None
    for u in unitary_candidates(t, cfg):
        h = hypergraph_of(apply_group(u, t), cfg.eta)
        if h not in cover_of:
            cover_of[h] = fractional_vertex_cover(h, alpha).value
        if cover_of[h] < val_a - 1e-15:
            val_a, best_u = cover_of[h], u

    descent = minimize_over_moment_polytope(
        t, MaxInfNorm(alpha), max_iter=6000
    )
    val_b = 1.0 / descent.value

    routes = {"cover_lp": float(val_a), "moment_linf": float(val_b)}
    gap = _route_gap(routes)
    return RankReport(
        quantity="g_stable_rank",
        value=float(val_a),
        routes=routes,
        gap=gap,
        status="ok" if gap <= 5e-3 else "warn",
        details={"basis": best_u, "witness": descent.witness},
    )


# ---------------------------------------------------------------------------
# noncommutative rank


def _tuple_degeneracy_notes(a: MatrixTuple) -> tuple[str, ...]:
    stacked = a.mats.reshape(a.m * a.n, a.n)
    ker = a.n - np.linalg.matrix_rank(stacked, tol=1e-10)
    stacked_t = np.transpose(a.mats.conj(), (0, 2, 1)).reshape(a.m * a.n, a.n)
    coker = a.n - np.linalg.matrix_rank(stacked_t, tol=1e-10)
    notes = []
    if ker > 0:
        notes.append(f"slices share a {ker}-dimensional kernel")
    if coker > 0:
        notes.append(f"slices share a {coker}-dimensional cokernel")
    return tuple(notes)


def _support_bigraph(a: MatrixTuple, u: np.ndarray, v: np.ndarray, eta: float) -> BipartiteGraph:
    rotated = np.einsum("ip,kpq,jq->kij", u, a.mats, v)
    mags = np.abs(rotated).max(axis=0)
    cut = eta * mags.max() if eta > 0 else 0.0
    edges = [(int(i), int(j)) for i, j in np.argwhere(mags > cut)]
    return BipartiteGraph(a.n, tuple(edges))


def ncrank_fr(a: MatrixTuple, cfg: SearchConfig | None = None) -> tuple[int, dict]:
    """Cover-minimization route: min over sampled unitary pairs (u, v) of the
    bipartite cover number of the support of (u A_k v^T).  Upper bound on the
    noncommutative rank; equal to it at an optimal pair."""
    cfg = cfg or SearchConfig(restarts=40)
    t = a.as_tensor()
    # structured candidates: identity and the eigenbases of both marginals
    from .functionals import _eigenbasis_unitary

    eig = _eigenbasis_unitary(t)
    pairs = [
        (np.eye(a.n, dtype=complex), np.eye(a.n, dtype=complex)),
        (eig.factors[0], eig.factors[1].conj()),
    ]
    for k in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7000 + k)))
        pairs.append((random_unitary(a.n, rng), random_unitary(a.n, rng)))
    best, best_pair, best_cover = None, None, None
    for u, v in pairs:
        res = bipartite_vertex_cover(_support_bigraph(a, u, v, cfg.eta))
        if best is None or res.value < best:
            best, best_pair, best_cover = res.value, (u, v), res.cover
    return int(best), {"pair": best_pair, "cover": best_cover}


def ncrank_blowup(
    a: MatrixTuple,
    max_size: int | None = None,
    trials: int = 3,
    seed: int = 0,
) -> int:
    """Blow-up route: max over sizes e and random coefficient matrices of
    floor(rank(sum_i B_i x A_i) / e).  A lower bound on the noncommutative
    rank, exact with probability one once e is large enough."""
    emax = max_size if max_size is not None else a.n + 1
    best = 0
    for e in range(1, emax + 1):
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence((seed, e, trial)))
            big = np.zeros((e * a.n, e * a.n), dtype=complex)
            for k in range(a.m):
                b = rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
                big += np.kron(b, a.mats[k])
            sv = np.linalg.svd(big, compute_uv=False)
            rank = int((sv > 1e-9 * max(sv[0], 1.0)).sum())
            best = max(best, rank // e)
    return best


def ncrank_moment(
    a: MatrixTuple,
    cfg: SearchConfig | None = None,
    *,
    max_iter: int = 6000,
) -> tuple[float, int]:
    """Marginal-uniformity route: ncrk = n - (n/2) * min over the left-right
    orbit of ||p_1 - 1/n||_1 + ||p_2 - 1/n||_1, where p_1, p_2 are the row
    and column marginal spectra.  Returns the raw value and its rounding."""
    cfg = cfg or SearchConfig()
    t = a.as_tensor()
    res = minimize_over_moment_polytope(
        t, L1FromUniform(), active_legs=(0, 1), max_iter=max_iter
    )
    raw = a.n - 0.5 * a.n * res.value
    return float(raw), int(np.floor(raw + 0.5))


def ncrank(a: MatrixTuple, cfg: SearchConfig | None = None) -> RankReport:
    """All three noncommutative rank routes with exact-agreement status."""
    cfg = cfg or SearchConfig(restarts=40)
    notes = _tuple_degeneracy_notes(a)
    fr, fr_cert = ncrank_fr(a, cfg)
    blow = ncrank_blowup(a, seed=cfg.seed)
    raw, rounded = ncrank_moment(a, cfg)
    routes = {
        "fortin_reutenauer": float(fr),
        "blowup": float(blow),
        "moment_l1": float(rounded),
    }
    gap = _route_gap(routes)
    status = "ok"
    if gap > 0:
        status = "warn"
    if abs(raw - rounded) > 0.25:
        status = "warn"
        notes = notes + (f"moment route rounds {raw:.4f} -> {rounded}",)
    return RankReport(
        quantity="ncrank",
        value=float(fr),
        routes=routes,
        gap=gap,
        status=status,
        notes=notes,
        details={"moment_raw": raw, "fr_certificate": fr_cert},
    )
