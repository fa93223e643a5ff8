"""Asymptotic slice rank, G-stable rank, and noncommutative rank.

Each rank is computed by independent routes that bound or equal each other:

* slice rank: minimize the quantum functional over entropy weights, vs. the
  asymptotic cover number of the support hypergraph in the identity basis
  and the marginal eigenbasis;
* G-stable rank: the fractional-cover LP in the same two bases, vs. the
  reciprocal of an inf-norm minimization over marginal spectra;
* ncrank: bipartite cover of two basis pairs (an upper bound), random
  blow-up ranks (a lower bound), and the l1 distance of the left-right
  marginals from uniform.

Reports carry every route's value and the largest pairwise disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import optim
from .functionals import (
    MomentCertificate,
    MomentDescentResult,
    SearchConfig,
    _basis_search,
    _descent_bound,
    _eigenbasis_unitary,
    _flattening_ranks,
    _is_free,
    _moment_certificate,
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
from .optim import (
    L1FromUniform,
    MaxInfNorm,
    SupportOptimum,
    ThetaWeights,
    kelley_master,
    max_min_weighted_entropy_witness,
)
from .tensors import (
    InvalidArgumentError,
    MatrixTuple,
    Tensor,
    apply_group,
    support,
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


#: routes within this distance of each other count as agreeing, and a
#: moment descent stops once its route is this close to the other route
ROUTE_TOL = 5e-3


def _rank_report(quantity: str, value: float, routes: dict[str, float], tol: float, *,
                 warnings: tuple[str, ...] = (), notes: tuple[str, ...] = (),
                 details: dict) -> RankReport:
    """The one rule for every rank report: ``gap`` is the spread of the finite
    routes, and ``status`` is "ok" iff gap <= tol and no warning was raised.
    ``notes`` only inform; they come before the warnings in the report."""
    vals = [v for v in routes.values() if np.isfinite(v)]
    gap = float(max(vals) - min(vals)) if len(vals) > 1 else 0.0
    return RankReport(quantity, value, routes, gap,
                      "ok" if gap <= tol and not warnings else "warn", notes + warnings, details)


# ---------------------------------------------------------------------------
# asymptotic slice rank


#: off a free support the theta route stops once its bracket is this
#: narrow, in bits, or at ``optim.MAX_MIN_CUTS`` cuts; a wider bracket warns
THETA_BRACKET_BITS = 1e-4


def _slice_rank_theta_route(
    t: Tensor, xi: ThetaWeights, cfg: SearchConfig
) -> tuple[np.ndarray, tuple[float, float], int, SupportOptimum | None, str | None]:
    """A bracket (lo, hi), in bits, on min over theta >= 0 with <theta, xi> = 1
    of bits(theta) = log2 F_theta(t).  Its lower end is certified on every
    support, so the route's value is 2^lo.

    On a free exact support (``_is_free``) bits(theta) is the entropy program
    there (Christandl, Vrana & Zuiddam, STOC 2018), so by minimax the route
    is the max-min program on that support (``max_min_weighted_entropy_witness``
    to ``cfg.inner_tol``): lo is the program's value, attained by its
    witness, hi adds its certified gap, the cuts are its oracles and the
    best theta is that of its least upper end.  No scaling runs.

    Where a rule of ``_semistability_rule`` passes for the legs with
    xi_j > 0 (``_flattening_ranks``), bits(theta) = sum_j theta_j log2 r_j
    at every theta on them, r_j the rank of flattening j.  That is linear
    in theta, so the route is least at a vertex: lo = hi = min over those
    legs of log2 r_j / xi_j, at theta = e_j, with no cut.

    Elsewhere the route runs Kelley cutting planes: the leg entropies h_k of
    any point of the moment polytope satisfy <theta, h_k> <= bits(theta), and
    each cut is the endpoint of one loose cold-started scaling run (a
    two-step run at a vertex theta = e_j).  Every cut is a point of the
    polytope, so for cut weights y >= 0 with sum(y) <= 1 the mixture
    <theta, y.h> is at most bits(theta), and lo = min_j (y.h)_j / xi_j over
    the legs with xi_j > 0 is a lower end, whatever the simplex's rounding,
    for y the master's (``kelley_master``) cut weights clipped at 0 and
    divided by max(1, sum(y)).  hi is the least cut model max_k <theta, h_k>
    at the evaluated thetas, attained at the best theta.  From the vertices
    on, each master's theta adds a cut until hi - lo <= THETA_BRACKET_BITS or
    ``optim.MAX_MIN_CUTS`` cuts; the route ends there.

    Returns the best theta, (lo, hi), the cut count (one scaling run each
    on the Kelley path), the max-min solve, or None off a free support, and
    the certificate that ended the route (``free_support``, ``semistable``
    or ``square_pencil``), or None after Kelley cuts.
    """
    exact = support(t, 0.0)
    if _is_free(exact.points):
        solve, theta = max_min_weighted_entropy_witness(exact, xi, tol=cfg.inner_tol)
        lo = solve.value
        return (theta.values, (float(lo), float(lo + solve.certified_gap)),
                solve.iterations, solve, "free_support")
    legs = np.flatnonzero(xi.values > 0)
    flat = _flattening_ranks(t, legs)
    if flat is not None and flat[1] is not None:
        ends = np.log2(np.array(flat[0])[legs]) / xi.values[legs]
        vertex = np.zeros(t.order)
        vertex[legs[np.argmin(ends)]] = 1.0
        lo = float(ends.min())
        return vertex, (lo, lo), 0, None, flat[1]

    def weights_at(point: np.ndarray) -> ThetaWeights:
        theta = np.zeros(t.order)
        theta[legs] = point / point.sum()
        return ThetaWeights.theta(theta)

    def cut(point: np.ndarray) -> np.ndarray:
        return entropic_scaling(t, weights_at(point), tol=1e-9, max_iter=1500, window=30,
                                spectrum_tol=1e-6)[0].witness.entropies()[legs]

    # the evaluated points, scaled to <theta, xi> = 1, and their cuts
    points = list(np.diag(1.0 / xi.values[legs]))
    cuts = [cut(point) for point in points]
    while True:
        h = np.array(cuts)
        model = (np.array(points) @ h.T).max(axis=1)
        best = int(np.argmin(model))
        sol = kelley_master(h, xi.values[legs])
        weights = np.clip(sol.y[: len(cuts)], 0.0, None)
        lo = float((weights @ h / max(1.0, weights.sum()) / xi.values[legs]).min())
        hi = max(lo, float(model[best]))
        if hi - lo <= THETA_BRACKET_BITS or len(cuts) >= optim.MAX_MIN_CUTS:
            break
        points.append(sol.x[:-1])
        cuts.append(cut(points[-1]))
    return weights_at(points[best]).values, (float(lo), float(hi)), len(cuts), None, None


def asymptotic_slice_rank(
    t: Tensor,
    xi: ThetaWeights | None = None,
    cfg: SearchConfig | None = None,
    *,
    route_tol: float = ROUTE_TOL,
) -> RankReport:
    """The weighted asymptotic slice rank, by two routes.

    Route "quantum_theta_min" minimizes the quantum functional over entropy
    weights (``_slice_rank_theta_route``), with bracket
    ``details["theta_bracket"]``: on a free exact support by the max-min
    entropy program there, on a concise tensor that a semistability rule
    certifies by the least log2 r_j / xi_j over the flattening ranks r_j,
    elsewhere by Kelley cuts from loose scaling runs.  Each way the
    bracket's lower end is certified and is the route's value;
    ``details["moment_certificate"]`` names the first two (``free_support``,
    ``semistable`` or ``square_pencil``) and is None after Kelley cuts.
    ``details["scaling_runs"]`` counts the runs that scaled: one per
    Kelley cut, else 0.  A bracket wider than THETA_BRACKET_BITS when the
    cuts run out, or routes more than route_tol apart, give status "warn"
    (the bracket with a note).  Route "cover_entropy" is the least
    asymptotic cover number of the rotated support hypergraph over the
    identity and the marginal eigenbasis (``unitary_candidates``).
    A basis whose ``cfg.eta`` support is the free exact support reuses the
    theta route's solve: both routes are then one program, and they report
    the same value.
    Every cover is at least 2^lo, so the search stops at the identity when
    its cover is within ``cfg.inner_tol`` bits of 2^hi: the eigenbasis could
    not lower the route by more than hi - lo + inner_tol bits.
    ``details["cover_bases"]`` counts the bases scored.
    """
    t.require_nonzero()
    cfg = cfg or SearchConfig()
    xi = xi or ThetaWeights.xi(np.ones(t.order))
    if xi.role != "xi":
        raise InvalidArgumentError("slice rank expects weights with role 'xi'")

    theta, (lo, hi), cuts, solve, certificate = _slice_rank_theta_route(t, xi, cfg)
    open_bracket = f"theta route bracket [{2**lo:.6f}, {2**hi:.6f}] not closed after {cuts} cuts"

    def cover(u):
        h = hypergraph_of(apply_group(u, t), cfg.eta)
        if solve is not None and np.array_equal(h.as_support().points,
                                                solve.distribution.support.points):
            return float(2.0**solve.value), None
        return asymptotic_vertex_cover(h, xi, tol=cfg.inner_tol), None

    val_b, best_u, _, scored = _basis_search(unitary_candidates(t), cover,
                                             lambda v, _: np.log2(v) <= hi + cfg.inner_tol)

    routes = {"quantum_theta_min": float(2.0**lo), "cover_entropy": float(val_b)}
    return _rank_report(
        "asymptotic_slice_rank", routes["quantum_theta_min"], routes, route_tol,
        warnings=(open_bracket,) if hi - lo > THETA_BRACKET_BITS else (),
        details={"theta": theta, "basis": best_u,
                 "theta_bracket": (float(2**lo), float(2**hi)),
                 "scaling_runs": 0 if certificate else cuts,
                 "cover_bases": scored, "moment_certificate": certificate},
    )


# ---------------------------------------------------------------------------
# G-stable rank


def _moment_details(res: MomentDescentResult | MomentCertificate) -> dict:
    """How a moment route ended: a descent's steps and stop reason, or 0 steps
    and the certificate's name in both ``descent_stop`` and
    ``moment_certificate``."""
    if isinstance(res, MomentCertificate):
        return {"descent_iterations": 0, "descent_stop": res.how, "moment_certificate": res.how}
    return {"descent_iterations": res.iterations, "descent_stop": res.stop,
            "moment_certificate": None}


def g_stable_rank(
    t: Tensor,
    alpha: ThetaWeights | None = None,
    cfg: SearchConfig | None = None,
    *,
    route_tol: float = ROUTE_TOL,
) -> RankReport:
    """The G-stable rank by the least cover LP over the identity and the
    marginal eigenbasis ("cover_lp", ``unitary_candidates``) and by the
    reciprocal inf-norm program over marginal spectra ("moment_linf").

    Every cover LP is an upper end and every moment point's 1 / value a
    lower end.  Where ``_moment_certificate`` applies (a free exact support
    or a semistable concise tensor), the inf-norm minimum v is known, within
    its certified gap g, without a descent: "moment_linf" is 1 / v, and
    ``details["moment_certificate"]`` names the certificate.  The fractional
    cover LP is the LP dual of the inf-norm program, so a basis whose
    ``cfg.eta`` support is the free exact support takes its cover, 1 / (v -
    g), from the certificate's solve.  The G-stable rank is at most
    1 / (v - g), so the basis search stops at the first cover within
    ``cfg.inner_tol`` bits of it.  Elsewhere the cover route scores both
    bases, and a moment descent runs until cover_lp - 1 / value <=
    route_tol.  ``details["descent_iterations"]`` and
    ``details["descent_stop"]`` say how the moment route ended (0 and the
    certificate's name where there was no descent).  A moment route above
    the cover route by more than route_tol is an inverted bracket: a note
    and status "warn".  ``details["cover_bases"]`` counts the bases
    scored."""
    t.require_nonzero()
    cfg = cfg or SearchConfig()
    alpha = alpha or ThetaWeights.alpha(np.ones(t.order))
    if alpha.role != "alpha":
        raise InvalidArgumentError("G-stable rank expects weights with role 'alpha'")

    objective = MaxInfNorm(alpha)
    cert = _moment_certificate(t, objective, range(t.order))
    solve = cert.solve if cert is not None else None
    # equal supports have equal covers: one LP per support, and the first
    # basis reaching it
    cover_of: dict[Hypergraph, float] = {}

    def cover(u):
        h = hypergraph_of(apply_group(u, t), cfg.eta)
        if h not in cover_of:
            if solve is not None and np.array_equal(h.as_support().points,
                                                    solve.distribution.support.points):
                cover_of[h] = 1.0 / (solve.value - solve.certified_gap)
            else:
                cover_of[h] = fractional_vertex_cover(h, alpha).value
        return cover_of[h], None

    top = -np.inf if cert is None else 2.0**cfg.inner_tol / (cert.value - cert.gap)
    val_a, best_u, _, scored = _basis_search(unitary_candidates(t), cover,
                                             lambda best, _: best <= top)
    val_a = float(val_a)
    if cert is None:
        bound = None
        if val_a > route_tol:
            bound = _descent_bound(lambda v: val_a - 1.0 / v <= route_tol,
                                   1.0 / (val_a - route_tol))
        res = minimize_over_moment_polytope(t, objective, max_iter=6000, bound=bound)
    else:
        res = cert
    val_b = 1.0 / res.value

    inverted = f"inverted bracket: moment_linf {val_b:.6f} above cover_lp {val_a:.6f}"
    return _rank_report(
        "g_stable_rank", val_a, {"cover_lp": val_a, "moment_linf": float(val_b)}, route_tol,
        warnings=(inverted,) if val_b - val_a > route_tol else (),
        details={"basis": best_u, "witness": res.witness, "cover_bases": scored,
                 **_moment_details(res)},
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
    """Cover-minimization route: min over two unitary pairs (u, v), the
    identity and the eigenbases of both marginals, of the bipartite cover
    number of the support of (u A_k v^T).  Upper bound on the noncommutative
    rank; equal to it at an optimal pair.  The certificate holds the best
    pair, its cover and ``pairs_scored``: both pairs are scored."""
    cfg = cfg or SearchConfig()
    eig = _eigenbasis_unitary(a.as_tensor())
    pairs = [
        (np.eye(a.n, dtype=complex), np.eye(a.n, dtype=complex)),
        (eig.factors[0], eig.factors[1].conj()),
    ]

    def cover(pair):
        res = bipartite_vertex_cover(_support_bigraph(a, *pair, cfg.eta))
        return res.value, res.cover

    best, pair, cover_set, scored = _basis_search(pairs, cover)
    return int(best), {"pair": pair, "cover": cover_set, "pairs_scored": scored}


def ncrank_blowup(
    a: MatrixTuple,
    max_size: int | None = None,
    seed: int = 0,
) -> int:
    """Blow-up route: max over sizes e and three seeded draws of random
    coefficient matrices of floor(rank(sum_i B_i x A_i) / e).  A lower bound
    on the noncommutative rank, exact with probability one once e is large
    enough."""
    emax = max_size if max_size is not None else a.n + 1
    best = 0
    for e in range(1, emax + 1):
        for trial in range(3):
            rng = np.random.default_rng(np.random.SeedSequence((seed, e, trial)))
            big = np.zeros((e * a.n, e * a.n), dtype=complex)
            for k in range(a.m):
                b = rng.standard_normal((e, e)) + 1j * rng.standard_normal((e, e))
                big += np.kron(b, a.mats[k])
            sv = np.linalg.svd(big, compute_uv=False)
            rank = int((sv > 1e-9 * max(sv[0], 1.0)).sum())
            best = max(best, rank // e)
    return best


def _moment_raw(n: int, value: float) -> float:
    return n - 0.5 * n * value


def ncrank_moment(
    a: MatrixTuple,
    *,
    upper: float | None = None,
) -> tuple[float, int, MomentDescentResult | MomentCertificate]:
    """Marginal-uniformity route: ncrk = n - (n/2) * min over the left-right
    orbit of ||p_1 - 1/n||_1 + ||p_2 - 1/n||_1, where p_1, p_2 are the row
    and column marginal spectra.  Where ``_moment_certificate`` applies on
    the row and column legs (a semistable concise tensor: a leg of rank 1
    or another square flattening, a 2 x 2 or 3 x 3 pencil, or a square
    pencil holding a nonsingular matrix), the minimum is known without a
    descent.  Elsewhere every orbit point gives a lower end, so with an
    upper end ``upper`` (a cover number) the descent stops once upper - raw
    <= ROUTE_TOL; it runs at most 6000 iterations, as in ``g_stable_rank``.
    Returns the raw value, its rounding and the certificate or the
    descent."""
    t = a.as_tensor()
    res = _moment_certificate(t, L1FromUniform(), (0, 1))
    if res is None:
        bound = None
        if upper is not None:
            bound = _descent_bound(lambda v: upper - _moment_raw(a.n, v) <= ROUTE_TOL,
                                   2.0 * (a.n - upper + ROUTE_TOL) / a.n)
        res = minimize_over_moment_polytope(
            t, L1FromUniform(), active_legs=(0, 1), max_iter=6000, bound=bound
        )
    raw = _moment_raw(a.n, res.value)
    return float(raw), int(np.floor(raw + 0.5)), res


def ncrank(a: MatrixTuple, cfg: SearchConfig | None = None) -> RankReport:
    """All three noncommutative rank routes, with status "ok" iff they agree
    exactly and no warning was raised; a shared kernel or cokernel of the
    slices is a note that does not warn.  The moment route is certified where
    ``ncrank_moment`` can (``details["moment_certificate"]``), else its
    descent stops once its raw value is within ROUTE_TOL of the bipartite
    cover; a raw value more than 0.25 off its rounding, or above the cover
    by more than 0.25 (an inverted bracket), warns with a note."""
    cfg = cfg or SearchConfig()
    fr, fr_cert = ncrank_fr(a, cfg)
    blow = ncrank_blowup(a, seed=cfg.seed)
    raw, rounded, descent = ncrank_moment(a, upper=float(fr))
    routes = {"fortin_reutenauer": float(fr), "blowup": float(blow), "moment_l1": float(rounded)}
    warnings = tuple(note for note, raised in (
        (f"moment route rounds {raw:.4f} -> {rounded}", abs(raw - rounded) > 0.25),
        (f"inverted bracket: moment raw {raw:.4f} above fortin_reutenauer {fr}", raw - fr > 0.25),
    ) if raised)
    return _rank_report(
        "ncrank", float(fr), routes, 0.0, warnings=warnings, notes=_tuple_degeneracy_notes(a),
        details={"moment_raw": raw, "fr_certificate": fr_cert, **_moment_details(descent)},
    )
