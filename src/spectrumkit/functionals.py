"""Moment maps, scaling iterations, and the spectral functionals of tensors.

The quantum side computes maxima of entropy-type objectives over spectra of
quantum marginals along a group orbit; the iteration multiplies each leg by
a fractional inverse power of its marginal and renormalizes.  The support
side minimizes entropy programs on the support rotated to the identity basis
or the marginal eigenbasis; the two sides bound each other and agree in the
limit, so each call reports the gap it actually achieved.

The orbit loops (entropic scaling, the symmetric scaling and the moment
descent) view leg j of the flat tensor as (before, n_j, after): a marginal is
the Gram matrix of the n_j x (before * after) flattening, and a factor acts
as one matmul on that view.  The marginals of all legs of one dimension are
stacked for one ``eigh`` call per distinct dimension per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .optim import (
    MarginalTuple,
    NegSummedEntropy,
    NegWeightedEntropy,
    SHARPNESS_SCHEDULE,
    SupportOptimum,
    ThetaWeights,
    min_convex_over_support,
    shannon_entropy,
)
from .tensors import (
    DEFAULT_ETA,
    GroupElement,
    InvalidArgumentError,
    Tensor,
    apply_group,
    marginal,
    support,
)

_C = TypeVar("_C")  # a basis-search candidate
_P = TypeVar("_P")  # what scoring a candidate yields besides its value

#: eigenvalues below this fraction of the largest are treated as exactly
#: zero when taking inverse powers of marginals
PINV_CUTOFF = 1e-13


@dataclass(frozen=True)
class SearchConfig:
    """The seed, support threshold and support-program tolerance of every
    search over basis changes."""

    seed: int = 0
    eta: float = DEFAULT_ETA
    inner_tol: float = 1e-8


@dataclass(frozen=True)
class ScalingTrace:
    """Per-iteration record of a scaling run."""

    iterations: int
    objective_bits: np.ndarray
    group_factors: tuple[np.ndarray, ...]  # accumulated, rescaled to unit spectral norm
    residual: float
    converged: bool
    stop: str  # why the run stopped: "bracket", "tol" or "cap"


@dataclass(frozen=True)
class FunctionalCertificate:
    """A functional value together with the point and basis that witness it."""

    value: float
    bits: float
    witness: MarginalTuple
    theta: np.ndarray | None = None
    group_factors: tuple[np.ndarray, ...] | None = None
    converged: bool = True
    gap: float | None = None
    bases_scored: int | None = None  # candidates scored by a basis search
    bracket: tuple[float, float] | None = None  # (lo, hi) bits of F_theta(t)
    # how lo was obtained: scaling, free_support, square_pencil or semistable
    lower_end: str | None = None


# ---------------------------------------------------------------------------
# moment maps


def moment_map(t: Tensor) -> tuple[np.ndarray, ...]:
    """The tuple of trace-one quantum marginals, one per leg."""
    t.require_nonzero()
    return tuple(marginal(t, j) for j in range(t.order))


def torus_moment_map(t: Tensor) -> MarginalTuple:
    """Diagonals of the quantum marginals; a point of the support polytope."""
    rhos = moment_map(t)
    return MarginalTuple(tuple(np.clip(np.real(np.diag(r)), 0.0, None) for r in rhos))


def kempf_ness_value(t: Tensor, x: GroupElement) -> float:
    """log <t, (x_1 x ... x x_d) t> for positive-definite Hermitian factors."""
    t.require_nonzero()
    for k, f in enumerate(x.factors):
        if np.linalg.norm(f - f.conj().T) > 1e-10 * max(1.0, np.linalg.norm(f)):
            raise InvalidArgumentError(f"factor {k} is not Hermitian")
        if np.linalg.eigvalsh(f).min() <= 0:
            raise InvalidArgumentError(f"factor {k} is not positive definite")
    xt = apply_group(x, t)
    ip = np.vdot(t.entries, xt.entries)
    if abs(ip.imag) > 1e-9 * max(1.0, abs(ip.real)) or ip.real <= 0:
        raise InvalidArgumentError("inner product is not a positive real")
    return float(np.log(ip.real))


def _sorted_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition with eigenvalues sorted non-increasing."""
    lam, vec = np.linalg.eigh(h)
    return lam[::-1], vec[:, ::-1]


def _arr_unit(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr.ravel())


class _LegViews:
    """The (before, n_j, after) leg views of raw arrays of fixed dims, for the
    orbit loops.  Per-leg data is kept as one stack per distinct leg dimension
    (``groups`` lists the legs of each); legs of unequal dimension are never
    padded into one stack, whose padded null space would mix with a marginal's.
    """

    def __init__(self, dims: tuple[int, ...], legs: Sequence[int]):
        self.shape = dims
        self.views = [(math.prod(dims[:j]), dims[j], math.prod(dims[j + 1 :])) for j in legs]
        ns = [n for _, n, _ in self.views]
        self.sizes = list(dict.fromkeys(ns))
        self.groups = [np.flatnonzero(np.array(ns) == n) for n in self.sizes]
        # the (group, row) of each leg
        self.slots = [(self.sizes.index(n), ns[:i].count(n)) for i, n in enumerate(ns)]
        # the flat indices of each leg's n x (before * after) flattening, stacked per group
        flats = [np.arange(a * n * b).reshape(a, n, b).transpose(1, 0, 2).reshape(n, -1)
                 for a, n, b in self.views]
        self.gathers = [np.stack([flats[i] for i in ix]) for ix in self.groups]

    def identity(self) -> list[np.ndarray]:
        eyes = zip(self.sizes, self.groups)
        return [np.tile(np.eye(n, dtype=complex), (ix.size, 1, 1)) for n, ix in eyes]

    def flattenings(self, s: np.ndarray) -> list[np.ndarray]:
        """Per group, the stacked n x (before * after) flattenings."""
        return [s.take(g) for g in self.gathers]

    def spectra(self, s: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per group, one ``eigh`` of the stacked trace-one marginals: spectra
        (non-decreasing, clipped at 0) of shape (k, n) and eigenvectors."""
        lams, vecs = [], []
        for m in self.flattenings(s):
            rho = m @ m.conj().transpose(0, 2, 1)
            rho /= rho.trace(0, 1, 2).real[:, None, None]
            lam, vec = np.linalg.eigh(rho)
            lams.append(np.maximum(lam, 0.0, out=lam))
            vecs.append(vec)
        return lams, vecs

    def summed_marginal(self, s: np.ndarray) -> np.ndarray:
        """The sum of the trace-one marginals; every leg of one dimension."""
        (m,) = self.flattenings(s)
        mu = (m @ m.conj().transpose(0, 2, 1)).sum(axis=0) / np.linalg.norm(s.ravel()) ** 2
        return 0.5 * (mu + mu.conj().T)

    def per_leg(self, stacks: list[np.ndarray]) -> list[np.ndarray]:
        return [stacks[g][r] for g, r in self.slots]

    def apply(self, s: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
        """Apply one factor per leg (group stacks), leg by leg; unit norm."""
        for (g, r), (a, n, b) in zip(self.slots, self.views):
            s = factors[g][r] @ s.reshape(a, n, b)
        return _arr_unit(s.reshape(self.shape))

    def accumulate(self, acc: list[np.ndarray], factors: list[np.ndarray]) -> list[np.ndarray]:
        """Left-multiply the accumulated factors; rescale by the largest entry."""
        acc = [f @ a for f, a in zip(factors, acc)]
        return [a / np.abs(a).max(axis=(1, 2), keepdims=True) for a in acc]


def _spectral(vec: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Stacked V diag(x) V^dag."""
    return (vec * diag[:, None, :]) @ vec.conj().transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# entropic scaling and the quantum functional


def entropic_scaling(
    t: Tensor,
    theta: ThetaWeights,
    *,
    tol: float = 1e-10,
    max_iter: int = 200_000,
    window: int = 50,
    spectrum_tol: float = 1e-8,
    upper_bits: float | None = None,
    width: float = 0.0,
) -> tuple[FunctionalCertificate, ScalingTrace]:
    """Iterate t <- (rho_1^(-theta_1/2) x ... x rho_d^(-theta_d/2)) t.

    Each step renormalizes to unit norm; inverse powers are taken on the
    support of each marginal (eigenvalues below PINV_CUTOFF times the top
    eigenvalue are left at zero).  The objective sum_j theta_j H(spec rho_j)
    is non-decreasing along the iteration, and every iterate bounds
    log2 F_theta(t) from below.  Given an upper bound ``upper_bits`` on
    log2 F_theta(t), the run stops with ``converged=True`` at the first
    iterate within ``width`` bits of it, and the certificate's ``bracket``
    is (iterate bits, upper_bits).  Otherwise the run stops when the
    objective moves less than ``tol`` over ``window`` iterations and the
    spectra move less than ``spectrum_tol``, or at ``max_iter`` with
    ``converged=False``; ``ScalingTrace.stop`` says which rule ended it.

    A vertex theta = e_j (one positive weight, so theta_j = 1) uses window 1.
    Only leg j is scaled, and one step of rho_j^(-1/2) on the range of rho_j
    makes marginal j uniform on its rank r_j; the state then lies in that
    range, so every later step is a multiple of the identity and no marginal
    moves again.  The residual and spectrum tests stop such a run at
    iteration 2 with bits = log2 r_j, the rank of the j-th flattening.
    """
    t.require_nonzero()
    if theta.role != "theta":
        raise InvalidArgumentError("entropic scaling expects weights with role 'theta'")
    if theta.d != t.order:
        raise InvalidArgumentError("one theta weight per leg required")
    th = theta.values
    if np.count_nonzero(th) == 1:
        window = 1
    views = _LegViews(t.dims, range(t.order))
    # per group: the exponents -theta_j/2 and the legs of weight 0, left alone;
    # theta_j for each eigenvalue of the concatenated group spectra
    powers = [-th[ix][:, None] / 2.0 for ix in views.groups]
    idle = [np.flatnonzero(th[ix] == 0.0) for ix in views.groups]
    weights = np.concatenate([np.repeat(th[ix], n) for n, ix in zip(views.sizes, views.groups)])
    s = _arr_unit(t.entries)
    acc = views.identity()
    bits_seq: list[float] = []
    prev = np.inf
    residual, stop = np.inf, "cap"
    stop_bits = upper_bits - width if upper_bits is not None else np.inf

    def weighted_bits(flat: np.ndarray) -> float:
        return float(-(weights * flat * np.log2(np.where(flat > 0.0, flat, 1.0))).sum())

    for it in range(max_iter + 1):
        lams, vecs = views.spectra(s)
        flat = np.concatenate([lam.ravel() for lam in lams])
        bits_seq.append(weighted_bits(flat))
        if bits_seq[-1] >= stop_bits:
            stop = "bracket"
            break
        spec_move = float(np.abs(flat - prev).max())
        if len(bits_seq) > window:
            residual = bits_seq[-1] - bits_seq[-1 - window]
            if abs(residual) < tol and spec_move < spectrum_tol:
                stop = "tol"
                break
        if it == max_iter:
            break
        prev = flat
        factors = []
        for lam, vec, pw, off in zip(lams, vecs, powers, idle):
            cut = PINV_CUTOFF * lam[:, -1:]
            g = _spectral(vec, np.power(lam, pw, out=np.zeros_like(lam), where=lam > cut))
            if off.size:
                g[off] = np.eye(g.shape[-1])
            factors.append(g)
        s = views.apply(s, factors)
        acc = views.accumulate(acc, factors)

    bits = bits_seq[-1]  # every exit of the loop has just scored the final s
    factors = tuple(f / np.linalg.norm(f, 2) for f in views.per_leg(acc))  # unit spectral norm
    converged = stop != "cap"
    cert = FunctionalCertificate(
        value=float(2.0**bits),
        bits=bits,
        witness=MarginalTuple(tuple(lam[::-1] / lam.sum() for lam in views.per_leg(lams))),
        theta=th.copy(),
        group_factors=factors,
        converged=converged,
        gap=None,
        bracket=(bits, float(upper_bits)) if upper_bits is not None else None,
        lower_end="scaling" if upper_bits is not None else None,
    )
    trace = ScalingTrace(
        iterations=len(bits_seq) - 1,
        objective_bits=np.array(bits_seq),
        group_factors=factors,
        residual=float(residual if np.isfinite(residual) else np.inf),
        converged=converged,
        stop=stop,
    )
    return cert, trace


def bracket_width(inner_tol: float) -> float:
    """The bracket width, in bits, at which a cold scaling run stops: ten
    times the support programs' tolerance (``SearchConfig.inner_tol``)."""
    return 10.0 * inner_tol


def exact_support_bound(
    t: Tensor, theta: ThetaWeights, inner_tol: float
) -> tuple[float, SupportOptimum]:
    """An upper bound in bits on log2 F_theta(t): the entropy program on the
    exact support (eta = 0; a thresholded support bounds nothing) plus its
    certified gap.  Also returns the solve."""
    opt = min_convex_over_support(support(t, 0.0), NegWeightedEntropy(theta), tol=inner_tol)
    return opt.certified_gap - opt.value, opt


def _is_free(points: np.ndarray) -> bool:
    """Whether any two support points differ in at least two coordinates:
    dropping any one coordinate leaves the points distinct."""
    rows = points.tolist()
    return all(len({tuple(r[:j] + r[j + 1:]) for r in rows}) == len(rows)
               for j in range(points.shape[1]))


def _concise(t: Tensor) -> np.ndarray | None:
    """t in orthonormal bases of the ranges of its flattenings, unit norm:
    leg by leg, the left singular vectors of flattening j whose singular
    values exceed PINV_CUTOFF times the largest.  Leg j has dimension r_j,
    the rank of flattening j.  None when a rank is undecided, as a component
    of t may lie below the cut: some entry is nonzero but at most
    PINV_CUTOFF, or some singular value lies above rounding level (numpy's
    ``matrix_rank`` tolerance, max(shape) eps sigma_max) but not above
    PINV_CUTOFF sigma_max."""
    c = _arr_unit(t.entries)
    if np.any((c != 0) & (np.abs(c) <= PINV_CUTOFF)):
        return None
    for j in range(c.ndim):
        before, after = c.shape[:j], c.shape[j + 1:]
        v = c.reshape(math.prod(before), c.shape[j], math.prod(after))
        flat = v.transpose(1, 0, 2).reshape(c.shape[j], -1)
        u, sv, _ = np.linalg.svd(flat, full_matrices=False)
        keep = sv > PINV_CUTOFF * sv[0]
        if np.any(sv[~keep] > max(flat.shape) * np.finfo(float).eps * sv[0]):
            return None
        u = u[:, keep]
        c = (u.conj().T @ v).reshape(before + (u.shape[1],) + after)
    return c


def _nonsingular(m: np.ndarray) -> bool:
    """sigma_min > PINV_CUTOFF sigma_max."""
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] > PINV_CUTOFF * sv[0])


def _pencil_discriminant(a: np.ndarray, b: np.ndarray) -> complex:
    """The discriminant of the binary form det(xA + yB) of two n x n slices,
    n in {2, 3}; for n = 2 it is Cayley's hyperdeterminant of the 2 x 2 x 2
    tensor (A, B).  The coefficients come from det(xA + B) at the (n+1)-th
    roots of unity."""
    n = a.shape[0]
    x = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    k = np.fft.fft(np.linalg.det(x[:, None, None] * a + b)) / (n + 1)  # k[i]: coefficient of x^i
    if n == 2:
        return k[1] ** 2 - 4 * k[2] * k[0]
    k0, k1, k2, k3 = k
    return ((k2 * k1) ** 2 - 4 * k3 * k1**3 - 4 * k2**3 * k0 - 27 * (k3 * k0) ** 2
            + 18 * k3 * k2 * k1 * k0)


def _boundary_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For two m x (m+1) slices: the m(m+1)-square matrix with A on the block
    diagonal and B on the block subdiagonal, the coefficient map of
    v(x, y) -> (xA + yB) v(x, y) on vectors v of degree m - 1 in (x, y).  Its
    determinant is the hyperdeterminant of the boundary format 2 x m x (m+1)
    (Gelfand, Kapranov & Zelevinsky, 1994, ch. 14)."""
    m = a.shape[0]
    return np.kron(np.eye(m + 1, m), a) + np.kron(np.eye(m + 1, m, -1), b)


def _semistability_rule(c: np.ndarray, legs: Sequence[int]) -> str | None:
    """The first rule that proves the concise tensor c semistable: under the
    whole group (``semistable``), or under the group of ``legs``
    (``square_pencil``); None when none applies or its test fails.

    (a) A square flattening, r_j = prod_{i != j} r_i (a leg of rank 1
        included): flattening j is invertible.
    (b) ``legs`` are two legs of one rank n, and a seeded random combination
        of the n x n slices along the other legs is nonsingular.
    (c) Ranks (n, n, 2), n in {2, 3}: the discriminant of det(xA + yB), for
        the slices A, B along the leg of rank 2, exceeds PINV_CUTOFF.
    (d) Ranks (2, m, m+1): ``_boundary_matrix`` of the slices is nonsingular.
    """
    r = c.shape
    if any(n * n == math.prod(r) for n in r):
        return "semistable"
    if len(legs) == 2 and r[legs[0]] == r[legs[1]]:
        n = r[legs[0]]
        slices = np.moveaxis(c, tuple(legs), (0, 1)).reshape(n, n, -1)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(slices.shape[2]) + 1j * rng.standard_normal(slices.shape[2])
        if _nonsingular(slices @ z):
            return "square_pencil"
    if len(r) != 3 or 2 not in r:
        return None
    a, b = np.moveaxis(c, r.index(2), 0)
    if a.shape[0] > a.shape[1]:
        a, b = a.T, b.T
    m, k = a.shape
    if m == k and m in (2, 3):
        ok = abs(_pencil_discriminant(a, b)) > PINV_CUTOFF
    else:
        ok = k == m + 1 and _nonsingular(_boundary_matrix(a, b))
    return "semistable" if ok else None


def _flattening_ranks(t: Tensor, legs: Sequence[int]) -> tuple[tuple[int, ...], str | None] | None:
    """The flattening ranks r_j of t and the rule of ``_semistability_rule``
    that proves its concise tensor semistable for the group of ``legs``
    (None if none does), or None when a rank is undecided (``_concise``).
    Rules (a), (c) and (d) prove semistability under the whole group, and
    so under the group of any legs (an invariant of the group is one of the
    subgroup); rule (b) only under the group of its two legs."""
    c = _concise(t)
    return None if c is None else (c.shape, _semistability_rule(c, legs))


@dataclass(frozen=True)
class MomentCertificate:
    """The minimum of a convex symmetric objective over a moment polytope,
    known without a descent: it lies in [value - gap, value], and
    ``witness`` (sorted non-increasing spectra, one per leg of the group)
    is a point at ``value``.  ``how`` is
    ``free_support``, ``semistable`` or ``square_pencil``; ``solve`` is the
    exact-support program behind a ``free_support`` certificate."""

    value: float
    gap: float
    witness: MarginalTuple
    how: str
    solve: SupportOptimum | None = None


def _moment_certificate(
    t: Tensor, objective, legs: Sequence[int], solve: SupportOptimum | None = None,
    flat: tuple[tuple[int, ...], str | None] | None = None,
) -> MomentCertificate | None:
    """min of a convex symmetric ``objective`` of the spectra over the moment
    polytope of t under the group of ``legs``, where one of two facts gives
    it without a descent; None elsewhere.

    * ``free_support``: the group is that of every leg and the exact
      support is free (``_is_free``).  The polytope then holds the
      marginals of every distribution on the support (Christandl, Vrana &
      Zuiddam, STOC 2018), and by the minimax formula no point below the
      support program, so the minimum is that program
      (``min_convex_over_support``), attained, within its certified gap.
    * ``semistable`` or ``square_pencil`` (``_flattening_ranks``): the point
      uniform on the first r_j coordinates of each leg, r_j the rank of
      flattening j, lies in the polytope (Kempf-Ness; Gurvits, JCSS 2004 for
      the square pencil, whose group is that of ``legs``).  Every spectrum
      there has at most r_j nonzeros, so it majorizes that point, and a
      convex symmetric objective is Schur-convex: the minimum is the
      objective at that point, exactly.  Undecided ranks give None.

    A caller that has solved the objective's program on the exact support
    passes it as ``solve``, with ``flat``, its ``_flattening_ranks(t, legs)``
    where that support is not free; no test is then made twice.  The group
    is that of every leg, of which the objective depends only on
    ``legs``, and the witness, a point of the objective's value that no
    group element need attain, is (1, 0, ...) on the legs that a
    ``square_pencil`` does not cover.
    """
    legs = list(legs)
    whole = solve is not None or len(legs) == t.order
    if solve is None:
        exact = support(t, 0.0) if whole else None
        if exact is not None and _is_free(exact.points):
            solve = min_convex_over_support(exact, objective)
        else:
            flat = _flattening_ranks(t, legs)
    elif not _is_free(solve.distribution.support.points):
        solve = None
    if solve is not None:
        witness = MarginalTuple(tuple(np.sort(p)[::-1] for p in solve.marginals.probs))
        return MomentCertificate(solve.value, solve.certified_gap, witness, "free_support", solve)
    if flat is None or flat[1] is None:
        return None
    ranks, rule = flat
    witness = MarginalTuple(tuple(
        np.r_[np.full(r, 1.0 / r), np.zeros(n - r)] if rule == "semistable" or j in legs
        else np.eye(n)[0]
        for j, (r, n) in enumerate(zip(ranks, t.dims)) if whole or j in legs))
    return MomentCertificate(objective.value(witness.probs), 0.0, witness, rule)


def _bracketed_scaling(
    t: Tensor, theta: ThetaWeights, *, inner_tol: float,
) -> tuple[FunctionalCertificate, SupportOptimum]:
    """The quantum functional's bracket: the upper end is the exact-support
    bound, capped by the rank maximum sum_j theta_j log2 r_j (every marginal
    in the orbit closure has rank at most r_j) where its ranks are decided
    and the support is not free (on a free support r_j is the number of
    coordinates the support takes on leg j, which the bound already
    respects).  The lower end is certified (``_moment_certificate`` on the
    legs of positive weight) unless the bound's solve missed its tolerance
    (certified gap above ``bracket_width(inner_tol)``) or the rank maximum
    exceeds the bound; a rule's lower end is the rank maximum itself, which
    the entropy at the witness matches only up to rounding.  Else it comes
    from a cold scaling run, with
    ``entropic_scaling``'s default residual rule, that stops once the
    bracket is ``bracket_width(inner_tol)`` wide.  Also returns the bound's
    solve."""
    hi, opt = exact_support_bound(t, theta, inner_tol)
    pos = np.flatnonzero(theta.values > 0)
    flat = None if _is_free(opt.distribution.support.points) else _flattening_ranks(t, pos)
    cert = _moment_certificate(t, NegWeightedEntropy(theta), pos, opt, flat)
    lo = -opt.value
    if flat is not None:
        lo = float(sum(w * np.log2(r) for w, r in zip(theta.values, flat[0])))
        cert, hi = cert if lo <= hi else None, min(hi, lo)
    if cert is None or opt.certified_gap > bracket_width(inner_tol):
        return entropic_scaling(t, theta, upper_bits=hi, width=bracket_width(inner_tol))[0], opt
    return FunctionalCertificate(value=float(2.0**lo), bits=lo, witness=cert.witness,
                                 theta=theta.values.copy(), bracket=(lo, hi),
                                 lower_end=cert.how), opt


def quantum_functional(
    t: Tensor,
    theta: ThetaWeights,
    *,
    inner_tol: float = 1e-8,
) -> FunctionalCertificate:
    """max of 2^(sum_j theta_j H(p_j)) over the marginal-spectra polytope of t.

    The value is at most the entropy program on the exact support of t
    (eta = 0, solved to ``inner_tol``) plus its certified gap, and at most
    the rank maximum sum_j theta_j log2 r_j over the flattening ranks r_j;
    the lesser is the upper end, the rank maximum taken off free supports
    where the ranks are decided (``_concise``).  Some inputs have a lower end known
    without scaling (``lower_end``): a free exact support, where the
    program's own value is attained (Christandl, Vrana & Zuiddam, STOC
    2018), and a concise tensor that one of ``_semistability_rule``'s
    invariants proves semistable, where the value is the rank maximum
    (``square_pencil`` for two legs of positive weight whose pencil of
    slices holds a nonsingular matrix, Gurvits, JCSS 2004; ``semistable``
    for a square flattening, Cayley's hyperdeterminant, the discriminant of
    a 3 x 3 x 2 pencil or a boundary-format hyperdeterminant).  Their
    witness is that point of the moment polytope, and ``group_factors`` is
    None.  Otherwise every scaling iterate bounds the value from below, and the
    run stops once the bracket is ``bracket_width(inner_tol)`` = 10
    inner_tol bits wide, else by the residual rule of ``entropic_scaling``
    (objective moves below 1e-10 bits over its window) or after 200,000
    iterations; ``bits`` is the last iterate, which the witness and group
    factors attain.  ``bracket`` holds (bits, upper end).
    """
    return _bracketed_scaling(t, theta, inner_tol=inner_tol)[0]


# ---------------------------------------------------------------------------
# basis search for the support side


def _eigenbasis_unitary(t: Tensor) -> GroupElement:
    """Per-leg marginal eigenbases; diagonalizes every quantum marginal."""
    factors = []
    for j in range(t.order):
        _, vec = _sorted_eigh(marginal(t, j))
        factors.append(vec.conj().T)
    return GroupElement(tuple(factors), unitary=True)


def _basis_search(
    candidates: Iterable[_C],
    score: Callable[[_C], tuple[float, _P]],
    stop: Callable[[float, _P], bool] | None = None,
) -> tuple[float, _C, _P, int]:
    """The least score over ``candidates``, drawn lazily: (value, candidate,
    payload, candidates scored), where ``score`` maps a candidate to (value,
    payload).  The first candidate is taken; a later one replaces the best
    only when its value is lower by more than 1e-15, so ties keep the
    earlier.  The scan ends after the first candidate at which
    ``stop(best value, best payload)`` holds.  A search that maximizes
    scores the negated value: -v < -b - 1e-15 is the same floating-point
    test as v > b + 1e-15.
    """
    best, best_c, best_p, scored = np.inf, None, None, 0
    for scored, c in enumerate(candidates, 1):
        v, p = score(c)
        if scored == 1 or v < best - 1e-15:
            best, best_c, best_p = v, c, p
        if stop is not None and stop(best, best_p):
            break
    return best, best_c, best_p, scored


def unitary_candidates(t: Tensor) -> Iterator[GroupElement]:
    """Yield the identity, then the marginal eigenbasis.

    No other basis is tried: every entry of u.t is a polynomial in u, so an
    entry that is nonzero at u = I is nonzero at almost every u, and a
    random basis only adds support points.  Every score of a basis search
    is monotone in the support, so such a basis never beats the identity.
    A lazy generator: a search that stops at the identity never computes
    the eigenbasis.
    """
    yield GroupElement.identity(t.dims)
    yield _eigenbasis_unitary(t)


def _support_score(t: Tensor, objective, cfg: SearchConfig, known: SupportOptimum | None):
    """The basis-search score of a basis change u: the negated value of the
    support program of u.t on its ``cfg.eta`` support, and the solve.  Each
    distinct support is solved once: a basis whose support an earlier one
    had takes that solve, and ``known``, a solve of the same program on some
    support, stands in for the solve of that support."""
    solves = {} if known is None else {known.distribution.support.points.tobytes(): known}

    def score(u: GroupElement) -> tuple[float, SupportOptimum]:
        s = support(apply_group(u, t), cfg.eta)
        key = s.points.tobytes()
        if key not in solves:
            solves[key] = min_convex_over_support(s, objective, tol=cfg.inner_tol)
        return -solves[key].value, solves[key]

    return score


def support_functional(
    t: Tensor,
    theta: ThetaWeights,
    cfg: SearchConfig | None = None,
    *,
    compute_gap: bool = True,
) -> FunctionalCertificate:
    """min over the identity and the marginal eigenbasis u of the entropy
    maximum on supp(u.t).

    Always an upper bound on the infimum over all bases.  The gap field
    reports (this value) - (quantum functional value); by the equality of
    the two functionals it should be nonnegative and small whenever the
    search found an optimal basis.  The bracketed scaling run of
    ``quantum_functional`` comes first: its value bounds every basis from
    below, so the search stops at the first basis within
    ``bracket_width(cfg.inner_tol)`` bits of it; ``bases_scored`` counts the
    bases drawn.  Ties keep the earlier basis.  ``bracket`` is the quantum
    side's (lo, hi), and ``lower_end`` says how lo was obtained: on a free
    exact support (Christandl, Vrana & Zuiddam, STOC 2018), a square pencil
    (Gurvits, JCSS 2004) or a semistable concise tensor (a nonzero
    invariant, ``_semistability_rule``) it is certified without a scaling
    run.  This value lies inside the bracket.  A candidate whose support is the exact
    one reuses the solve that gave hi.  ``compute_gap=False``
    skips the scaling run when the caller compares against its own quantum
    value; the search then scores both candidates.
    """
    cfg = cfg or SearchConfig()
    t.require_nonzero()
    if theta.d != t.order:
        raise InvalidArgumentError("one theta weight per leg required")

    q, exact = None, None
    if compute_gap:
        q, exact = _bracketed_scaling(t, theta, inner_tol=cfg.inner_tol)
    stop_bits = q.bits + bracket_width(cfg.inner_tol) if q is not None else -np.inf
    bits, best_u, best, scored = _basis_search(
        unitary_candidates(t),
        _support_score(t, NegWeightedEntropy(theta), cfg, exact),
        lambda b, _: b <= stop_bits,
    )
    value = float(2.0**bits)
    return FunctionalCertificate(
        value=value,
        bits=float(bits),
        witness=best.marginals,
        theta=theta.values.copy(),
        group_factors=tuple(best_u.factors),
        converged=q.converged if q is not None else True,
        gap=value - q.value if q is not None else None,
        bases_scored=scored,
        bracket=q.bracket if q is not None else None,
        lower_end=q.lower_end if q is not None else None,
    )


# ---------------------------------------------------------------------------
# generic descent over the moment polytope (convex symmetric objectives)


@dataclass(frozen=True)
class MomentDescentResult:
    value: float
    witness: MarginalTuple
    group_factors: tuple[np.ndarray, ...]
    iterations: int
    converged: bool
    stop: str  # why the descent stopped: "bracket", "tol", "stall" or "cap"


def _descent_bound(meets, guess: float) -> float:
    """The descent bound for a stop test ``meets(value)`` that holds at and
    below some value near ``guess``: ``guess``, lowered ulp by ulp until the
    test holds in floating point.  The test must be monotone (it holds below
    every value at which it holds), so any descent value at or below the
    bound passes the same test that the report applies."""
    while not meets(guess):
        guess = float(np.nextafter(guess, -np.inf))
    return guess


@np.errstate(all="ignore")  # a step that leaves no finite tensor is scored, not warned about
def minimize_over_moment_polytope(
    t: Tensor,
    objective,
    *,
    active_legs: Sequence[int] | None = None,
    max_iter: int = 4000,
    bound: float | None = None,
) -> MomentDescentResult:
    """Minimize a convex symmetric spectral function over marginal spectra
    reachable along the (active-leg) group orbit of t.

    Subgradient scaling: at each step the objective supplies a gradient per
    sorted spectrum; the step multiplies each active leg by
    exp(-eta/2 * U diag(grad) U^dag) with a backtracking line search on the
    smoothed objective.  Every iterate yields a feasible point, so the best
    exact value seen is reported.  With ``bound`` (a value that an
    independent route shows to be close enough to the minimum), the descent
    stops, converged, as soon as the best exact value is at or below it,
    the starting value included; ``iterations`` then counts the steps taken.
    Each sharpness level gets an equal share of ``max_iter`` and ends early
    after two steps in a row that find no descent.  ``stop`` is "bracket"
    for a met bound, "tol" for a flat tail (the last 60 exact values span
    less than 1e-8), and else "stall" when the last level ended early or
    "cap" when it used its whole share.
    """
    t.require_nonzero()
    legs = list(range(t.order)) if active_legs is None else list(active_legs)
    views = _LegViews(t.dims, legs)
    s = _arr_unit(t.entries)
    acc = views.identity()

    def sorted_spectra(x: np.ndarray) -> list[np.ndarray]:
        return [lam[::-1] for lam in views.per_leg(views.spectra(x)[0])]

    best_wit = sorted_spectra(s)
    best_val = objective.value(best_wit)
    best_acc = acc
    step, total, history = 1.0, 0, [best_val]
    iters_per = max_iter // len(SHARPNESS_SCHEDULE) + 1
    met = bound is not None and best_val <= bound

    for sharp in SHARPNESS_SCHEDULE:
        if met:
            break
        stall = 0
        for _ in range(iters_per):
            lam_stacks, vecs = views.spectra(s)
            lams = [lam[::-1] for lam in views.per_leg(lam_stacks)]
            exact = objective.value(lams)
            if exact < best_val - 1e-15:
                best_val, best_wit, best_acc = exact, lams, acc
            history.append(exact)
            met = bound is not None and best_val <= bound
            if met:
                break
            total += 1
            _, grads = objective.minorant(lams, sharp)
            # h_j = V diag(grad_j) V^dag is diagonal in the marginal eigenbasis,
            # so exp(-eta/2 h_j) = V diag(exp(-eta/2 grad_j)) V^dag; the gradients
            # follow the non-increasing spectra, the eigenpairs eigh's order
            grads = [np.stack([grads[i][::-1] for i in ix]) for ix in views.groups]
            sval = objective.smooth_value(lams, sharp)

            def candidate(eta: float):
                fs = [_spectral(vec, np.exp(-0.5 * eta * g)) for vec, g in zip(vecs, grads)]
                x = views.apply(s, fs)
                # a step that overflows, or underflows the whole tensor,
                # leaves no finite tensor and scores +inf: the line search
                # halves it and the doubling stops at it
                try:
                    v = objective.smooth_value(sorted_spectra(x), sharp)
                except np.linalg.LinAlgError:
                    v = np.inf
                return x, fs, v if math.isfinite(v) else np.inf

            eta = step
            x, fs, v = candidate(eta)
            while not v < sval - 1e-15 and eta > 1e-16:
                eta /= 2.0
                x, fs, v = candidate(eta)
            if not v < sval - 1e-15:
                stall += 1
                if stall >= 2:
                    break
                continue
            while eta < 1e8:
                x2, fs2, v2 = candidate(2.0 * eta)
                if v2 < v - 1e-15:
                    eta, x, fs, v = 2.0 * eta, x2, fs2, v2
                else:
                    break
            step = eta
            s = x
            acc = views.accumulate(acc, fs)
            stall = 0

    tail = history[-60:]
    converged = met or len(history) >= 60 and max(tail) - min(tail) < 1e-8
    return MomentDescentResult(
        value=float(best_val),
        witness=MarginalTuple(tuple(w / w.sum() for w in best_wit)),
        group_factors=tuple(f / np.linalg.norm(f, 2) for f in views.per_leg(best_acc)),
        iterations=total,
        converged=bool(converged),
        stop="bracket" if met else "tol" if converged else "stall" if stall >= 2 else "cap",
    )


# ---------------------------------------------------------------------------
# the symmetric functional (one group element acting on every leg)


def symmetric_quantum_functional(t: Tensor) -> FunctionalCertificate:
    """max of 2^(H(p/d)) over spectra p of the summed marginal along the
    single-factor orbit g^(x d) . t; all leg dimensions must agree.

    The scaling update applies (mu/d)^(-1/(2d)) with mu the sum of the
    quantum marginals; unit tensors are fixed points with value equal to
    their diagonal size.  The run stops, converged, once the entropy moves
    less than 1e-10 bits over 50 iterations and the spectrum less than 1e-8,
    else after 200,000 iterations; the value is the last iterate's.
    """
    t.require_nonzero()
    d, n = t.order, t.dims[0]
    if any(m != n for m in t.dims):
        raise InvalidArgumentError(f"symmetric functional needs equal dims, got {t.dims}")
    views = _LegViews(t.dims, range(d))
    s = _arr_unit(t.entries)
    acc = np.eye(n, dtype=complex)
    bits_seq: list[float] = []
    prev_lam, converged = None, False

    for it in range(200_001):
        lam, vec = _sorted_eigh(views.summed_marginal(s))
        lam = np.clip(lam, 0.0, None)
        p = lam / d
        bits = shannon_entropy(p / p.sum() if abs(p.sum() - 1) > 1e-13 else p)
        bits_seq.append(bits)
        move = np.abs(lam - prev_lam).max() if prev_lam is not None else np.inf
        if len(bits_seq) > 50:
            if abs(bits_seq[-1] - bits_seq[-51]) < 1e-10 and move < 1e-8:
                converged = True
                break
        if it == 200_000:
            break
        prev_lam = lam
        rho = lam / d
        cut = PINV_CUTOFF * rho[0]
        powed = np.where(rho > cut, np.power(np.maximum(rho, cut), -1.0 / (2.0 * d)), 0.0)
        g = (vec * powed) @ vec.conj().T
        s = views.apply(s, [np.broadcast_to(g, (d, n, n))])
        acc = g @ acc
        acc /= np.abs(acc).max()

    p = lam / lam.sum()  # every exit of the loop has just taken the final s's spectrum
    bits = shannon_entropy(p)
    return FunctionalCertificate(
        value=float(2.0**bits),
        bits=float(bits),
        witness=MarginalTuple((p,)),
        theta=None,
        group_factors=(acc / np.linalg.norm(acc, 2),),
        converged=converged,
        gap=None,
    )


def symmetric_support_functional(
    t: Tensor,
    cfg: SearchConfig | None = None,
) -> FunctionalCertificate:
    """min over single unitaries u (acting on every leg) of the max of
    2^(H(q/d)) over the support of u^(x d) . t, where q sums the per-leg
    marginals.  The support-side counterpart of the symmetric functional.

    The candidates are the identity and the eigenbasis of the summed
    marginal; both are scored, and ``bases_scored`` counts them."""
    cfg = cfg or SearchConfig()
    t.require_nonzero()
    d = t.order
    n = t.dims[0]
    if any(m != n for m in t.dims):
        raise InvalidArgumentError(f"symmetric functional needs equal dims, got {t.dims}")

    _, vec = _sorted_eigh(_LegViews(t.dims, range(d)).summed_marginal(t.entries))
    singles = [np.eye(n, dtype=complex), vec.conj().T]
    score = _support_score(t, NegSummedEntropy(d), cfg, None)
    bits, u, opt, scored = _basis_search(singles, lambda u: score(GroupElement((u,) * d)))
    return FunctionalCertificate(
        value=float(2.0**bits),
        bits=float(bits),
        witness=opt.marginals,
        theta=None,
        group_factors=(u,),
        converged=opt.certified_gap <= max(cfg.inner_tol * 10, 1e-6),
        gap=None,
        bases_scored=scored,
    )


# ---------------------------------------------------------------------------
# the generic minimax check


@dataclass(frozen=True)
class MinimaxReport:
    lhs: float
    rhs: float
    gap: float
    lhs_certificate: FunctionalCertificate
    rhs_certificate: FunctionalCertificate
    converged: bool
    bases_scored: int | None = None  # candidates scored on the support side


def _minimax_sides(
    t: Tensor, objective, cfg: SearchConfig, close: Callable[[float, float], bool],
    guess: Callable[[float], float | None], *, max_iter: int = 4000,
) -> tuple[MomentCertificate | MomentDescentResult, tuple]:
    """Both sides of the minimax formula for a convex symmetric objective
    that is not an entropy: the least value over the moment polytope of t
    (a certificate or a descent), and the greatest support program over
    ``unitary_candidates`` (``_support_score``'s basis search).

    ``close(value, floor)``, which holds at and below some value, says when
    a moment value is near enough to floor, a support program's value less
    its certified gap: a lower end of the minimum.  Where
    ``_moment_certificate`` applies, the search stops at the first basis
    whose floor its value is close to.  Elsewhere every basis is scored,
    then a descent of at most ``max_iter`` steps runs to the bound
    ``_descent_bound`` finds from ``guess(floor)`` of the best basis (no
    bound where that is None).
    """
    cert = _moment_certificate(t, objective, range(t.order))
    score = _support_score(t, objective, cfg, cert.solve if cert is not None else None)
    if cert is not None:
        return cert, _basis_search(unitary_candidates(t), score,
                                   lambda neg, opt: close(cert.value, -neg - opt.certified_gap))
    search = _basis_search(unitary_candidates(t), score)
    neg, _, opt, _ = search
    floor = -neg - opt.certified_gap
    reach = guess(floor)
    bound = None if reach is None else _descent_bound(lambda v: close(v, floor), reach)
    return minimize_over_moment_polytope(t, objective, max_iter=max_iter, bound=bound), search


def minimax_gap(
    t: Tensor,
    objective,
    cfg: SearchConfig | None = None,
) -> MinimaxReport:
    """Compare min of a convex symmetric F over marginal spectra along the
    orbit (lhs) with the max over the identity and the marginal eigenbasis
    of the min of F over the rotated support polytope (rhs).

    The two agree in exact arithmetic; ``gap = lhs - rhs`` is reported
    signed.  The lhs bounds the true value from above and (rhs - its
    certified gap) from below: a bracket closed to max(10 inner_tol, 1e-6)
    reports ``converged=True``, an open one the lhs solver's own flag.

    For a negated weighted entropy the lhs is the bracket of
    ``quantum_functional``: a certified lower end on a free exact support
    (Christandl, Vrana & Zuiddam, STOC 2018), a square pencil (Gurvits,
    JCSS 2004) or a semistable concise tensor, else a scaling run stopped
    once its iterate is within ``bracket_width(cfg.inner_tol)`` bits of the
    upper end; so the lhs may sit that far above the true value, and the
    basis search stops at the first basis within that slack.
    ``lhs_certificate.bracket`` holds (lo, hi) in bits of F_theta(t), and a
    candidate whose support is the exact one reuses the solve that gave hi.

    Any other F goes through ``_minimax_sides``, which ``g_stable_rank``
    also calls, with the closed test as its close test.  Where
    ``_moment_certificate`` applies the lhs is certified without a descent
    (``lhs_certificate.lower_end`` names the certificate): the support
    program on a free exact support, whose solve a candidate of that
    support reuses, or F at the point uniform on the flattening ranks of a
    semistable concise tensor.  Elsewhere every basis is scored first, then
    the descent stops as soon as it passes the closed test against the best.
    """
    cfg = cfg or SearchConfig()
    t.require_nonzero()
    closed_tol = max(cfg.inner_tol * 10, 1e-6)

    if isinstance(objective, NegWeightedEntropy):
        q, known = _bracketed_scaling(t, ThetaWeights.theta(objective.theta),
                                      inner_tol=cfg.inner_tol)
        lhs = -q.bits
        lhs_cert = replace(q, value=lhs, bits=lhs)
        search = _basis_search(
            unitary_candidates(t), _support_score(t, objective, cfg, known),
            lambda neg, opt: -neg - opt.certified_gap >= lhs - bracket_width(cfg.inner_tol))
    else:
        res, search = _minimax_sides(t, objective, cfg, lambda v, floor: v - floor <= closed_tol,
                                     lambda floor: floor + closed_tol)
        lhs, descent = res.value, isinstance(res, MomentDescentResult)
        lhs_cert = FunctionalCertificate(
            value=lhs, bits=float("nan"), witness=res.witness,
            group_factors=res.group_factors if descent else None,
            converged=not descent or res.converged, lower_end=None if descent else res.how)

    neg_rhs, best_u, rhs_opt, scored = search
    rhs = -neg_rhs
    rhs_cert = FunctionalCertificate(
        value=float(rhs),
        bits=float("nan"),
        witness=rhs_opt.marginals,
        group_factors=tuple(best_u.factors),
        converged=rhs_opt.certified_gap <= closed_tol,
    )
    closed = lhs - (rhs - rhs_opt.certified_gap) <= closed_tol
    return MinimaxReport(
        lhs=float(lhs),
        rhs=float(rhs),
        gap=float(lhs - rhs),
        lhs_certificate=lhs_cert,
        rhs_certificate=rhs_cert,
        converged=bool(closed or lhs_cert.converged),
        bases_scored=scored,
    )
