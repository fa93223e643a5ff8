"""Convex programs over the distributions carried by a support set.

Every quantity of interest here is an optimum of a convex (or concave)
symmetric function of the per-leg marginals of a joint distribution on a
support set, and ``min_convex_over_support`` has one exact solver for each:

* the entropy objectives: active-set Newton on the KKT system of a face of
  the weight simplex, from the uniform weights (or, within the max-min
  program, from the previous oracle's optimum).  The affine minorant at the
  final weights bounds the distance to the optimum (``certified_gap``),
  pricing coordinates without mass by the entropy's convex conjugate;
* ``MaxInfNorm`` and ``L1FromUniform``: one LP each, solved in slack form by
  ``linprog.slack_simplex``, whose duality gap is the certified gap.

The max-min entropy behind the asymptotic cover (and behind the slice
rank on a free support) is, by minimax, the least weighted-entropy maximum
phi(theta) over entropy weights theta.  Cutting
planes over them, with the Newton solve as the oracle and the master LPs
(``kelley_master``) solved by the same simplex, close a bracket on it.  phi
is smooth at theta > 0: its gradient is the oracle's leg entropies and its
Hessian comes from the oracle's KKT system, so the next theta is a damped
Newton step wherever the latest oracle lowered phi, and the master's theta
(Kelley's) otherwise.  The nonsmooth objectives also offer softmax
minorants and smoothed values for the moment-side descent in
``functionals``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linprog import LpSolution, slack_simplex
from .tensors import InvalidArgumentError, SupportSet

LN2 = float(np.log(2.0))

#: sharpness continuation of the moment descent for the inf-norm and l1 objectives
SHARPNESS_SCHEDULE = (16.0, 128.0, 1024.0, 8192.0, 65536.0, 2.0**19, 2.0**22)

#: the entropy terms -c H(m) of an entropy objective, as (c, legs): the mass m
#: is the mean of the marginals p_j over the legs
EntropyTerms = list[tuple[float, tuple[int, ...]]]


def shannon_entropy(p: np.ndarray) -> float:
    """Base-2 Shannon entropy with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    pos = p[p > 0]
    return float(-(pos * np.log2(pos)).sum())


@dataclass(frozen=True)
class ThetaWeights:
    """A per-leg weight vector tagged by the role it plays.

    role "theta": probability vector (entropy weights);
    role "xi":    nonnegative, max entry 1 (cover/slice-rank weights);
    role "alpha": strictly positive (fractional cover weights).
    """

    values: np.ndarray
    role: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidArgumentError("weights must be a nonempty vector")
        if self.role == "theta":
            if np.any(v < -1e-14) or abs(v.sum() - 1.0) > 1e-9:
                raise InvalidArgumentError(f"not a probability vector: {v}")
            v = np.clip(v, 0.0, None)
            v = v / v.sum()
        elif self.role == "xi":
            if np.any(v < -1e-14) or abs(v.max() - 1.0) > 1e-9:
                raise InvalidArgumentError(f"xi weights need max entry 1: {v}")
            v = np.clip(v, 0.0, None)
        elif self.role == "alpha":
            if np.any(v <= 0):
                raise InvalidArgumentError(f"alpha weights must be positive: {v}")
        else:
            raise InvalidArgumentError(f"unknown weight role {self.role!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.size

    @staticmethod
    def theta(values: Sequence[float]) -> "ThetaWeights":
        return ThetaWeights(np.asarray(values, dtype=float), "theta")

    @staticmethod
    def uniform(d: int) -> "ThetaWeights":
        return ThetaWeights(np.full(d, 1.0 / d), "theta")

    @staticmethod
    def xi(values: Sequence[float]) -> "ThetaWeights":
        return ThetaWeights(np.asarray(values, dtype=float), "xi")

    @staticmethod
    def alpha(values: Sequence[float]) -> "ThetaWeights":
        return ThetaWeights(np.asarray(values, dtype=float), "alpha")


@dataclass(frozen=True)
class MarginalTuple:
    """Per-leg probability vectors (p_1, ..., p_d)."""

    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        cleaned = []
        for j, p in enumerate(self.probs):
            q = np.asarray(p, dtype=float)
            if np.any(q < -1e-12) or abs(q.sum() - 1.0) > 1e-9:
                raise InvalidArgumentError(f"leg {j} is not a probability vector: {q}")
            q = np.clip(q, 0.0, None)
            q.setflags(write=False)
            cleaned.append(q)
        object.__setattr__(self, "probs", tuple(cleaned))

    @property
    def d(self) -> int:
        return len(self.probs)

    def entropies(self) -> np.ndarray:
        return np.array([shannon_entropy(p) for p in self.probs])


@dataclass(frozen=True)
class JointDistribution:
    """Probability weights on the points of a support set."""

    support: SupportSet
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.support.size,):
            raise InvalidArgumentError("one weight per support point required")
        if np.any(w < -1e-12):
            raise InvalidArgumentError("negative weight in joint distribution")
        w = np.clip(w, 0.0, None)
        if abs(w.sum() - 1.0) > 1e-9:
            raise InvalidArgumentError(f"weights sum to {w.sum()}, not 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def uniform(support: SupportSet) -> "JointDistribution":
        return JointDistribution(support, np.full(support.size, 1.0 / support.size))


def marginals_of(dist: JointDistribution) -> MarginalTuple:
    """Push the joint weights down to the d per-leg marginals."""
    s = dist.support
    probs = []
    for j in range(s.order):
        probs.append(np.bincount(s.points[:, j], weights=dist.weights, minlength=s.dims[j]))
    return MarginalTuple(tuple(probs))


# ---------------------------------------------------------------------------
# convex objectives on marginal tuples


def _entropy_grad(p: np.ndarray) -> np.ndarray:
    """Gradient of the base-2 entropy, with zero coordinates mapped to 0.

    The true one-sided derivative at a zero coordinate is +inf.  A zero
    coordinate that no support point reaches stays zero at every feasible
    point, so the affine minorant is unaffected.  One that a point of weight
    0 reaches is not: ``_zero_mass`` prices a finite slope there by
    ``_entropy_conjugate``.
    """
    g = np.zeros_like(p)
    pos = p > 0
    g[pos] = -np.log2(p[pos]) - 1.0 / LN2
    return g


def _entropy_conjugate(c: float, slope: float) -> float:
    """Least b with slope * q - b <= c q log2 q for all q >= 0 (c > 0).

    The conjugate of an entropy term -c H at one coordinate: it prices a
    finite slope at a coordinate without mass, where the true slope is -inf.
    """
    with np.errstate(over="ignore"):
        return float(c * np.exp2(slope / c - 1.0 / LN2) / LN2)


def _softmax_weights(x: np.ndarray, sharp: float) -> np.ndarray:
    z = sharp * (x - x.max())
    w = np.exp(z * LN2)
    return w / w.sum()


class _EntropyObjective:
    """F(p) = -sum of c H(m) over the entropy ``terms`` (c, legs), with m the
    mean of the marginals p_j over the term's legs.  Smooth and convex."""

    terms: EntropyTerms

    def value(self, p: Sequence[np.ndarray]) -> float:
        return float(-sum(
            c * shannon_entropy(sum(p[j] for j in legs) / len(legs))
            for c, legs in self.terms if c > 0
        ))

    def minorant(self, p: Sequence[np.ndarray]):
        """The value and the per-leg gradient in marginal space."""
        grads = [np.zeros_like(np.asarray(pj, dtype=float)) for pj in p]
        for c, legs in self.terms:
            if c > 0:
                g = -c * _entropy_grad(sum(p[j] for j in legs) / len(legs)) / len(legs)
                for j in legs:
                    grads[j] = grads[j] + g
        return self.value(p), grads


class NegWeightedEntropy(_EntropyObjective):
    """F(p) = -sum_j theta_j H(p_j), in bits: one term (theta_j, (j,)) per leg."""

    def __init__(self, theta: ThetaWeights):
        if theta.role != "theta":
            raise InvalidArgumentError("entropy weights must have role 'theta'")
        self.theta = theta.values
        self.terms = [(float(th), (j,)) for j, th in enumerate(self.theta)]


class NegSummedEntropy(_EntropyObjective):
    """F(p) = -H((p_1 + ... + p_d) / d); needs equal leg dimensions.

    The support-side objective of the symmetric functional: the summed
    marginal, rescaled to a distribution, replaces the per-leg tuple.
    """

    def __init__(self, d: int):
        self.d = d
        self.terms = [(1.0, tuple(range(d)))]


class MaxInfNorm:
    """F(p) = max_j ||p_j||_inf / alpha_j.  Piecewise linear and convex."""

    def __init__(self, alpha: ThetaWeights):
        if alpha.role != "alpha":
            raise InvalidArgumentError("inf-norm weights must have role 'alpha'")
        self.alpha = alpha.values

    def _pieces(self, p: Sequence[np.ndarray]):
        vals, coords = [], []
        for j, pj in enumerate(p):
            for ell in range(pj.size):
                vals.append(pj[ell] / self.alpha[j])
                coords.append((j, ell))
        return np.array(vals), coords

    def value(self, p: Sequence[np.ndarray]) -> float:
        return float(max(pj.max() / a for pj, a in zip(p, self.alpha)))

    def minorant(self, p: Sequence[np.ndarray], sharp: float):
        vals, coords = self._pieces(p)
        s = _softmax_weights(vals, sharp)
        grads = [np.zeros_like(np.asarray(pj, dtype=float)) for pj in p]
        for w_i, (j, ell) in zip(s, coords):
            grads[j][ell] += w_i / self.alpha[j]
        return float(s @ vals), grads

    def smooth_value(self, p: Sequence[np.ndarray], sharp: float) -> float:
        vals, _ = self._pieces(p)
        m = vals.max()
        return float(m + np.log2(np.exp(sharp * (vals - m) * LN2).sum()) / sharp)


class L1FromUniform:
    """F(p) = sum_j || p_j - uniform_j ||_1.  Convex, nonsmooth at zeros."""

    def value(self, p: Sequence[np.ndarray]) -> float:
        return float(sum(np.abs(pj - 1.0 / pj.size).sum() for pj in p))

    def minorant(self, p: Sequence[np.ndarray], sharp: float):
        delta = 1.0 / sharp
        val = 0.0
        grads = []
        for pj in p:
            x = pj - 1.0 / pj.size
            r = np.sqrt(x * x + delta * delta)
            g = x / r
            val += float((x * g).sum())  # sum of |x|-minorants g*x with |g| <= 1
            grads.append(g)
        return val, grads

    def smooth_value(self, p: Sequence[np.ndarray], sharp: float) -> float:
        delta = 1.0 / sharp
        return float(sum(np.sqrt((pj - 1.0 / pj.size) ** 2 + delta * delta).sum() for pj in p))


# ---------------------------------------------------------------------------
# the solvers


#: active-set Newton stops here if the certified gap is still above tol
NEWTON_MAX_STEPS = 200


@dataclass(frozen=True)
class SupportOptimum:
    """An optimum over a support polytope: the value at ``distribution`` and
    a rigorous bound ``certified_gap`` on its distance to the true optimum.

    ``iterations`` counts the work done: Newton steps, LP iterations, or the
    oracle solves of a cutting-plane program.
    """

    value: float
    marginals: MarginalTuple
    distribution: JointDistribution
    certified_gap: float
    iterations: int


class _SupportProgram:
    def __init__(self, support: SupportSet):
        self.support = support
        self.leg_index = [support.points[:, j] for j in range(support.order)]
        self.dims = support.dims

    def marginals(self, w: np.ndarray) -> list[np.ndarray]:
        return [
            np.bincount(idx, weights=w, minlength=n)
            for idx, n in zip(self.leg_index, self.dims)
        ]

    def chain(self, grads: Sequence[np.ndarray]) -> np.ndarray:
        """Pull a marginal-space gradient back to the weight simplex."""
        g = np.zeros(self.support.size)
        for j, gj in enumerate(grads):
            g += gj[self.leg_index[j]]
        return g


def _zero_mass(
    prog: _SupportProgram, objective: _EntropyObjective, p: Sequence[np.ndarray], g: np.ndarray
) -> tuple[np.ndarray, float]:
    """Points that reach a coordinate without mass, and what certifying them
    costs.

    Each term -c H(m) of the objective has a mass m, the mean of p_j over
    the term's legs: one leg for the weighted entropy, all legs for the
    summed one.  The entropy's slope at a coordinate of m without mass is
    unbounded, so ``g`` (0 there) is no subgradient.  The minorant instead
    takes there the finite slope that lifts every point reaching it to the
    cheapest other point, and pays the conjugate offset for it
    (Fenchel-Young).  A point reaches a coordinate once per leg of the term
    that lands on it, and each time gains the slope over the number of legs.
    """
    terms = [(c, legs) for c, legs in objective.terms if c > 0]
    zeros = [sum(p[j] for j in legs) == 0 for _, legs in terms]
    hits = np.zeros(g.size, dtype=int)
    for zero, (_, legs) in zip(zeros, terms):
        for j in legs:
            hits += zero[prog.leg_index[j]]
    blocked = hits > 0
    offset = 0.0
    if blocked.any():
        lift = (g[~blocked].min() - g) / np.maximum(hits, 1)
        for zero, (c, legs) in zip(zeros, terms):
            for ell in np.flatnonzero(zero):
                on = np.any([prog.leg_index[j] == ell for j in legs], axis=0)
                if on.any():
                    offset += _entropy_conjugate(c, len(legs) * float(lift[on].max()))
    return blocked, offset


def _assess(
    prog: _SupportProgram, objective: _EntropyObjective, wvec: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """Exact value, rigorous optimality gap, and pulled-back gradient.

    The gap comes from the affine minorant:
    F(w*) >= F(w) + g.(w* - w) >= F(w) + min(g) - g.w,
    with coordinates without mass priced by ``_zero_mass``.
    """
    p = prog.marginals(wvec)
    exact, grads = objective.minorant(p)
    g = prog.chain(grads)
    low, offset = float(g.min()), 0.0
    if not wvec.all():
        blocked, offset = _zero_mass(prog, objective, p, g)
        low = float(g[~blocked].min())
    return exact, offset + float(g @ wvec) - low, g


def _hessian(
    prog: _SupportProgram, objective: _EntropyObjective, p: Sequence[np.ndarray], pts: np.ndarray
) -> np.ndarray:
    """The Hessian of the objective in the weights of the points ``pts``.

    A term -c H(m) over L legs adds c / (L^2 ln 2) sum_{j,k} [a_j = b_k] / m[a_j]
    between points a and b, summed over the legs j, k of the term.  The
    points of ``pts`` carry weight, so coordinates without mass are reached
    by none of them and are left out.
    """
    hess = np.zeros((pts.size, pts.size))
    rows = np.arange(pts.size)
    for c, legs in objective.terms:
        if c > 0:
            m = sum(p[j] for j in legs) / len(legs)
            hits = np.zeros((pts.size, m.size))
            for j in legs:
                np.add.at(hits, (rows, prog.leg_index[j][pts]), 1.0)
            on = m > 0
            hess += c / (len(legs) ** 2 * LN2) * (hits[:, on] / m[on]) @ hits[:, on].T
    return hess


def _face_kkt_solve(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with [[hess, 1], [1^T, 0]] [X; mu] = [rhs; 0]: the KKT system of a
    face of the weight simplex, for each column of ``rhs``.  The Hessian is
    singular when the face has more points than marginal coordinates, so
    the solve is least squares on the Jacobi-scaled system."""
    k = hess.shape[0]
    sc = 1.0 / np.sqrt(np.diag(hess))
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = hess * np.outer(sc, sc)
    kkt[:k, k] = kkt[k, :k] = sc
    b = np.vstack([rhs * sc[:, None], np.zeros((1, rhs.shape[1]))])
    return np.linalg.lstsq(kkt, b, rcond=None)[0][:k] * sc[:, None]


def _newton(
    prog: _SupportProgram,
    objective: _EntropyObjective,
    tol: float,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int]:
    """Active-set Newton on the KKT system of a face of the weight simplex
    (Boyd & Vandenberghe, Convex Optimization, 10.2), from ``start`` (weights
    on the simplex) or else from the uniform weights.

    The certified gap is the spread of g over the face, plus the deficit of
    the cheapest point outside it, plus the offset paid for points on
    coordinates without mass.  Each step works on the largest part: a damped
    Newton step within the face (points whose weight reaches 0 leave it), or
    re-admitting the cheapest outside point, which also restores weights
    that are exactly 0.  Returns the weights, their gap and the step count.
    """
    m = prog.support.size
    y = np.full(m, 1.0 / m) if start is None else start
    exact, gap, g = _assess(prog, objective, y)
    steps = 0
    while gap > tol and steps < NEWTON_MAX_STEPS:
        steps += 1
        slack = 1e-15 * max(1.0, abs(exact))
        p_y = prog.marginals(y)
        face = y > 0
        blocked, offset = _zero_mass(prog, objective, p_y, g)
        face_min = float(g[face].min())
        spread = float(g @ y) - face_min
        free = ~face & ~blocked
        deficit = face_min - float(g[free].min()) if free.any() else 0.0
        if max(offset, deficit) > spread:
            i = int(np.argmin(np.where(blocked if offset > deficit else free, g, np.inf)))

            # the step along e_i - y where the slope g_z . (e_i - y) turns
            # nonnegative, bisected over its exponent: on a coordinate
            # without mass the optimal weight can lie far below 1e-100
            def along(e2: int):
                z = (1.0 - 2.0**e2) * y
                z[i] += 2.0**e2
                ez, gz, g_z = _assess(prog, objective, z)
                return z, ez, gz, g_z, bool(g_z[i] > g_z @ y)

            lo, hi = -1022, -1
            z, ez, gz, g_z, past_min = along(hi)
            while past_min and hi - lo > 1:
                mid = (lo + hi) // 2
                trial = along(mid)
                if trial[4]:
                    hi, (z, ez, gz, g_z, _) = mid, trial
                else:
                    lo = mid
            if ez > exact + slack:
                break
        else:
            pts = np.flatnonzero(face)
            # g is shifted by its face minimum, which leaves d unchanged
            # (sum d = 0) but keeps the slope from cancelling out near 0
            g_face = g[pts] - face_min
            d = _face_kkt_solve(_hessian(prog, objective, p_y, pts), -g_face[:, None])[:, 0]
            slope = float(g_face @ d)
            if not slope < 0:
                break
            neg = np.flatnonzero(d < 0)
            ratios = -y[pts[neg]] / d[neg]
            t_max = float(ratios.min()) if neg.size else np.inf
            # the full step, clipped to the simplex, may drop several points
            # at once; failing that, the step to the first point to drop
            t = 1.0
            for _ in range(40):
                z = y.copy()
                z[pts] += t * d
                if t == t_max:
                    z[pts[neg[ratios.argmin()]]] = 0.0
                z = np.clip(z, 0.0, None)
                z = z / z.sum()
                ez, gz, g_z = _assess(prog, objective, z)
                if ez <= exact + 0.25 * t * slope + slack:
                    break
                t = t_max if t > t_max else t / 2.0
            else:
                break
        y, exact, gap, g = z, ez, gz, g_z
    return y, gap, steps


def _lp(prog: _SupportProgram, objective) -> tuple[np.ndarray, float, int]:
    """The inf-norm or l1 program through its LP dual, solved by ``slack_simplex``.

    Both minima equal max t subject to t <= (M^T z)_i at every point i, for
    z >= 0 in a set Z: M is the incidence matrix of the points over the
    stacked marginal coordinates divided by alpha, with 1.z <= 1 (inf-norm),
    or minus the uniform marginals, with z <= 2 (l1).  Every z in Z bounds
    the minimum from below by min_i (M^T z)_i, and the duals of the point
    rows are optimal weights.  Returns the weights, their gap to that bound
    and the pivot count.
    """
    a = np.vstack([np.eye(n)[idx].T for idx, n in zip(prog.leg_index, prog.dims)])
    m, rows = prog.support.size, a.shape[0]
    if isinstance(objective, MaxInfNorm):
        mat, cap, top = a / np.repeat(objective.alpha, prog.dims)[:, None], np.ones((1, rows)), 1.0
    else:
        u = np.concatenate([np.full(n, 1.0 / n) for n in prog.dims])
        mat, cap, top = a - u[:, None], np.eye(rows), 2.0
    g = np.block([[-mat.T, np.ones((m, 1))], [cap, np.zeros((cap.shape[0], 1))]])
    h = np.append(np.zeros(m), np.full(cap.shape[0], top))
    z, y, pivots = slack_simplex(np.eye(rows + 1)[-1], g, h)
    z = np.clip(z[:-1], 0.0, None)
    z = z / max(1.0, float((cap @ z).max()) / top)  # back into Z, against rounding
    w = np.clip(y[:m], 0.0, None)
    w = w / w.sum()
    return w, max(0.0, objective.value(prog.marginals(w)) - float((mat.T @ z).min())), pivots


def min_convex_over_support(
    support: SupportSet,
    objective,
    *,
    tol: float = 1e-7,
) -> SupportOptimum:
    """Minimize a convex symmetric function of the marginals over all joint
    distributions on the support set.

    The entropy objectives go to ``_newton``, which stops once
    ``certified_gap <= tol`` or after NEWTON_MAX_STEPS steps, and the
    inf-norm and l1 objectives to one LP (``_lp``).  Any other objective
    raises ``InvalidArgumentError``.
    """
    if support.size == 0:
        raise InvalidArgumentError("empty support")
    prog = _SupportProgram(support)
    if isinstance(objective, _EntropyObjective):
        w, gap, iterations = _newton(prog, objective, tol)
    elif isinstance(objective, (MaxInfNorm, L1FromUniform)):
        w, gap, iterations = _lp(prog, objective)
    else:
        raise InvalidArgumentError(f"no support-side solver for {type(objective).__name__}")
    dist = JointDistribution(support, w)
    p = marginals_of(dist)
    return SupportOptimum(objective.value(p.probs), p, dist, float(gap), int(iterations))


# ---------------------------------------------------------------------------
# the named entropy programs


#: the max-min program stops once its bracket is tol wide, or at this many
#: oracle solves; the Kelley loop of the slice-rank theta route
#: (``ranks._slice_rank_theta_route``) stops at this many cuts
MAX_MIN_CUTS = 60

#: each max-min oracle after the first starts from the previous oracle's
#: optimum blended this far toward the uniform weights
WARM_START_BLEND = 1e-6

#: a Newton step of the max-min program that would leave theta >= 0 stops
#: this far along its way to the boundary
THETA_STEP_TO_BOUNDARY = 0.9


def kelley_master(cuts: np.ndarray, xi: np.ndarray) -> LpSolution:
    """The master LP of Kelley's cutting planes over entropy weights:
    min z subject to z >= <theta, h_k> for every cut h_k (a row of ``cuts``),
    theta >= 0 and <theta, xi> = 1 (xi > 0).  ``x`` is (theta, z); ``y`` is
    the dual solution (y_1, ..., y_n, mu): the cut weights, then the dual of
    <theta, xi> = 1, which is ``value``.

    ``slack_simplex`` solves the dual, max mu subject to
    mu xi_j - sum_k y_k h_kj <= 0 on every leg, sum_k y_k <= 1 and y, mu >= 0,
    whose right-hand side (0, ..., 0, 1) makes the slack basis feasible.  Its
    row duals are (theta, z), with <theta, xi> >= 1; the entropies are
    nonnegative, so scaling theta down to <theta, xi> = 1 keeps it optimal.
    ``value`` is the simplex's mu, which is not checked against the dual
    constraints, so rounding can put it above the master's optimum.  A lower
    end that holds whatever the rounding is min_j (y.h)_j / xi_j with the
    cut weights clipped at 0 and divided by max(1, sum_k y_k).
    """
    n = len(cuts)
    g = np.block([[-cuts.T, xi[:, None]], [np.ones((1, n)), np.zeros((1, 1))]])
    x, duals, pivots = slack_simplex(np.eye(n + 1)[-1], g, np.eye(xi.size + 1)[-1])
    theta = np.clip(duals[:-1], 0.0, None)
    theta /= float(theta @ xi)
    z = float((cuts @ theta).max())
    return LpSolution(value=float(x[-1]), x=np.append(theta, z), y=x, iterations=pivots)


def _phi_hessian(
    prog: _SupportProgram, objective: NegWeightedEntropy, w: np.ndarray, scale: float,
    legs: np.ndarray,
) -> np.ndarray:
    """The Hessian of phi(theta) = max_P sum_j theta_j H_j(P) on the legs
    ``legs``, at theta = scale * (the weights of ``objective``), where ``w``
    maximizes ``objective``.

    phi's gradient is the leg entropies h at the optimum (Danskin), so its
    Hessian is dh/dtheta = A X, by implicit differentiation of the oracle's
    KKT system on the face of w: with M the Hessian of -sum_j theta_j H_j
    in the weights of the face (``_hessian`` times ``scale``) and A the rows
    dH_j/dw there, X solves [[M, 1], [1^T, 0]] X = [A^T; 0]
    (``_face_kkt_solve``).
    """
    pts = np.flatnonzero(w > 0)
    p = prog.marginals(w)
    a = np.array([_entropy_grad(p[j])[prog.leg_index[j][pts]] for j in legs])
    curv = a @ _face_kkt_solve(scale * _hessian(prog, objective, p, pts), a.T)
    return (curv + curv.T) / 2.0


def _theta_newton_step(
    prog: _SupportProgram,
    objective: NegWeightedEntropy,
    w: np.ndarray,
    point: np.ndarray,
    h: np.ndarray,
    xi: np.ndarray,
    legs: np.ndarray,
) -> np.ndarray | None:
    """A damped Newton step for phi over theta >= 0 with <theta, xi> = 1
    from ``point``, where ``w`` maximizes ``objective`` (the weights
    point / sum(point) on the legs ``legs``) with leg entropies ``h``.

    The quadratic model h.theta + (theta - point)^T C (theta - point) / 2,
    with C = ``_phi_hessian``, is minimized by solving its KKT system on
    every face {theta_j = 0 off S}, one per nonempty leg set S, and keeping
    the feasible solution of least model value.  The step stops at
    THETA_STEP_TO_BOUNDARY of the way to the boundary.  Returns None where
    a solve raises ``LinAlgError`` or no face solution is feasible.
    """
    n = legs.size
    best, least = None, np.inf
    try:
        curv = _phi_hessian(prog, objective, w, float(point.sum()), legs)
        target = curv @ point - h
        for mask in range(1, 2**n):
            s = np.flatnonzero([(mask >> j) & 1 for j in range(n)])
            face = np.block([[curv[np.ix_(s, s)], xi[s, None]], [xi[None, s], np.zeros((1, 1))]])
            theta = np.zeros(n)
            theta[s] = np.linalg.lstsq(face, np.append(target[s], 1.0), rcond=None)[0][:-1]
            model = float(h @ theta + (theta - point) @ curv @ (theta - point) / 2.0)
            if theta.min() >= 0.0 and abs(theta @ xi - 1.0) <= 1e-9 and model < least:
                best, least = theta, model
    except np.linalg.LinAlgError:
        return None
    if best is None:
        return None
    step = best - point
    neg = step < 0
    reach = float((point[neg] / -step[neg]).min()) if neg.any() else np.inf
    return point + min(1.0, THETA_STEP_TO_BOUNDARY * reach) * step


def max_weighted_entropy(
    support: SupportSet,
    theta: ThetaWeights,
    *,
    tol: float = 1e-9,
) -> tuple[float, JointDistribution]:
    """max over joint distributions P on the support of sum_j theta_j H(p_j), in bits.

    The returned value is within ``tol`` of the maximum unless the Newton
    solve ran out of steps; ``min_convex_over_support`` with
    ``NegWeightedEntropy`` returns the same solve with its certified gap.
    """
    opt = min_convex_over_support(support, NegWeightedEntropy(theta), tol=tol)
    return -opt.value, opt.distribution


def max_min_weighted_entropy(
    support: SupportSet,
    xi: ThetaWeights,
    *,
    tol: float = 1e-7,
) -> float:
    """max over P of min_j H(p_j)/xi_j in bits; legs with xi_j = 0 are skipped.

    A leg with zero weight never participates in the minimum (its formal
    ratio is +infinity), matching the convention that such legs may not be
    used by covers.  The value is the lower end of a bracket at most ``tol``
    wide unless the cutting planes ran out of cuts;
    ``max_min_weighted_entropy_witness`` returns the bracket, a witness and
    the best theta.
    """
    return max_min_weighted_entropy_witness(support, xi, tol=tol)[0].value


def max_min_weighted_entropy_witness(
    support: SupportSet,
    xi: ThetaWeights,
    *,
    tol: float = 1e-7,
) -> tuple[SupportOptimum, ThetaWeights]:
    """The max-min program by cutting planes over entropy weights.

    By minimax, max_P min_j H_j / xi_j = min over theta >= 0 with <theta, xi>
    = 1 of phi(theta) = max_P sum_j theta_j H_j, on the legs with xi_j > 0.
    An oracle at theta bounds the max-min from above by its value plus its
    certified gap (hi), and its leg entropies h_k cut ``kelley_master``.
    The lower end lo is the best min_j H_j / xi_j at an oracle optimum or at
    their Dantzig-Wolfe mixture by the master's cut duals, which H's
    concavity puts at or above the master value.  Stops at hi - lo <= tol or
    after MAX_MIN_CUTS oracles.  Returns lo at its witness, with
    ``certified_gap`` hi - lo and ``iterations`` the oracle count, and the
    theta of the least upper end, scaled to sum 1 (zero off the legs).

    The first oracle is at the central theta and the second at the master's
    (Kelley's), which closes a vertex optimum at once.  From then on, when
    the latest oracle has the least phi so far, the next theta is a damped
    Newton step from it (``_theta_newton_step``): phi has gradient h_k
    (Danskin) and the Hessian ``_phi_hessian``, and is smooth at theta > 0,
    where the weighted entropy is strictly concave in the marginals.  The
    master's theta is taken instead when the latest oracle did not lower
    phi, when the step's solve fails, or when it repeats an evaluated theta.
    Only the choice of theta changes: hi and lo are sound wherever the
    oracles are.

    Successive oracles are close in theta, so each one after the first (at
    the central theta, from the uniform weights) starts its Newton solve
    from the previous optimum w blended toward uniform, (1 - eps) w + eps/m
    with eps = WARM_START_BLEND.  The blend gives every point weight, and
    the clipped Newton step drops the unused ones again within a few steps.
    From w itself, each of its exact zeros that the next optimum uses would
    have to be re-admitted by an exponent bisection, which costs more than
    the cold solve.  The start changes neither end of the bracket's
    soundness: hi adds the gap certified where Newton ends, wherever it
    began.
    """
    if xi.role != "xi":
        raise InvalidArgumentError("cover weights must have role 'xi'")
    legs = np.flatnonzero(xi.values > 0)
    xi_legs = xi.values[legs]
    prog = _SupportProgram(support)

    def ratio(w: np.ndarray) -> float:
        p = prog.marginals(w)
        return float(min(shannon_entropy(p[j]) / x for j, x in zip(legs, xi_legs)))

    point = np.full(legs.size, 1.0 / xi_legs.sum())
    cuts, optima, points, values = [], [], [], []
    hi, lo, witness, start, best = np.inf, -np.inf, None, None, None
    while True:
        theta = np.zeros(xi.d)
        theta[legs] = point / point.sum()
        weights = ThetaWeights.theta(theta)
        objective = NegWeightedEntropy(weights)
        w, gap, _ = _newton(prog, objective, tol / 10, start)
        p = prog.marginals(w)
        value = objective.value(p)
        upper = point.sum() * (gap - value)
        if upper < hi:
            hi, best = upper, weights
        values.append(-point.sum() * value)
        cuts.append(np.array([shannon_entropy(p[j]) for j in legs]))
        optima.append(w)
        points.append(point)
        start = (1.0 - WARM_START_BLEND) * w + WARM_START_BLEND / w.size
        lo, witness = max((lo, witness), (ratio(optima[-1]), optima[-1]), key=lambda c: c[0])
        if hi - lo > tol:
            sol = kelley_master(np.array(cuts), xi_legs)
            duals = np.clip(sol.y[: len(cuts)], 0.0, None)
            if duals.sum() > 0:
                mix = duals @ np.array(optima) / duals.sum()
                lo, witness = max((lo, witness), (ratio(mix), mix), key=lambda c: c[0])
        if hi - lo <= tol or len(cuts) >= MAX_MIN_CUTS:
            break
        point = sol.x[:-1]
        if len(values) > 1 and values[-1] < min(values[:-1]):
            step = _theta_newton_step(prog, objective, w, points[-1], cuts[-1], xi_legs, legs)
            if step is not None and np.abs(np.array(points) - step).max(axis=1).min() > 1e-12:
                point = step
    dist = JointDistribution(support, witness)
    return SupportOptimum(lo, marginals_of(dist), dist, max(0.0, hi - lo), len(cuts)), best
