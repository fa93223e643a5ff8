"""Convex programs over the distributions carried by a support set.

Every quantity of interest here is an optimum of a convex (or concave)
symmetric function of the per-leg marginals of a joint distribution on a
support set.  A single mirror-descent engine handles all of them:

* weights live on the probability simplex over the support points and are
  updated multiplicatively (exponentiated gradient) with a backtracking
  line search, so iterates stay strictly positive;
* nonsmooth objectives (max / l1 terms) are handled by a sharpness
  continuation, and every objective reports an affine minorant at the
  current point, which yields a rigorous bound on the distance to the true
  optimum (``certified_gap``) without any smoothing-error bookkeeping;
* optima often sit on faces of the simplex that multiplicative updates only
  approach, so the iterate is periodically snapped to the faces its large
  weights span.  For the smooth weighted-entropy objective (the one that
  reports ``curvature``) each snapped face is solved by active-set Newton on
  its KKT system, which drops points whose weight reaches 0 and re-admits
  points outside the face, also those whose weight underflowed to 0; the
  other objectives re-run the engine on the face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensors import InvalidArgumentError, SupportSet

LN2 = float(np.log(2.0))

#: sharpness continuation used for max/min/l1-type objectives
SHARPNESS_SCHEDULE = (16.0, 128.0, 1024.0, 8192.0, 65536.0, 2.0**19, 2.0**22)

#: the entropy terms -c H(m) of a minorant, as (c, legs): the mass m is the
#: mean of the marginals p_j over the legs
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
    0 reaches is not: for objectives that report ``entropy_terms`` the
    engine prices a finite slope there by ``_entropy_conjugate``.
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


class NegWeightedEntropy:
    """F(p) = -sum_j theta_j H(p_j), in bits.  Smooth and convex."""

    sharpness_schedule = (1.0,)  # smooth: no continuation needed

    def __init__(self, theta: ThetaWeights):
        if theta.role != "theta":
            raise InvalidArgumentError("entropy weights must have role 'theta'")
        self.theta = theta.values

    def value(self, p: Sequence[np.ndarray]) -> float:
        return float(-sum(th * shannon_entropy(pj) for th, pj in zip(self.theta, p) if th > 0))

    def minorant(self, p: Sequence[np.ndarray], sharp: float):
        grads = []
        for th, pj in zip(self.theta, p):
            if th > 0:
                grads.append(-th * _entropy_grad(pj))
            else:
                grads.append(np.zeros_like(pj))
        return self.value(p), grads

    def smooth_value(self, p: Sequence[np.ndarray], sharp: float) -> float:
        return self.value(p)

    def entropy_terms(self, p: Sequence[np.ndarray], sharp: float) -> EntropyTerms:
        """The terms -c H(p_j) of the minorant, as (c, (j,)): c = theta_j."""
        return [(float(th), (j,)) for j, th in enumerate(self.theta)]

    def curvature(self, p: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-leg diagonal of the Hessian in marginal space, theta_j / (p_j ln 2).

        Infinite at a zero coordinate of a leg with theta_j > 0, where the
        entropy's slope is unbounded.
        """
        out = []
        for th, pj in zip(self.theta, p):
            c = np.zeros_like(pj)
            if th > 0:
                pos = pj > 0
                c[~pos] = np.inf
                c[pos] = th / (np.maximum(pj[pos], np.finfo(float).tiny) * LN2)
            out.append(c)
        return out


class NegMinWeightedEntropy:
    """F(p) = max_j (-H(p_j) / xi_j), skipping legs with xi_j = 0.

    The negative of the objective whose maximum over the support polytope
    gives the asymptotic cover exponent.  Convex as a max of convex terms.
    """

    def __init__(self, xi: ThetaWeights):
        if xi.role != "xi":
            raise InvalidArgumentError("cover weights must have role 'xi'")
        self.xi = xi.values
        self.active = np.flatnonzero(self.xi > 0)
        if self.active.size == 0:
            raise InvalidArgumentError("xi must have a positive entry")

    def _terms(self, p: Sequence[np.ndarray]) -> np.ndarray:
        return np.array([-shannon_entropy(p[j]) / self.xi[j] for j in self.active])

    def value(self, p: Sequence[np.ndarray]) -> float:
        return float(self._terms(p).max())

    def minorant(self, p: Sequence[np.ndarray], sharp: float):
        terms = self._terms(p)
        s = _softmax_weights(terms, sharp)
        grads = [np.zeros_like(np.asarray(pj, dtype=float)) for pj in p]
        for w_i, j, t in zip(s, self.active, terms):
            grads[j] = w_i * (-_entropy_grad(p[j]) / self.xi[j])
        return float(s @ terms), grads

    def entropy_terms(self, p: Sequence[np.ndarray], sharp: float) -> EntropyTerms:
        """The terms -c H(p_j) of the minorant, as (c, (j,)): c is the
        softmax weight of leg j's term over xi_j; skipped legs have none."""
        c = _softmax_weights(self._terms(p), sharp) / self.xi[self.active]
        return [(float(cj), (int(j),)) for cj, j in zip(c, self.active)]

    def smooth_value(self, p: Sequence[np.ndarray], sharp: float) -> float:
        terms = self._terms(p)
        m = terms.max()
        return float(m + np.log2(np.exp(sharp * (terms - m) * LN2).sum()) / sharp)


class NegSummedEntropy:
    """F(p) = -H((p_1 + ... + p_d) / d); needs equal leg dimensions.

    The support-side objective of the symmetric functional: the summed
    marginal, rescaled to a distribution, replaces the per-leg tuple.
    """

    sharpness_schedule = (1.0,)

    def __init__(self, d: int):
        self.d = d

    def _q(self, p: Sequence[np.ndarray]) -> np.ndarray:
        total = np.zeros_like(np.asarray(p[0], dtype=float))
        for pj in p:
            total = total + pj
        return total / self.d

    def value(self, p: Sequence[np.ndarray]) -> float:
        return -shannon_entropy(self._q(p))

    def minorant(self, p: Sequence[np.ndarray], sharp: float):
        q = self._q(p)
        g = -_entropy_grad(q) / self.d
        return self.value(p), [g.copy() for _ in p]

    def smooth_value(self, p: Sequence[np.ndarray], sharp: float) -> float:
        return self.value(p)

    def entropy_terms(self, p: Sequence[np.ndarray], sharp: float) -> EntropyTerms:
        """The one term -H(q) of the minorant, as (1, all legs)."""
        return [(1.0, tuple(range(self.d)))]


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
# the mirror-descent engine


@dataclass(frozen=True)
class SupportOptimum:
    """Result of minimizing a convex objective over a support polytope."""

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
    prog: _SupportProgram, objective, p: Sequence[np.ndarray], sharp: float, g: np.ndarray
) -> tuple[np.ndarray, float]:
    """Points that reach a coordinate without mass, and what certifying them
    costs.

    Each term -c H(m) of the objective's minorant (``entropy_terms``) has a
    mass m, the mean of p_j over the term's legs: one leg for the per-leg
    objectives, all legs for the summed one.  The entropy's slope at a
    coordinate of m without mass is unbounded, so ``g`` (0 there) is no
    subgradient.  The minorant instead takes there the finite slope that
    lifts every point reaching it to the cheapest other point, and pays the
    conjugate offset for it (Fenchel-Young).  A point reaches a coordinate
    once per leg of the term that lands on it, and each time gains the slope
    over the number of legs.
    """
    terms = [(c, legs) for c, legs in objective.entropy_terms(p, sharp) if c > 0]
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
    prog: _SupportProgram, objective, wvec: np.ndarray, sharp: float
) -> tuple[float, float, np.ndarray]:
    """Exact value, rigorous optimality gap, and pulled-back gradient.

    The gap comes from the affine minorant:
    F(w*) >= lin_val + g.(w* - w) >= lin_val + min(g) - g.w,
    with coordinates without mass priced by ``_zero_mass``.
    """
    p = prog.marginals(wvec)
    exact = objective.value(p)
    lin_val, grads = objective.minorant(p, sharp)
    g = prog.chain(grads)
    low, offset = float(g.min()), 0.0
    if hasattr(objective, "entropy_terms") and not wvec.all():
        blocked, offset = _zero_mass(prog, objective, p, sharp, g)
        low = float(g[~blocked].min())
    gap = (exact - lin_val) + offset + float(g @ wvec) - low
    return exact, gap, g


def min_convex_over_support(
    support: SupportSet,
    objective,
    *,
    tol: float = 1e-7,
    max_iters: int = 8000,
    start: np.ndarray | None = None,
    _polish: bool = True,
) -> SupportOptimum:
    """Minimize a convex symmetric function of the marginals over all joint
    distributions on the support set.

    The objective must provide ``value``, ``minorant`` and ``smooth_value``
    (see the classes above).  The returned ``certified_gap`` bounds
    ``value - true_minimum`` via the affine minorant at the final iterate.
    """
    if support.size == 0:
        raise InvalidArgumentError("empty support")
    prog = _SupportProgram(support)
    m = support.size
    w = np.full(m, 1.0 / m) if start is None else np.asarray(start, dtype=float)
    w = np.clip(w, 1e-300, None)
    w = w / w.sum()

    best_val = np.inf
    best_w = w.copy()
    best_gap = np.inf
    total_iters = 0
    step = 1.0
    schedule = list(getattr(objective, "sharpness_schedule", SHARPNESS_SCHEDULE))
    curvature = getattr(objective, "curvature", None)

    def assess(wvec: np.ndarray, sharp: float) -> tuple[float, float, np.ndarray]:
        return _assess(prog, objective, wvec, sharp)

    def consider(wvec: np.ndarray, exact: float, gap: float) -> None:
        nonlocal best_val, best_w, best_gap
        if exact < best_val - 1e-15 or (exact <= best_val + 1e-15 and gap < best_gap):
            best_val, best_w, best_gap = exact, wvec.copy(), gap

    def newton_face(wvec: np.ndarray, face: np.ndarray, sharp: float) -> None:
        # active-set Newton on the KKT system of a face of the simplex
        # (Boyd & Vandenberghe, Convex Optimization, 10.2), for objectives
        # with curvature.  The certified gap is the spread of g over the
        # face, plus the deficit of the cheapest point outside it, plus the
        # offset paid for points on coordinates without mass.  The largest
        # part is worked on: a damped Newton step within the face (a point
        # whose weight reaches 0 leaves it), or re-admitting the cheapest
        # outside point, which also restores weights that underflowed to 0
        y = np.where(face, wvec, 0.0)
        y = y / y.sum()
        exact, gap, g = assess(y, sharp)
        for _ in range(50):
            consider(y, exact, gap)
            if gap <= tol:
                return
            slack = 1e-15 * max(1.0, abs(exact))
            p_y = prog.marginals(y)
            c = curvature(p_y)
            blocked, offset = _zero_mass(prog, objective, p_y, sharp, g)
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
                    ez, gz, g_z = assess(z, sharp)
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
                    return
            else:
                pts = np.flatnonzero(face)
                k = pts.size
                hess = np.zeros((k, k))
                for idx, cj in zip(prog.leg_index, c):
                    a = idx[pts]
                    hess += (a[:, None] == a[None, :]) * cj[a]
                # the Hessian is singular when the face has more points than
                # marginal coordinates: least squares on the Jacobi-scaled system
                sc = 1.0 / np.sqrt(np.diag(hess))
                kkt = np.zeros((k + 1, k + 1))
                kkt[:k, :k] = hess * np.outer(sc, sc)
                kkt[:k, k] = kkt[k, :k] = sc
                # g is shifted by its face minimum, which leaves d unchanged
                # (sum d = 0) but keeps the slope from cancelling out near 0
                g_face = g[pts] - face_min
                rhs = np.append(-g_face * sc, 0.0)
                d = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k] * sc
                slope = float(g_face @ d)
                if not slope < 0:
                    return
                neg = np.flatnonzero(d < 0)
                ratios = -y[pts[neg]] / d[neg]
                t_max = float(ratios.min()) if neg.size else np.inf
                t = min(1.0, t_max)
                for _ in range(40):
                    z = y.copy()
                    z[pts] += t * d
                    if t == t_max:
                        z[pts[neg[ratios.argmin()]]] = 0.0
                    z = np.clip(z, 0.0, None)
                    z = z / z.sum()
                    ez, gz, g_z = assess(z, sharp)
                    if ez <= exact + 0.25 * t * slope + slack:
                        break
                    t /= 2.0
                else:
                    return
            y, exact, gap, g = z, ez, gz, g_z
            face = y > 0
        consider(y, exact, gap)

    def face_polish(wvec: np.ndarray, sharp: float) -> None:
        # optima often sit on faces of the weight simplex that multiplicative
        # updates only approach; a snapped copy recentered within its face
        # frequently hits them exactly, where the certificate collapses to ~0
        if not _polish:
            return
        seen: set[tuple[bool, ...]] = set()
        for cut in (1e-2, 1e-4, 1e-7, 1e-10):
            mask = wvec > cut * wvec.max()
            key = tuple(mask)
            if not mask.any() or key in seen:
                continue
            seen.add(key)
            if curvature is not None:
                newton_face(wvec, mask, sharp)
                if best_gap <= tol:
                    return
                continue
            if mask.all():
                continue
            y = np.where(mask, wvec, 0.0)
            y = y / y.sum()
            if mask.sum() > 1:
                sub = SupportSet(support.dims, support.points[mask])
                sub_opt = min_convex_over_support(
                    sub,
                    objective,
                    tol=tol,
                    max_iters=800,
                    start=y[mask],
                    _polish=False,
                )
                y = np.zeros_like(y)
                y[mask] = sub_opt.distribution.weights
            exact, gap, _ = assess(y, sharp)
            consider(y, exact, gap)

    done = False
    patience = 250
    for sharp in schedule:
        if done:
            break
        stall = 0
        since_improve = 0
        for it_in_stage in range(max_iters // len(schedule) + 1):
            total_iters += 1
            prev_best = best_val
            exact, gap, g = assess(w, sharp)
            consider(w, exact, gap)
            since_improve = 0 if best_val < prev_best - 1e-14 else since_improve + 1
            if it_in_stage % 128 == 127:
                face_polish(w, sharp)
            if best_gap <= tol:
                done = True
                break
            if since_improve > patience:
                break

            p = prog.marginals(w)
            sval = objective.smooth_value(p, sharp)
            shift = g - g.min()

            def _candidate(eta: float) -> tuple[np.ndarray, float]:
                y = w * np.exp(-np.minimum(eta * shift, 700.0))
                y = y / y.sum()
                return y, objective.smooth_value(prog.marginals(y), sharp)

            eta = min(step, 1e6)
            y, v_eta = _candidate(eta)
            improved = v_eta < sval - 1e-15
            while not improved and eta > 1e-18:
                eta /= 2.0
                y, v_eta = _candidate(eta)
                improved = v_eta < sval - 1e-15
            if not improved:
                stall += 1
                face_polish(w, sharp)
                if best_gap <= tol:
                    done = True
                    break
                if stall >= 2:
                    break
                continue
            while eta < 1e6:
                y2, v2 = _candidate(2.0 * eta)
                if v2 < v_eta - 1e-15:
                    eta, y, v_eta = 2.0 * eta, y2, v2
                else:
                    break
            step = eta
            w = y
            stall = 0

    if not done:
        face_polish(w, schedule[-1])
        face_polish(best_w, schedule[-1])

    dist = JointDistribution(support, best_w)
    return SupportOptimum(
        value=best_val,
        marginals=marginals_of(dist),
        distribution=dist,
        certified_gap=best_gap,
        iterations=total_iters,
    )


# ---------------------------------------------------------------------------
# the named entropy programs


def max_weighted_entropy(
    support: SupportSet,
    theta: ThetaWeights,
    *,
    tol: float = 1e-9,
    max_iters: int = 20000,
) -> tuple[float, JointDistribution]:
    """max over joint distributions P on the support of sum_j theta_j H(p_j), in bits.

    The returned value lies within ``tol`` of the maximum, as certified by
    the affine-minorant gap (``certified_gap`` of ``min_convex_over_support``).
    That gap is not returned here, so a solve that stops short of ``tol``
    (at ``max_iters``) is not flagged.
    """
    opt = min_convex_over_support(
        support, NegWeightedEntropy(theta), tol=tol, max_iters=max_iters
    )
    return -opt.value, opt.distribution


def max_min_weighted_entropy(
    support: SupportSet,
    xi: ThetaWeights,
    *,
    tol: float = 1e-7,
    max_iters: int = 40000,
) -> float:
    """max over P of min_j H(p_j)/xi_j in bits; legs with xi_j = 0 are skipped.

    A leg with zero weight never participates in the minimum (its formal
    ratio is +infinity), matching the convention that such legs may not be
    used by covers.
    """
    value, _ = max_min_weighted_entropy_witness(support, xi, tol=tol, max_iters=max_iters)
    return value


def max_min_weighted_entropy_witness(
    support: SupportSet,
    xi: ThetaWeights,
    *,
    tol: float = 1e-7,
    max_iters: int = 40000,
) -> tuple[float, JointDistribution]:
    opt = min_convex_over_support(
        support, NegMinWeightedEntropy(xi), tol=tol, max_iters=max_iters
    )
    return -opt.value, opt.distribution
