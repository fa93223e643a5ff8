import dataclasses
import itertools

import numpy as np
import pytest

from conftest import (
    F_W,
    H13_BITS,
    basis_search_corpus,
    gl_w_tensor,
    sparse332,
    sparse_tensor,
    symmetric_corpus,
)
from oracles import descent_step, scaling_step
from spectrumkit import (
    GroupElement,
    InvalidArgumentError,
    SearchConfig,
    Tensor,
    ThetaWeights,
    apply_group,
    entropic_scaling,
    g_stable_rank,
    kempf_ness_value,
    make_unit,
    matmul_tensor,
    minimax_gap,
    moment_map,
    quantum_functional,
    support,
    support_functional,
    symmetric_quantum_functional,
    symmetric_support_functional,
    torus_moment_map,
    w_tensor,
)
from spectrumkit import functionals
from spectrumkit.functionals import (
    bracket_width,
    exact_support_bound,
    minimize_over_moment_polytope,
    unitary_candidates,
)
from spectrumkit.optim import L1FromUniform, MaxInfNorm, NegWeightedEntropy
from spectrumkit.tensors import (
    direct_sum,
    random_group_element,
    random_tensor,
    tensor_product,
)

FAST = SearchConfig()
UNIFORM3 = ThetaWeights.uniform(3)


def test_moment_map_examples(w):
    for r in (2, 3):
        for comp in moment_map(make_unit(r, 3)):
            assert np.allclose(comp, np.eye(r) / r)
    for comp in moment_map(w):
        assert np.allclose(comp, np.diag([2 / 3, 1 / 3]))


def test_moment_map_unitary_equivariance(w):
    rng = np.random.default_rng(0)
    u = random_group_element(w.dims, rng, unitary=True)
    mm = moment_map(w)
    mm_u = moment_map(apply_group(u, w))
    for comp, comp_u, f in zip(mm, mm_u, u.factors):
        assert np.allclose(comp_u, f @ comp @ f.conj().T, atol=1e-12)


def test_torus_moment_map_examples(w):
    for p in torus_moment_map(make_unit(2, 3)).probs:
        assert np.allclose(p, [0.5, 0.5])
    for p in torus_moment_map(w).probs:
        assert np.allclose(p, [2 / 3, 1 / 3])
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    for p in torus_moment_map(Tensor(arr)).probs:
        assert np.allclose(p, [1.0, 0.0])


def test_torus_moment_map_in_support_hull(w):
    # diagonal of the marginals = support-point average under any weights
    rng = np.random.default_rng(1)
    t = random_tensor((2, 3, 2), rng)
    tm = torus_moment_map(t)
    pts = support(t, 0.0).points
    weights = np.abs(t.entries.ravel()) ** 2
    weights = weights[weights > 0] / weights.sum()
    for j, p in enumerate(tm.probs):
        expected = np.bincount(pts[:, j], weights=weights, minlength=t.dims[j])
        assert np.allclose(p, expected, atol=1e-12)


def test_kempf_ness_identity_and_scalars():
    t = make_unit(1, 3)
    x = GroupElement.identity(t.dims)
    assert abs(kempf_ness_value(t, x) - np.log(t.norm() ** 2)) <= 1e-12
    c = 1.7
    xc = GroupElement((np.array([[c]]),) * 3)
    assert abs(kempf_ness_value(t, xc) - 3 * np.log(c)) <= 1e-12


def test_kempf_ness_geodesic_convexity():
    rng = np.random.default_rng(2)
    t = random_tensor((2, 2, 2), rng)
    for _ in range(5):
        hs = [
            (lambda z: 0.5 * (z + z.conj().T))(
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            )
            for _ in range(3)
        ]

        def x_at(s: float) -> GroupElement:
            factors = []
            for h in hs:
                lam, vec = np.linalg.eigh(h)
                factors.append((vec * np.exp(s * lam)) @ vec.conj().T)
            return GroupElement(tuple(factors))

        f0 = kempf_ness_value(t, x_at(-0.5))
        f1 = kempf_ness_value(t, x_at(0.5))
        fm = kempf_ness_value(t, x_at(0.0))
        assert fm <= 0.5 * (f0 + f1) + 1e-10


def test_kempf_ness_rejects_non_pd():
    t = make_unit(2, 3)
    with pytest.raises(InvalidArgumentError):
        kempf_ness_value(t, GroupElement((np.diag([1.0, -1.0]),) * 3))


def test_scaling_unit_tensor_fixed_point():
    for r in (1, 2, 4):
        cert, trace = entropic_scaling(make_unit(r, 3), UNIFORM3)
        assert abs(cert.value - r) <= 1e-9 * r
        assert cert.converged
        # fixed point from the very first iterate
        assert np.allclose(trace.objective_bits, np.log2(r), atol=1e-12)


def test_scaling_w_uniform(w):
    cert, trace = entropic_scaling(w, UNIFORM3)
    assert abs(cert.value - F_W) <= 1e-8
    assert cert.converged
    diffs = np.diff(trace.objective_bits)
    assert diffs.min() >= -1e-12


def test_scaling_matmul(matmul222):
    for theta in (UNIFORM3, ThetaWeights.theta([0.5, 0.2, 0.3])):
        cert, _ = entropic_scaling(matmul222, theta)
        assert abs(cert.value - 4.0) <= 1e-8


def test_scaling_monotone_on_random_tensors():
    rng = np.random.default_rng(3)
    for _ in range(5):
        t = random_tensor((2, 3, 4), rng)
        theta = ThetaWeights.theta(rng.dirichlet([1.0] * 3))
        cert, trace = entropic_scaling(t, theta)
        assert np.diff(trace.objective_bits).min() >= -1e-12
        assert cert.converged


def test_scaling_nonconvergence_flagged(w):
    cert, trace = entropic_scaling(w, ThetaWeights.theta([0.6, 0.2, 0.2]), max_iter=3)
    assert not cert.converged
    assert not trace.converged
    assert trace.stop == "cap"
    assert entropic_scaling(w, UNIFORM3)[1].stop == "tol"


@pytest.mark.parametrize("label", ["w", "w-in-333", "rand234", "sparse332", "rand2222"])
def test_vertex_scaling_stops_at_its_one_step_fixed_point(label, w):
    # w-in-333 pads W with zeros: every flattening has rank 2 of 3
    t = {"w": w, "w-in-333": Tensor(np.pad(w.entries, 1)[1:, 1:, 1:]),
         "rand234": random_tensor((2, 3, 4), np.random.default_rng(0)),
         "sparse332": sparse332(),
         "rand2222": random_tensor((2, 2, 2, 2), np.random.default_rng(1))}[label]
    for j in range(t.order):
        flat = np.moveaxis(t.entries, j, 0).reshape(t.dims[j], -1)
        r = np.linalg.matrix_rank(flat)
        cert, trace = entropic_scaling(t, ThetaWeights.theta(np.eye(t.order)[j]))
        assert trace.stop == "tol" and trace.iterations == 2 and np.isfinite(trace.residual)
        assert abs(cert.bits - np.log2(r)) <= 1e-12
        uniform = np.r_[np.full(r, 1.0 / r), np.zeros(t.dims[j] - r)]
        assert np.allclose(cert.witness.probs[j], uniform, rtol=0.0, atol=1e-12)


TAIL_THETA = ThetaWeights.theta([0.6, 0.4, 0.0])


def _tail_cases() -> list[tuple[str, Tensor]]:
    """Inputs whose scaling runs at TAIL_THETA approach a boundary optimum
    slowly: the residual rule ends them after about 10,000 and 8,000
    iterations.  The exact supports give 1 bit and log2 3."""
    return [("w", w_tensor()), ("sparse332-8", sparse_tensor((3, 3, 2), 8, 0))]


@pytest.mark.parametrize("label, t", _tail_cases(), ids=[c[0] for c in _tail_cases()])
def test_bracket_stops_the_scaling_tail(label, t):
    hi, _ = exact_support_bound(t, TAIL_THETA, FAST.inner_tol)
    assert abs(hi - {"w": 1.0, "sparse332-8": np.log2(3)}[label]) <= FAST.inner_tol
    cert, trace = entropic_scaling(t, TAIL_THETA, upper_bits=hi, width=bracket_width(FAST.inner_tol))
    assert trace.stop == "bracket" and cert.converged and trace.iterations <= 3000
    lo, up = cert.bracket
    assert (lo, up) == (cert.bits, hi)
    assert lo <= up and up - lo <= 1e-7


def _seeded_tensor(dims: tuple[int, ...], points: list[tuple[int, ...]]) -> Tensor:
    """Seeded complex Gaussian entries at the given index tuples."""
    rng = np.random.default_rng(0)
    arr = np.zeros(dims, dtype=complex)
    arr[tuple(np.array(points).T)] = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
    return Tensor(arr)


QUARTER = ThetaWeights.theta([0.5, 0.25, 0.25])


def _uncertified_cases() -> list[tuple[str, Tensor, ThetaWeights, str, float]]:
    """Inputs whose concise tensor no semistability rule certifies: (label,
    tensor, theta, lower end, log2 F_theta).  W and GL.W have Cayley's
    hyperdeterminant 0 (GL.W up to rounding); W's lower end comes from its
    free support.  sparse5 and sparse11 (3 x 2 x 2, ranks (3, 2, 2)) are
    semistable only at a boundary-format invariant that vanishes, and have a
    rectangular pencil at TAIL_THETA: their rank maximum is the trivial
    1.3510 bits, their value 1.3310.  The 3 x 3 x 2 singular-pencil tensor
    is not free, and rows 1 and 2 of each slice are proportional, so its
    slices span only singular matrices and its discriminant is 0."""
    w_bits = {"1/3": H13_BITS, "1/2": 0.9261429970376}
    return [
        ("w-uniform", w_tensor(), UNIFORM3, "free_support", w_bits["1/3"]),
        ("w-quarter", w_tensor(), QUARTER, "free_support", w_bits["1/2"]),
        ("gl.w-uniform", gl_w_tensor(), UNIFORM3, "scaling", w_bits["1/3"]),
        ("gl.w-quarter", gl_w_tensor(), QUARTER, "scaling", w_bits["1/2"]),
        ("sparse5", _seeded_tensor((3, 2, 2), [(0, 1, 0), (1, 0, 0), (2, 0, 0), (2, 0, 1), (2, 1, 0)]),
         TAIL_THETA, "scaling", 1.33097),
        ("sparse11", _seeded_tensor((3, 2, 2), [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (2, 1, 0)]),
         TAIL_THETA, "scaling", 1.33097),
        ("singular-pencil",
         _seeded_tensor((3, 3, 2), [(0, 0, 0), (0, 1, 0), (0, 2, 1), (1, 0, 0), (2, 0, 1)]), TAIL_THETA,
         "scaling", 1.50346),
    ]


@pytest.mark.parametrize("label, t, theta, end, bits", _uncertified_cases(),
                         ids=[c[0] for c in _uncertified_cases()])
def test_no_certificate_where_its_test_fails(label, t, theta, end, bits):
    ranks, rule = functionals._flattening_ranks(t, np.flatnonzero(theta.values > 0))
    assert rule is None
    rank_bits = float(sum(w * np.log2(r) for w, r in zip(theta.values, ranks)))
    bound, opt = exact_support_bound(t, theta, FAST.inner_tol)
    hi = min(bound, rank_bits)
    q = quantum_functional(t, theta, inner_tol=FAST.inner_tol)
    assert q.lower_end == end and abs(q.bits - bits) <= 1e-5
    if end == "scaling":
        ref, _ = entropic_scaling(t, theta, upper_bits=hi, width=bracket_width(FAST.inner_tol))
        assert q.bits == ref.bits and q.bracket == ref.bracket
        assert all(np.array_equal(f, g) for f, g in zip(q.group_factors, ref.group_factors))
    else:
        assert q.bracket == (-opt.value, hi)
    # what a wrongly applied certificate would have claimed
    assert rank_bits - q.bits >= 0.015


def _semistable_cases() -> list[tuple[str, Tensor, ThetaWeights, tuple[int, ...]]]:
    """Seeded inputs that each semistability rule certifies: (label, tensor,
    theta, flattening ranks).  sparse0 (3 x 2 x 2 with ranks (2, 1, 2)) has a
    leg of rank 1, so its flattening 2 is square; its value is 2/3."""
    rng = np.random.default_rng(5)
    return [
        ("discriminant-222", random_tensor((2, 2, 2), rng), UNIFORM3, (2, 2, 2)),
        ("discriminant-332", random_tensor((3, 3, 2), rng), UNIFORM3, (3, 3, 2)),
        ("boundary-223", random_tensor((2, 2, 3), rng), QUARTER, (2, 2, 3)),
        ("boundary-234", random_tensor((2, 3, 4), rng), UNIFORM3, (2, 3, 4)),
        ("square-224", random_tensor((2, 2, 4), rng), QUARTER, (2, 2, 4)),
        ("rank-one-leg", _seeded_tensor((3, 2, 2), [(0, 0, 0), (1, 0, 1), (2, 0, 0)]), UNIFORM3,
         (2, 1, 2)),
    ]


@pytest.mark.parametrize("label, t, theta, ranks", _semistable_cases(),
                         ids=[c[0] for c in _semistable_cases()])
def test_semistability_certifies_the_rank_maximum(label, t, theta, ranks):
    bits = float(sum(w * np.log2(r) for w, r in zip(theta.values, ranks)))
    q = quantum_functional(t, theta, inner_tol=FAST.inner_tol)
    assert q.lower_end == "semistable" and q.group_factors is None and q.converged
    assert q.bits == bits and q.bracket == (bits, bits)
    if label == "rank-one-leg":
        assert abs(bits - 2 / 3) <= 1e-15
    for p, r, n in zip(q.witness.probs, ranks, t.dims):
        assert p.tolist() == [1.0 / r] * r + [0.0] * (n - r)
    hi, _ = exact_support_bound(t, theta, FAST.inner_tol)
    assert bits <= hi
    # the scaling reaches the certified value: it is the value, not just a bound
    ref, trace = entropic_scaling(t, theta, upper_bits=bits, width=bracket_width(FAST.inner_tol))
    assert trace.stop == "bracket" and bits - bracket_width(FAST.inner_tol) <= ref.bits <= bits + 1e-12


def test_pencil_discriminant_is_cayleys_hyperdeterminant():
    def cayley(a):
        return (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
                + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
                - 2 * (a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
                       + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
                       + a[0, 0, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 1]
                       + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
                       + a[0, 0, 1] * a[1, 0, 0] * a[0, 1, 1] * a[1, 1, 0]
                       + a[0, 1, 0] * a[1, 0, 0] * a[0, 1, 1] * a[1, 0, 1])
                + 4 * (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
                       + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1]))

    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_tensor((2, 2, 2), rng).entries
        disc = functionals._pencil_discriminant(a[:, :, 0], a[:, :, 1])
        assert abs(disc - cayley(a)) <= 1e-12 * max(1.0, abs(cayley(a)))
    w = w_tensor().entries
    assert abs(functionals._pencil_discriminant(w[:, :, 0], w[:, :, 1])) <= 1e-14


@pytest.mark.parametrize("m", [2, 3])
def test_boundary_matrix_is_singular_at_a_common_kernel_vector(m):
    rng = np.random.default_rng(m)
    a, b = (rng.standard_normal((m, m + 1)) + 1j * rng.standard_normal((m, m + 1)) for _ in range(2))
    assert functionals._nonsingular(functionals._boundary_matrix(a, b))
    v = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
    project = np.eye(m + 1) - np.outer(v, v.conj()) / np.vdot(v, v)
    sv = np.linalg.svd(functionals._boundary_matrix(a @ project, b @ project), compute_uv=False)
    assert sv[-1] <= 1e-15 * sv[0]


def _certificate_case(label: str) -> Tensor:
    if label == "wxw":
        return tensor_product(w_tensor(), w_tensor())
    dims = {"rand222": (2, 2, 2), "rand332": (3, 3, 2), "rand234": (2, 3, 4), "rand331": (3, 3, 1)}
    return random_tensor(dims[label], np.random.default_rng(3))


@pytest.mark.parametrize("objective, legs", [
    (MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), (0, 1, 2)),
    (L1FromUniform(), (0, 1, 2)),
    (L1FromUniform(), (0, 1)),
    (NegWeightedEntropy(ThetaWeights.theta([0.5, 0.5, 0.0])), (0, 1)),
], ids=["linf", "l1", "l1-rows-cols", "entropy-zero-weight"])
@pytest.mark.parametrize("label", ["rand222", "rand332", "rand234", "rand331", "wxw"])
def test_moment_certificate_is_the_minimum_a_descent_approaches(label, objective, legs):
    # every descent value is attained in the moment polytope, so an
    # unbounded descent never ends below the certified minimum (less its
    # gap); it ends near it.  The entropy is certified as the quantum
    # functional certifies it: on the legs of positive weight, given the
    # exact-support solve, under the group of every leg
    t = _certificate_case(label)
    entropy = isinstance(objective, NegWeightedEntropy)
    solve = flat = None
    if entropy:
        theta = ThetaWeights.theta(objective.theta)
        _, solve = exact_support_bound(t, theta, FAST.inner_tol)
        flat = functionals._flattening_ranks(t, legs)
    cert = functionals._moment_certificate(t, objective, legs, solve, flat)
    free = label == "wxw" and (len(legs) == 3 or entropy)
    pencil = label in ("rand222", "rand332", "wxw") and len(legs) == 2
    assert cert.how == ("free_support" if free else "square_pencil" if pencil else "semistable")
    assert (cert.solve is not None) == free
    assert cert.gap <= 1e-15 and (free or cert.gap == 0.0)
    assert len(cert.witness.probs) == (t.order if entropy else len(legs))
    assert objective.value(cert.witness.probs) == pytest.approx(cert.value, abs=1e-15)
    for p in cert.witness.probs:
        assert np.all(np.diff(p) <= 0.0)
    if entropy:
        if cert.how == "square_pencil":  # (1, 0, ...) on the leg of weight 0
            assert cert.witness.probs[2].tolist() == [1.0] + [0.0] * (t.dims[2] - 1)
        q = quantum_functional(t, theta, inner_tol=FAST.inner_tol)
        assert q.lower_end == cert.how and abs(q.bits + cert.value) <= 1e-15
        assert all(np.array_equal(p, r) for p, r in zip(q.witness.probs, cert.witness.probs))
        scaled, _ = entropic_scaling(t, theta, upper_bits=cert.gap - cert.value, width=1e-4)
        ref_value = -scaled.bits
    else:
        ref_value = minimize_over_moment_polytope(t, objective, active_legs=legs,
                                                  max_iter=6000).value
    assert ref_value >= cert.value - cert.gap - 1e-12
    assert ref_value - cert.value <= 1e-3


def _skew3() -> Tensor:
    arr = np.zeros((3, 3, 3), dtype=complex)
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        arr[i, j, k], arr[j, i, k] = 1.0, -1.0
    return Tensor(arr)


def test_moment_certificate_needs_a_free_support_or_a_rule():
    # W and GL.W have Cayley hyperdeterminant 0, no rule covers 3 x 3 x 3,
    # and the odd skew pencil holds no nonsingular matrix
    linf = MaxInfNorm(ThetaWeights.alpha([1, 1, 1]))
    rand333 = random_tensor((3, 3, 3), np.random.default_rng(7))
    for t in (w_tensor(), gl_w_tensor(), _skew3(), rand333):
        flat = functionals._flattening_ranks(t, range(3))
        assert flat is None or flat[1] is None
    for t in (gl_w_tensor(), rand333):
        for objective in (linf, L1FromUniform()):
            assert functionals._moment_certificate(t, objective, range(3)) is None
    # the skew tensor's support is free, but on the row and column legs the
    # third leg is no part of the group
    assert functionals._moment_certificate(_skew3(), linf, range(3)).how == "free_support"
    assert functionals._moment_certificate(_skew3(), L1FromUniform(), (0, 1)) is None
    # undecided ranks: e_000 + e_111 + 1e-14 (e_222 + e_221) is not free
    a = np.zeros((3, 3, 3), complex)
    a[0, 0, 0] = a[1, 1, 1] = 1.0
    a[2, 2, 2] = a[2, 2, 1] = 1e-14
    assert functionals._moment_certificate(Tensor(a), linf, range(3)) is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimax_on_a_semistable_tensor_makes_no_descent(seed, monkeypatch):
    # Cayley's hyperdeterminant certifies a random 2 x 2 x 2 tensor: the
    # uniform point is the minimum of every convex symmetric objective
    t = random_tensor((2, 2, 2), np.random.default_rng(seed))

    def refuse(*args, **kwargs):
        raise AssertionError("moment descent on a semistable tensor")

    monkeypatch.setattr(functionals, "minimize_over_moment_polytope", refuse)
    for objective, value in ((MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), 0.5),
                             (MaxInfNorm(ThetaWeights.alpha([1, 2, 1])), 0.5),
                             (L1FromUniform(), 0.0)):
        rep = minimax_gap(t, objective, FAST)
        assert rep.lhs_certificate.lower_end == "semistable"
        assert rep.lhs == value and rep.converged
        assert abs(rep.gap) <= 1e-9


def test_rank_maximum_caps_the_upper_end():
    # GL_3 elements on W in 3 x 3 x 3: full support, so the exact-support
    # bound is log2 3, but every flattening has rank 2
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
    t = Tensor(np.einsum("ai,bj,ck,ijk->abc", *mats, np.pad(w_tensor().entries, ((0, 1),) * 3)))
    bound, _ = exact_support_bound(t, UNIFORM3, FAST.inner_tol)
    ranks, rule = functionals._flattening_ranks(t, range(3))
    rank_bits = float(sum(w * np.log2(r) for w, r in zip(UNIFORM3.values, ranks)))
    assert ranks == (2, 2, 2) and rule is None and bound - rank_bits >= 0.5
    q = quantum_functional(t, UNIFORM3, inner_tol=FAST.inner_tol)
    assert q.lower_end == "scaling" and q.bracket == (q.bits, rank_bits)
    assert abs(q.bits - H13_BITS) <= 1e-6


@pytest.mark.parametrize("eps", [1e-14, 1e-17])
def test_a_small_component_on_a_free_support_keeps_its_certificate(eps):
    # e_000 + eps e_111 has ranks (2, 2, 2) and value 1 bit; a rank cut at
    # PINV_CUTOFF would read (1, 1, 1) and put hi at 0, below lo
    a = np.zeros((2, 2, 2), complex)
    a[0, 0, 0], a[1, 1, 1] = 1.0, eps
    q = quantum_functional(Tensor(a), UNIFORM3, inner_tol=FAST.inner_tol)
    lo, hi = q.bracket
    assert q.lower_end == "free_support" and abs(lo - 1.0) <= 1e-9
    assert lo <= hi <= lo + bracket_width(FAST.inner_tol)


@pytest.mark.parametrize("eps", [1e-14, 1e-17])
def test_a_component_below_the_rank_cut_leaves_the_rank_maximum_unused(eps):
    # e_000 + e_111 + eps (e_222 + e_221) is GL-equivalent to the unit
    # tensor <3>: ranks (3, 3, 3), value log2 3.  Its small entries leave
    # the ranks undecided, so neither hi nor a certificate comes from them.
    a = np.zeros((3, 3, 3), complex)
    a[0, 0, 0] = a[1, 1, 1] = 1.0
    a[2, 2, 2] = a[2, 2, 1] = eps
    t = Tensor(a)
    assert functionals._flattening_ranks(t, range(3)) is None
    bound, _ = exact_support_bound(t, UNIFORM3, FAST.inner_tol)
    assert abs(bound - np.log2(3)) <= bracket_width(FAST.inner_tol)
    ref, _ = entropic_scaling(t, UNIFORM3, upper_bits=bound, width=bracket_width(FAST.inner_tol))
    q = quantum_functional(t, UNIFORM3, inner_tol=FAST.inner_tol)
    assert q.lower_end == "scaling" and q.bits == ref.bits and q.bracket == ref.bracket
    assert q.bracket[1] == bound


@pytest.mark.parametrize("eps", [0.0, 1e-14])
def test_a_singular_value_between_rounding_and_the_cut_leaves_the_rank_undecided(eps):
    # GL_3 elements on e_000 + e_111 + eps e_222: all entries are of order 1,
    # and the third singular value of each flattening is 0 up to rounding or
    # about eps
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
    core = np.zeros((3, 3, 3), complex)
    core[0, 0, 0], core[1, 1, 1], core[2, 2, 2] = 1.0, 1.0, eps
    t = Tensor(np.einsum("ai,bj,ck,ijk->abc", *mats, core))
    flat = functionals._flattening_ranks(t, range(3))
    if eps == 0.0:
        assert flat == ((2, 2, 2), "semistable")
    else:
        assert flat is None
        assert quantum_functional(t, UNIFORM3, inner_tol=FAST.inner_tol).lower_end == "scaling"


def test_is_free_matches_the_unique_rows_definition():
    # free: no two points agree off one coordinate, that is, dropping any
    # coordinate leaves the rows distinct
    def reference(points):
        return all(len(np.unique(np.delete(points, j, axis=1), axis=0)) == len(points)
                   for j in range(points.shape[1]))

    supports = [support(t, 0.0).points for t in (w_tensor(), matmul_tensor(2, 2, 2), sparse332())]
    for seed in range(40):
        supports.append(support(sparse_tensor((3, 3, 2), 2 + seed % 5, seed), 0.0).points)
    verdicts = [functionals._is_free(points) for points in supports]
    assert verdicts == [reference(points) for points in supports]
    assert verdicts[:3] == [True, True, False]  # W, matmul<2,2,2>, sparse332
    assert True in verdicts[3:] and False in verdicts[3:]


@pytest.mark.parametrize("label, theta", [("w", UNIFORM3), ("w", TAIL_THETA),
                                          ("matmul222", ThetaWeights.theta([0.5, 0.25, 0.25]))])
def test_free_support_certifies_the_lower_end(label, theta):
    t = {"w": w_tensor(), "matmul222": matmul_tensor(2, 2, 2)}[label]
    hi, opt = exact_support_bound(t, theta, FAST.inner_tol)
    ref, _ = entropic_scaling(t, theta, upper_bits=hi, width=bracket_width(FAST.inner_tol))
    q = quantum_functional(t, theta, inner_tol=FAST.inner_tol)
    assert q.lower_end == "free_support" and q.group_factors is None and q.converged
    assert q.bracket == (-opt.value, hi) and q.bits == -opt.value
    assert 0.0 <= hi - q.bits <= bracket_width(FAST.inner_tol)
    assert q.bits >= ref.bits - 1e-15  # at or above the scaling's iterate
    for p, r in zip(q.witness.probs, opt.marginals.probs):
        assert np.array_equal(p, np.sort(r)[::-1])


@pytest.mark.parametrize("label", ["gl.w", "sparse332-8"])
def test_square_pencil_certifies_the_trivial_maximum(label):
    t, n = {"gl.w": (gl_w_tensor(), 2), "sparse332-8": (sparse_tensor((3, 3, 2), 8, 0), 3)}[label]
    q = quantum_functional(t, TAIL_THETA, inner_tol=FAST.inner_tol)
    bits = 0.6 * np.log2(n) + 0.4 * np.log2(n)
    assert q.lower_end == "square_pencil" and q.group_factors is None and q.converged
    assert q.bits == bits and q.bracket == (bits, bits)  # 1.0 exactly on GL.W
    uniform = np.full(n, 1.0 / n)
    assert [p.tolist() for p in q.witness.probs] == [uniform.tolist(), uniform.tolist(), [1.0, 0.0]]
    hi, _ = exact_support_bound(t, TAIL_THETA, FAST.inner_tol)
    ref, _ = entropic_scaling(t, TAIL_THETA, upper_bits=hi, width=bracket_width(FAST.inner_tol))
    assert ref.bits <= q.bits <= hi and q.bits - ref.bits <= bracket_width(FAST.inner_tol)


def test_certificate_needs_the_solve_tolerance_and_a_pencil_value_within_hi(monkeypatch):
    bound = functionals.exact_support_bound
    # W's solve misses its tolerance; GL.W's pencil value lies above hi
    for t, shift_hi, gap in ((w_tensor(), 0.0, 1e-6), (gl_w_tensor(), -1e-9, None)):
        def patched(*args, shift_hi=shift_hi, gap=gap):
            hi, opt = bound(*args)
            if gap is not None:
                opt = dataclasses.replace(opt, certified_gap=gap)
            return hi + shift_hi, opt

        monkeypatch.setattr(functionals, "exact_support_bound", patched)
        assert quantum_functional(t, TAIL_THETA).lower_end == "scaling"


def test_bracket_stopped_factors_witness_the_endpoint():
    _, t, theta, _, _ = _uncertified_cases()[-1]
    cert = quantum_functional(t, theta)
    assert cert.lower_end == "scaling"
    assert cert.bracket[1] - cert.bracket[0] <= bracket_width(1e-8)
    _assert_factors_witness(cert.group_factors, t, cert.witness)


def test_bracket_on_a_full_support_generic_tensor():
    rng = np.random.default_rng(17)
    for dims, theta in (((2, 3, 4), [0.5, 0.25, 0.25]), ((2, 2, 2), [0.6, 0.4, 0.0])):
        t = random_tensor(dims, rng)
        cert = quantum_functional(t, ThetaWeights.theta(theta))
        lo, hi = cert.bracket
        assert cert.converged and lo == cert.bits and lo <= hi
        # the full support attains every product of uniform marginals
        assert abs(hi - sum(th * np.log2(n) for th, n in zip(theta, dims))) <= 1e-8



def _act(factors, t: Tensor) -> Tensor:
    """unit((x_j factors_j) . t), by one plain einsum."""
    legs, outs = "abcdefgh"[: t.order], "ijklmnop"[: t.order]
    spec = ",".join(o + i for o, i in zip(outs, legs)) + f",{legs}->{outs}"
    return Tensor(np.einsum(spec, *factors, t.entries)).unit()


def _assert_factors_witness(factors, t: Tensor, witness) -> None:
    for f in factors:
        assert abs(np.linalg.norm(f, 2) - 1.0) <= 1e-12
    spectra = [np.linalg.eigvalsh(rho)[::-1] for rho in moment_map(_act(factors, t))]
    for lam, p in zip(spectra, witness.probs):
        assert np.abs(lam - p).max() <= 1e-8


@pytest.mark.parametrize(
    "label, theta",
    [("w", [0.6, 0.4, 0.0]), ("rand234", [0.5, 0.25, 0.25]), ("rand2222", [0.4, 0.3, 0.2, 0.1])],
)
def test_scaling_factors_witness_the_endpoint(w, label, theta):
    rng = np.random.default_rng(31)
    t = {"w": w, "rand234": random_tensor((2, 3, 4), rng), "rand2222": random_tensor((2, 2, 2, 2), rng)}[label]
    cert, trace = entropic_scaling(t, ThetaWeights.theta(theta))
    assert cert.converged
    assert all(np.array_equal(f, g) for f, g in zip(cert.group_factors, trace.group_factors))
    _assert_factors_witness(cert.group_factors, t, cert.witness)


def test_descent_factors_witness_the_best_point(w):
    ww = tensor_product(w, w)
    res = minimize_over_moment_polytope(ww, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])))
    _assert_factors_witness(res.group_factors, ww, res.witness)


def test_descent_at_iteration_cap_is_not_converged(w):
    ww = tensor_product(w, w)
    res = minimize_over_moment_polytope(ww, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), max_iter=14)
    assert res.iterations >= 14
    assert not res.converged and res.stop == "cap"


def test_descent_that_stalls_at_its_last_level_says_stall(w):
    # W starts at the linf minimum 2/3: every level ends after two stalls
    res = minimize_over_moment_polytope(w, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])))
    assert (res.iterations, res.stop, res.converged) == (14, "stall", False)
    assert abs(res.value - 2 / 3) <= 1e-12


def test_unbounded_descent_on_ww_runs_to_the_cap(w):
    # the first two levels stall after 12 and 141 steps, the last five use
    # their whole share of 858
    res = minimize_over_moment_polytope(
        tensor_product(w, w), MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), max_iter=6000
    )
    assert res.iterations == 4443
    assert res.stop == "cap" and not res.converged


def test_descent_whose_step_underflows_the_tensor_still_ends():
    # the doubled step gives the leg of dimension 1 a factor of about 4e-223,
    # which underflows the whole tensor; that step scores +inf, and the run
    # ends at the minimum 1/alpha_2 = 2, fixed by the leg of dimension 1
    t = random_tensor((3, 3, 1), np.random.default_rng(3))
    res = minimize_over_moment_polytope(t, MaxInfNorm(ThetaWeights.alpha([1, 2, 0.5])), max_iter=6000)
    assert res.converged and res.stop == "tol"
    assert abs(res.value - 2.0) <= 1e-9
    _assert_factors_witness(res.group_factors, t, res.witness)


def test_descent_bound_never_met_leaves_the_run_unchanged():
    t = random_tensor((2, 3, 4), np.random.default_rng(0))
    objective = MaxInfNorm(ThetaWeights.alpha([1, 1, 1]))
    free = minimize_over_moment_polytope(t, objective, max_iter=200)
    bounded = minimize_over_moment_polytope(t, objective, max_iter=200, bound=0.0)
    assert (bounded.value, bounded.iterations, bounded.stop) == (free.value, free.iterations, free.stop)
    assert all(np.array_equal(f, g) for f, g in zip(bounded.group_factors, free.group_factors))


def test_descent_stops_at_the_bound():
    t = random_tensor((2, 3, 4), np.random.default_rng(0))
    objective = MaxInfNorm(ThetaWeights.alpha([1, 1, 1]))
    res = minimize_over_moment_polytope(t, objective, bound=np.inf)  # met at the start
    assert (res.iterations, res.stop, res.converged) == (0, "bracket", True)
    start = res.value
    free = minimize_over_moment_polytope(t, objective, max_iter=200)
    target = 0.5 * (start + free.value)
    res = minimize_over_moment_polytope(t, objective, max_iter=200, bound=target)
    assert res.stop == "bracket" and res.converged
    assert res.value <= target and 0 < res.iterations < free.iterations
    _assert_factors_witness(res.group_factors, t, res.witness)


def _kernel_cases() -> list[tuple[str, Tensor]]:
    rng = np.random.default_rng(2027)
    e0m = np.zeros((2, 3, 3), dtype=complex)
    e0m[0, :2, :2] = rng.standard_normal((2, 2))  # rank 2, with exact null spaces
    return [
        ("rand234", random_tensor((2, 3, 4), rng)),
        ("rand332", random_tensor((3, 3, 2), rng)),
        ("rand2222", random_tensor((2, 2, 2, 2), rng)),
        ("e0 x rank-2", Tensor(e0m)),
    ]


@pytest.mark.parametrize("label, t", _kernel_cases(), ids=[c[0] for c in _kernel_cases()])
def test_scaling_matches_leg_by_leg_reference(label, t):
    theta = np.arange(t.order, 0, -1) / np.arange(t.order, 0, -1).sum()
    _, trace = entropic_scaling(t, ThetaWeights.theta(theta), tol=0.0, max_iter=200)
    x, ref = t.unit(), []
    for _ in range(200):
        bits, x = scaling_step(x, theta)
        ref.append(bits)
    ref.append(scaling_step(x, theta)[0])
    assert trace.objective_bits.shape == (201,)
    assert np.abs(trace.objective_bits - ref).max() <= 1e-12


@pytest.mark.parametrize("label, t", _kernel_cases(), ids=[c[0] for c in _kernel_cases()])
@pytest.mark.parametrize("kind", ["linf", "l1"])
def test_descent_matches_leg_by_leg_reference(label, t, kind, monkeypatch):
    # at this sharpness every case takes steps; on e0 x rank-2 the l1 step
    # acts on the null space of the rank-1 marginal of leg 0
    sharp, steps = 16.0, 50
    monkeypatch.setattr(functionals, "SHARPNESS_SCHEDULE", (sharp,))
    base = MaxInfNorm if kind == "linf" else L1FromUniform
    args = (ThetaWeights.alpha([1.0] * t.order),) if kind == "linf" else ()

    class Recorded(base):
        def value(self, p):
            self.seen.append((super().value(p), np.concatenate(p)))
            return self.seen[-1][0]

    objective = Recorded(*args)
    objective.seen = []
    minimize_over_moment_polytope(t, objective, max_iter=steps - 1)  # steps iterations
    reference = base(*args)
    legs, x, step, stall, ref, moves = list(range(t.order)), t.unit(), 1.0, 0, [], 0
    for _ in range(steps):
        lams, x, eta = descent_step(x, reference, sharp, step, legs)
        ref.append(lams)
        if eta is None:
            stall += 1
            if stall >= 2:
                break
            continue
        step, stall, moves = eta, 0, moves + 1
    assert moves >= 10
    assert len(objective.seen) - 1 == len(ref)
    for (value, spectra), lams in zip(objective.seen[1:], ref):
        assert abs(value - reference.value(lams)) <= 1e-12
        assert np.abs(spectra - np.concatenate(lams)).max() <= 1e-12


def test_quantum_functional_examples(w):
    assert abs(quantum_functional(make_unit(3, 3), UNIFORM3).value - 3) <= 1e-8
    assert abs(quantum_functional(w, UNIFORM3).value - F_W) <= 1e-8


def test_quantum_functional_orbit_invariance(w):
    rng = np.random.default_rng(4)
    g = random_group_element(w.dims, rng, unitary=False)
    v1 = quantum_functional(w, UNIFORM3).value
    v2 = quantum_functional(apply_group(g, w), UNIFORM3).value
    assert abs(v1 - v2) <= 1e-6


def test_quantum_functional_additive_multiplicative(w):
    rng = np.random.default_rng(5)
    t = random_tensor((2, 2, 2), rng)
    theta = ThetaWeights.theta([0.4, 0.3, 0.3])
    fw = quantum_functional(w, theta).value
    ft = quantum_functional(t, theta).value
    fsum = quantum_functional(direct_sum(w, t), theta).value
    fprod = quantum_functional(tensor_product(w, t), theta).value
    assert abs(fsum - (fw + ft)) <= 1e-3 * (fw + ft)
    assert abs(fprod - fw * ft) <= 1e-3 * fw * ft


def test_support_functional_examples(w):
    for r in (1, 2, 3):
        cert = support_functional(make_unit(r, 3), UNIFORM3, FAST)
        assert abs(cert.value - r) <= 1e-6
    cert = support_functional(w, UNIFORM3, FAST)
    assert abs(cert.value - F_W) <= 1e-6
    assert cert.gap is not None and -1e-3 <= cert.gap <= 2e-3
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    assert abs(support_functional(Tensor(arr), UNIFORM3, FAST).value - 1.0) <= 1e-9


def test_support_upper_bounds_quantum_weak_duality():
    rng = np.random.default_rng(6)
    for dims in ((2, 2, 2), (2, 3, 4)):
        t = random_tensor(dims, rng)
        theta = ThetaWeights.theta(rng.dirichlet([1.0] * 3))
        z = support_functional(t, theta, FAST, compute_gap=False).value
        q = quantum_functional(t, theta).value
        assert z >= q - 1e-3


def test_unitary_candidates_are_drawn_lazily(w, monkeypatch):
    t = random_tensor((2, 3, 4), np.random.default_rng(1))
    cands = list(unitary_candidates(t))
    assert len(cands) == 2
    for f, n in zip(cands[0].factors, t.dims):
        assert np.array_equal(f, np.eye(n))
    for f, g in zip(cands[1].factors, functionals._eigenbasis_unitary(t).factors):
        assert np.array_equal(f, g)
    eigenbases = []
    eig = functionals._eigenbasis_unitary
    monkeypatch.setattr(functionals, "_eigenbasis_unitary",
                        lambda t: eigenbases.append(t) or eig(t))
    list(itertools.islice(unitary_candidates(t), 1))
    assert eigenbases == []
    # a search that stops at the identity never computes the eigenbasis
    assert support_functional(w, UNIFORM3, FAST).bases_scored == 1
    assert minimax_gap(w, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), FAST).bases_scored == 1
    assert eigenbases == []


def test_basis_search_ties_keep_the_earlier_candidate():
    values = {"a": 1.0, "b": 1.0, "c": 1.0 - 1e-16, "e": 1.0 - 1e-15, "d": 0.5}
    found = functionals._basis_search("abce", lambda c: (values[c], c.upper()))
    assert found == (1.0, "a", "A", 4)
    assert functionals._basis_search("abcd", lambda c: (values[c], None))[:2] == (0.5, "d")
    # a maximizing search scores the negated value, with the same tie rule
    neg = {"a": -1.0, "b": -1.0 - 1e-16, "c": -2.0}
    assert functionals._basis_search("abc", lambda c: (neg[c], None))[:2] == (-2.0, "c")
    assert functionals._basis_search("ab", lambda c: (neg[c], None))[:2] == (-1.0, "a")


def test_basis_search_stops_after_the_candidate_that_meets_the_stop():
    drawn, stops = [], []

    def candidates():
        for k in range(8):
            drawn.append(k)
            yield k

    values = [5.0, 4.0, 4.5, 2.0, 1.0, 0.0, 0.0, 0.0]
    found = functionals._basis_search(
        candidates(), lambda k: (values[k], 10 * k),
        lambda v, p: stops.append((v, p)) or v <= 2.0)
    assert found == (2.0, 3, 30, 4)
    assert drawn == [0, 1, 2, 3]
    # the stop sees the best so far, not the candidate just scored
    assert stops == [(5.0, 0), (4.0, 10), (4.0, 10), (2.0, 30)]


def test_basis_search_counts_the_candidates_drawn():
    drawn = []
    found = functionals._basis_search(iter(range(5)), lambda k: drawn.append(k) or (-k, None))
    assert found == (-4, 4, None, 5) and drawn == list(range(5))
    found = functionals._basis_search(iter(range(5)), lambda k: (-k, None), lambda v, _: False)
    assert found[3] == 5
    assert functionals._basis_search([], lambda k: (k, None)) == (np.inf, None, None, 0)


@pytest.mark.parametrize("label,t", basis_search_corpus())
def test_support_search_stopped_by_bracket_matches_full_scan(label, t):
    for theta in (UNIFORM3, ThetaWeights.theta([0.5, 0.25, 0.25])):
        stopped = support_functional(t, theta, FAST)
        full = support_functional(t, theta, FAST, compute_gap=False)
        assert full.bases_scored == 2
        assert 1 <= stopped.bases_scored <= full.bases_scored
        assert abs(stopped.bits - full.bits) <= 2 * FAST.inner_tol
        for a, b in zip(stopped.group_factors, full.group_factors):
            assert np.abs(a - b).max() <= 2 * FAST.inner_tol


def test_support_search_stops_at_the_first_basis_meeting_the_bound(w):
    cert = support_functional(w, UNIFORM3, FAST)
    assert cert.bases_scored == 1
    assert abs(cert.value - F_W) <= 1e-6
    # the run stops up to the bracket width below the support value
    for label, t in _tail_cases():
        cert = support_functional(t, TAIL_THETA, FAST)
        lo, hi = cert.bracket
        assert cert.bases_scored == 1 and lo <= cert.bits <= hi
        assert 0.0 <= cert.bits - lo <= bracket_width(FAST.inner_tol)


def test_support_search_reuses_the_exact_support_solve(w, monkeypatch):
    solves = []
    solve = functionals.min_convex_over_support
    monkeypatch.setattr(functionals, "min_convex_over_support",
                        lambda s, *a, **k: solves.append(s.size) or solve(s, *a, **k))
    cert = support_functional(w, TAIL_THETA, FAST)
    assert solves == [3] and cert.bases_scored == 1
    solves.clear()
    rep = minimax_gap(w, NegWeightedEntropy(TAIL_THETA), FAST)
    assert solves == [3] and rep.bases_scored == 1
    assert rep.lhs_certificate.bracket[0] == -rep.lhs


def test_support_search_open_bracket_scores_every_basis():
    cert = support_functional(gl_w_tensor(), UNIFORM3, FAST)
    assert cert.bases_scored == 2
    assert cert.gap > 1e-3


def test_symmetric_functional_examples(w):
    assert abs(symmetric_quantum_functional(make_unit(3, 3)).value - 3) <= 1e-8
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    assert abs(symmetric_quantum_functional(Tensor(arr)).value - 1.0) <= 1e-9
    assert abs(symmetric_quantum_functional(w).value - F_W) <= 1e-8
    with pytest.raises(InvalidArgumentError):
        symmetric_quantum_functional(Tensor(np.ones((2, 3, 2))))


def _symmetric_reuse_corpus() -> list[tuple[str, Tensor]]:
    out = [("w", w_tensor()), ("unit3", make_unit(3, 3)), ("matmul222", matmul_tensor(2, 2, 2))]
    rng = np.random.default_rng(28)
    for k in range(30):
        arr = random_tensor((2 + k % 2,) * 3, rng).entries.copy()
        if k % 3 == 0:  # a third sparsified
            arr[rng.random(arr.shape) < 0.5] = 0.0
            arr.flat[0] += not arr.any()
        out.append((f"rand{k}", Tensor(arr)))
    return out


def test_symmetric_functional_reports_the_last_iterate_without_a_second_spectrum(monkeypatch):
    # each iterate's summed marginal is taken once, and the value, bits and
    # witness are, bit for bit, those of the last iterate's spectrum
    seen = []
    summed = functionals._LegViews.summed_marginal
    monkeypatch.setattr(functionals._LegViews, "summed_marginal",
                        lambda self, s: seen.append((self, s)) or summed(self, s))
    for label, t in _symmetric_reuse_corpus():
        seen.clear()
        cert = symmetric_quantum_functional(t)
        assert len({id(s) for _, s in seen}) == len(seen), label
        views, last = seen[-1]
        lam = np.clip(functionals._sorted_eigh(summed(views, last))[0], 0.0, None)
        p = lam / lam.sum()
        bits = functionals.shannon_entropy(p)
        assert cert.witness.probs[0].tobytes() == p.tobytes(), label
        assert (cert.bits, cert.value) == (float(bits), float(2.0**bits)), label


def test_symmetric_functional_submultiplicative():
    corpus = symmetric_corpus()
    for (n1, a), (n2, b) in [
        (corpus[0], corpus[0]),
        (corpus[0], corpus[1]),
        (corpus[3], corpus[0]),
    ]:
        fa = symmetric_quantum_functional(a).value
        fb = symmetric_quantum_functional(b).value
        fab = symmetric_quantum_functional(tensor_product(a, b)).value
        assert fab <= fa * fb + 1e-3, (n1, n2)


def test_symmetric_minimax_variant(w):
    q = symmetric_quantum_functional(w).value
    z = symmetric_support_functional(w, FAST).value
    assert abs(q - z) <= 1e-3


@pytest.mark.parametrize("label,bits", [("unit3", np.log2(3)), ("w", 0.9182958340544896),
                                        ("matmul222", 2.0)])
def test_symmetric_support_functional_meets_the_quantum_side(label, bits):
    t = {"unit3": make_unit(3, 3), "w": w_tensor(), "matmul222": matmul_tensor(2, 2, 2)}[label]
    q = symmetric_quantum_functional(t)
    z = symmetric_support_functional(t)
    assert abs(z.bits - q.bits) <= 1e-15 and abs(z.bits - bits) <= 1e-12
    assert z.bases_scored == 2 and z.converged
    assert len(z.group_factors) == 1


def test_symmetric_support_search_scores_the_identity_and_the_eigenbasis(w, monkeypatch):
    scored = []
    apply = functionals.apply_group
    monkeypatch.setattr(functionals, "apply_group",
                        lambda g, t: scored.append(g.factors) or apply(g, t))
    cert = symmetric_support_functional(w)
    assert cert.bases_scored == len(scored) == 2
    assert all(np.array_equal(f, fs[0]) for fs in scored for f in fs)  # one unitary on every leg
    assert np.array_equal(scored[0][0], np.eye(2))
    mu = sum(functionals.marginal(w, j) for j in range(3))
    assert np.allclose(scored[1][0] @ mu @ scored[1][0].conj().T, np.diag([2.0, 1.0]))


def test_minimax_gap_examples(w, matmul222):
    # an objective without a support-side solver is rejected
    class Const:
        def value(self, p):
            return 0.0

        def minorant(self, p, sharp):
            return 0.0, [np.zeros_like(q) for q in p]

        def smooth_value(self, p, sharp):
            return 0.0

    with pytest.raises(InvalidArgumentError):
        minimax_gap(w, Const(), FAST)

    rep = minimax_gap(make_unit(2, 3), NegWeightedEntropy(UNIFORM3), FAST)
    assert abs(rep.lhs + 1.0) <= 1e-8 and abs(rep.gap) <= 1e-8

    rep = minimax_gap(w, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), FAST)
    assert abs(rep.lhs - 2 / 3) <= 1e-6 and abs(rep.gap) <= 1e-6

    rep = minimax_gap(w, MaxInfNorm(ThetaWeights.alpha([2, 1, 1])), FAST)
    assert abs(rep.lhs - 0.5) <= 1e-3 and abs(rep.gap) <= 1e-3

    rep = minimax_gap(w, L1FromUniform(), FAST)
    assert abs(rep.lhs - 1.0) <= 1e-3 and abs(rep.gap) <= 1e-3

    rep = minimax_gap(matmul222, L1FromUniform(), FAST)
    assert abs(rep.lhs) <= 1e-6 and abs(rep.gap) <= 1e-6


def test_minimax_closed_bracket_converges_and_stops_the_search():
    t = random_tensor((3, 3, 3), np.random.default_rng(7))
    rep = minimax_gap(t, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), FAST)
    # no certificate covers a generic 3x3x3 tensor: both bases are scored,
    # then the descent stops once its value meets the best support bound
    assert rep.lhs_certificate.lower_end is None
    assert rep.lhs_certificate.converged is True
    assert rep.converged is True and rep.bases_scored == 2
    assert abs(rep.gap) <= 1e-6


@pytest.mark.parametrize("label", ["w", "matmul222", "unit3"])
def test_minimax_on_a_free_support_makes_no_descent(label, monkeypatch):
    t = {"w": w_tensor(), "matmul222": matmul_tensor(2, 2, 2), "unit3": make_unit(3, 3)}[label]

    def refuse(*args, **kwargs):
        raise AssertionError("moment descent on a free support")

    monkeypatch.setattr(functionals, "minimize_over_moment_polytope", refuse)
    # the linf minima are 1 / (G-stable rank), the l1 minima of W and the
    # unit tensors are at the start; on a free support both are the support
    # programs, whose solve the identity basis reuses
    known = {"w": (2 / 3, 1.0), "matmul222": (0.25, 0.0), "unit3": (1 / 3, 0.0)}[label]
    for objective, value in zip((MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), L1FromUniform()), known):
        rep = minimax_gap(t, objective, FAST)
        assert rep.lhs_certificate.lower_end == "free_support"
        assert rep.converged and rep.bases_scored == 1
        assert abs(rep.lhs - value) <= 1e-6 and abs(rep.rhs - value) <= 1e-6


@pytest.mark.parametrize("label", ["rand333", "sparse332"])
def test_minimax_descents_stop_at_the_support_bound(label, monkeypatch):
    # neither tensor is free or certified semistable, so each objective
    # scores both bases, then runs a descent, which stops once it meets the
    # best support bound
    t = {"rand333": random_tensor((3, 3, 3), np.random.default_rng(7)),
         "sparse332": sparse332()}[label]
    descents = []
    descend = functionals.minimize_over_moment_polytope
    monkeypatch.setattr(functionals, "minimize_over_moment_polytope",
                        lambda *a, **k: descents.append(descend(*a, **k)) or descents[-1])
    for objective in (MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), L1FromUniform()):
        rep = minimax_gap(t, objective, FAST)
        assert descents[-1].stop == "bracket"
        assert rep.lhs_certificate.lower_end is None
        assert rep.converged and rep.bases_scored == 2
        assert abs(rep.gap) <= 1e-6


def test_minimax_linf_and_g_stable_rank_agree_off_the_identity():
    # flattening 0 of this sparse 3x3x3 tensor has rank 2, so every moment
    # point has F >= 1 at alpha = (1/2, 1, 3/2); the identity's support
    # program reads 2/3 and the eigenbasis's 1.  Scoring every basis before
    # the descent aims it at 1, not at the identity's 2/3
    t = sparse_tensor((3, 3, 3), 6, 8)
    alpha = ThetaWeights.alpha([0.5, 1.0, 1.5])
    rep = minimax_gap(t, MaxInfNorm(alpha), FAST)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert 1.0 <= rep.lhs <= 1.0 + 1e-6 and rep.converged
    assert abs(g_stable_rank(t, alpha, FAST).routes["cover_lp"] - 1.0 / rep.rhs) <= 1e-12


def test_minimax_open_bracket_reports_the_descent_flag(monkeypatch):
    t = random_tensor((3, 3, 3), np.random.default_rng(7))
    descend = functionals.minimize_over_moment_polytope
    monkeypatch.setattr(functionals, "minimize_over_moment_polytope",
                        lambda *a, **k: descend(*a, **{**k, "max_iter": 3}))
    rep = minimax_gap(t, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), FAST)
    assert rep.lhs - rep.rhs > 1e-6
    assert rep.converged is rep.lhs_certificate.converged is False
    assert rep.bases_scored == 2


def test_minimax_witnesses_are_feasible(w):
    rep = minimax_gap(w, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])), FAST)
    for p in rep.lhs_certificate.witness.probs:
        assert abs(p.sum() - 1) <= 1e-9
        assert np.all(np.diff(p) <= 1e-12)  # sorted non-increasing spectra
    for p in rep.rhs_certificate.witness.probs:
        assert abs(p.sum() - 1) <= 1e-9


def test_zero_tensor_rejected_everywhere():
    z = Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(InvalidArgumentError):
        quantum_functional(z, UNIFORM3)
    with pytest.raises(InvalidArgumentError):
        moment_map(z)
    with pytest.raises(InvalidArgumentError):
        torus_moment_map(z)
