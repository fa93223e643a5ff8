import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import F_W, H13_BITS, sparse_tensor
from oracles import grid_max_weighted_entropy, grid_min_convex, simplex_grid
from spectrumkit import (
    InvalidArgumentError,
    JointDistribution,
    LinearProgram,
    SupportSet,
    Tensor,
    ThetaWeights,
    hypergraph_of,
    kronecker_power,
    make_unit,
    marginals_of,
    max_min_weighted_entropy,
    max_weighted_entropy,
    min_convex_over_support,
    solve_lp,
    support,
    w_tensor,
)
from spectrumkit import optim
from spectrumkit.optim import (
    L1FromUniform,
    MaxInfNorm,
    NegSummedEntropy,
    NegWeightedEntropy,
    _assess,
    _newton,
    _SupportProgram,
    max_min_weighted_entropy_witness,
    shannon_entropy,
)


def rand_support(rng, dims=None, max_points=6) -> SupportSet:
    dims = dims or tuple(int(rng.integers(2, 4)) for _ in range(3))
    m = int(rng.integers(2, max_points + 1))
    pts = set()
    while len(pts) < m:
        pts.add(tuple(int(rng.integers(0, n)) for n in dims))
    return SupportSet(dims, np.array(sorted(pts)))


def test_theta_weights_roles():
    th = ThetaWeights.theta([0.5, 0.25, 0.25])
    assert abs(th.values.sum() - 1) <= 1e-12
    with pytest.raises(InvalidArgumentError):
        ThetaWeights.theta([0.5, 0.6])
    with pytest.raises(InvalidArgumentError):
        ThetaWeights.xi([0.5, 0.5])
    with pytest.raises(InvalidArgumentError):
        ThetaWeights.alpha([1.0, 0.0])


def test_marginals_of_examples(w):
    s = support(w, 0.0)
    p = marginals_of(JointDistribution.uniform(s))
    for q in p.probs:
        assert np.allclose(q, [2 / 3, 1 / 3])
    # point mass
    weights = np.zeros(3)
    # support points are sorted: (0,0,1), (0,1,0), (1,0,0); put mass on (1,0,0)
    weights[2] = 1.0
    p = marginals_of(JointDistribution(s, weights))
    assert np.allclose(p.probs[0], [0, 1])
    assert np.allclose(p.probs[1], [1, 0])
    s2 = support(make_unit(2, 3), 0.0)
    p = marginals_of(JointDistribution.uniform(s2))
    for q in p.probs:
        assert np.allclose(q, [0.5, 0.5])


def test_max_weighted_entropy_unit_tensors():
    for r in (1, 2, 3, 4):
        s = support(make_unit(r, 3), 0.0)
        bits, dist = max_weighted_entropy(s, ThetaWeights.uniform(3))
        assert abs(2.0**bits - r) <= 1e-8 * r
        assert abs(dist.weights.sum() - 1) <= 1e-12


@pytest.mark.parametrize("m, steps", [(3, 40), (4, 12), (2, 7), (5, 6)])
def test_simplex_grid_rows_match_the_multiset_enumeration(m, steps):
    grid = simplex_grid(m, steps)
    ref = {tuple(np.bincount(c, minlength=m) / steps)
           for c in itertools.combinations_with_replacement(range(m), steps)}
    assert grid.shape == (len(ref), m)
    assert {tuple(row) for row in grid} == ref


def test_max_weighted_entropy_w_equals_grid_oracle(w):
    s = support(w, 0.0)
    bits, _ = max_weighted_entropy(s, ThetaWeights.uniform(3))
    assert abs(bits - H13_BITS) <= 1e-9
    assert abs(2.0**bits - F_W) <= 1e-8
    oracle = grid_max_weighted_entropy(s.points, s.dims, [1 / 3] * 3, steps=1000)
    assert bits >= oracle - 1e-12
    assert bits - oracle <= 5e-6  # grid resolution


def test_max_weighted_entropy_matmul_uniform(matmul222):
    s = support(matmul222, 0.0)
    for theta in ([1 / 3] * 3, [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]):
        bits, _ = max_weighted_entropy(s, ThetaWeights.theta(theta))
        assert abs(bits - 2.0) <= 1e-8


def test_max_weighted_entropy_empty_support_rejected():
    with pytest.raises(InvalidArgumentError):
        SupportSet((2, 2), np.zeros((0, 2), dtype=int))


def test_max_min_weighted_entropy_examples(w):
    s = support(w, 0.0)
    v = max_min_weighted_entropy(s, ThetaWeights.xi([1, 1, 1]))
    assert abs(v - H13_BITS) <= 1e-7
    for r in (1, 2, 3):
        su = support(make_unit(r, 3), 0.0)
        assert abs(max_min_weighted_entropy(su, ThetaWeights.xi([1, 1, 1])) - np.log2(r)) <= 1e-7
    # single support point: all marginals deterministic
    sp = SupportSet((2, 2, 2), np.array([[1, 0, 1]]))
    assert abs(max_min_weighted_entropy(sp, ThetaWeights.xi([1, 0.5, 1]))) <= 1e-12


def test_max_min_zero_xi_drops_leg(w):
    s = support(w, 0.0)
    v = max_min_weighted_entropy(s, ThetaWeights.xi([1, 0, 0]))
    assert abs(v - 1.0) <= 1e-7  # p_1 = (1/2, 1/2) achievable once legs 2, 3 are ignored


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_max_min_matches_theta_formula(seed):
    # second description: min over theta of (max weighted entropy) / <theta, xi>
    rng = np.random.default_rng(seed)
    s = rand_support(rng)
    xi = ThetaWeights.xi([1.0, 1.0, 1.0])
    v = max_min_weighted_entropy(s, xi)
    best = np.inf
    for th in np.ndindex(7, 7, 7):  # includes boundary weights, where minima often sit
        th = np.array(th, dtype=float)
        if th.sum() == 0:
            continue
        th /= th.sum()
        bits, _ = max_weighted_entropy(s, ThetaWeights.theta(th), tol=1e-9)
        best = min(best, bits / float(th @ xi.values))
    assert v <= best + 1e-6
    assert v >= best - 2e-3  # grid resolution on the theta simplex


def test_min_convex_is_negated_entropy_program(w):
    s = support(w, 0.0)
    theta = ThetaWeights.uniform(3)
    opt = min_convex_over_support(s, NegWeightedEntropy(theta))
    bits, _ = max_weighted_entropy(s, theta)
    assert abs(opt.value + bits) <= 1e-9


def test_min_convex_inf_norm_on_w(w):
    s = support(w, 0.0)
    opt = min_convex_over_support(s, MaxInfNorm(ThetaWeights.alpha([1, 1, 1])))
    assert abs(opt.value - 2 / 3) <= 1e-7
    oracle = grid_min_convex(
        s.points, s.dims, lambda p: max(q.max() for q in p), steps=400
    )
    assert opt.value <= oracle + 1e-9


def test_min_convex_l1_perfect_matching():
    s = support(make_unit(2, 2), 0.0)  # bipartite perfect matching support
    opt = min_convex_over_support(s, L1FromUniform())
    assert abs(opt.value) <= 1e-7


def test_certified_gap_is_sound(w):
    s = support(w, 0.0)
    for objective in (
        NegWeightedEntropy(ThetaWeights.uniform(3)),
        MaxInfNorm(ThetaWeights.alpha([2, 1, 1])),
        L1FromUniform(),
    ):
        opt = min_convex_over_support(s, objective)
        oracle = grid_min_convex(s.points, s.dims, objective.value, steps=300)
        # value minus certified gap is a lower bound on the true optimum
        assert opt.value - opt.certified_gap <= oracle + 1e-6


def test_max_min_bracket_is_sound():
    # hi bounds every feasible min_j H_j / xi_j from above, and lo is the
    # value of the returned witness
    for seed in range(150):
        rng = np.random.default_rng(seed)
        s = rand_support(rng, max_points=8)
        theta = rng.dirichlet([1.0] * 3)
        xi = ThetaWeights.xi(theta / theta.max())
        opt = max_min_weighted_entropy_witness(s, xi)[0]
        prog = _SupportProgram(s)

        def ratio(w):
            p = prog.marginals(w)
            return min(shannon_entropy(p[j]) / x for j, x in enumerate(xi.values) if x > 0)

        samples = [np.eye(s.size)[i] for i in range(s.size)]
        samples += [rng.dirichlet(np.full(s.size, a)) for a in (1.0, 0.3, 0.1) for _ in range(100)]
        feasible = max(ratio(v) for v in samples)
        assert opt.value + opt.certified_gap >= feasible - 1e-12, seed
        assert opt.value == ratio(opt.distribution.weights), seed
        assert opt.certified_gap <= 1e-7, seed


def test_max_min_on_a_sparse_support_closes_at_one_bit():
    # a 5-point support in 3x3x2 on which exponentiated gradient spent
    # about a minute and stopped short of 1 bit
    pts = np.array([(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 2, 1)])
    s = SupportSet((3, 3, 2), pts)
    assert abs(max_min_weighted_entropy(s, ThetaWeights.xi([1, 1, 1]), tol=1e-8) - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("xi", [(1.0, 0.5, 1.0), (1.0, 1.0, 0.25)])
def test_max_min_bracket_closes_on_w_powers(n, xi):
    s = kronecker_power(hypergraph_of(w_tensor()), n).as_support()
    opt = max_min_weighted_entropy_witness(s, ThetaWeights.xi(xi), tol=1e-7)[0]
    assert opt.certified_gap <= 1e-7
    assert abs(opt.value - min(opt.marginals.entropies() / np.array(xi))) <= 1e-12
    # at least the value at xi = 1, at most the n bits that leg 0 can carry
    assert n * H13_BITS <= opt.value <= n
    # Newton steps over theta from the third oracle on (plain Kelley: 24-26)
    assert opt.iterations <= {(1.0, 0.5, 1.0): 8, (1.0, 1.0, 0.25): 12}[xi]


@pytest.mark.parametrize("xi", [(1.0, 0.5, 1.0), (1.0, 1.0, 0.0)])
def test_max_min_returns_the_theta_of_its_least_upper_end(xi):
    # phi(theta) / <theta, xi> at the returned theta lies in the bracket
    s = kronecker_power(hypergraph_of(w_tensor()), 2).as_support()
    opt, theta = max_min_weighted_entropy_witness(s, ThetaWeights.xi(xi), tol=1e-7)
    assert theta.role == "theta" and abs(theta.values.sum() - 1.0) <= 1e-12
    assert np.all(theta.values[np.array(xi) == 0] == 0.0)
    phi = max_weighted_entropy(s, theta, tol=1e-10)[0] / float(theta.values @ np.array(xi))
    assert opt.value - 1e-9 <= phi <= opt.value + opt.certified_gap + 1e-9


@pytest.mark.parametrize("xi", [(1.0, 0.5, 1.0, 1.0), (1.0, 1.0, 0.25, 1.0)])
def test_max_min_newton_steps_on_four_legs(xi):
    # 4-leg W: the model is minimized over 15 faces (plain Kelley: 44-46 oracles)
    arr = np.zeros((2, 2, 2, 2))
    for j in range(4):
        arr[tuple(np.eye(4, dtype=int)[j])] = 1.0
    s = support(Tensor(arr), 0.0)
    opt = max_min_weighted_entropy_witness(s, ThetaWeights.xi(xi), tol=1e-7)[0]
    assert opt.certified_gap <= 1e-7
    assert opt.iterations <= 14
    assert abs(opt.value - min(opt.marginals.entropies() / np.array(xi))) <= 1e-12


def test_max_min_keeps_kelleys_second_point_at_a_vertex_optimum():
    # the optimal theta is a vertex, which the first master finds
    s = support(sparse_tensor((4, 3, 6), 9, 0), 0.0)
    opt = max_min_weighted_entropy_witness(s, ThetaWeights.xi([1, 1, 0.25]), tol=1e-7)[0]
    assert opt.iterations == 2
    assert opt.certified_gap <= 1e-7


def test_max_min_falls_back_to_kelley_when_the_newton_step_fails(monkeypatch):
    s = kronecker_power(hypergraph_of(w_tensor()), 3).as_support()
    xi = ThetaWeights.xi([1, 0.5, 1])
    newton = max_min_weighted_entropy_witness(s, xi, tol=1e-7)[0]
    calls = []

    def failed(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(optim, "_theta_newton_step", failed)
    kelley = max_min_weighted_entropy_witness(s, xi, tol=1e-7)[0]
    assert calls
    assert kelley.certified_gap <= 1e-7
    assert newton.iterations < kelley.iterations <= optim.MAX_MIN_CUTS
    assert abs(kelley.value - newton.value) <= 1e-7


@pytest.mark.parametrize("point", [(1.0, 0.4, 0.6), (0.9, 0.2, 0.9), (0.6, 0.6, 0.8)])
def test_phi_hessian_matches_differenced_gradients(point):
    # phi(theta) = max_P sum_j theta_j H_j(P) has gradient h(theta), the leg
    # entropies at the optimum; its Hessian is dh/dtheta.  The oracle sees
    # theta / sum(theta), and phi is homogeneous of degree 1
    s = kronecker_power(hypergraph_of(w_tensor()), 2).as_support()
    prog = _SupportProgram(s)
    legs = np.arange(3)

    def oracle(theta):
        objective = NegWeightedEntropy(ThetaWeights.theta(theta / theta.sum()))
        return objective, _newton(prog, objective, 1e-15)[0]

    point = np.array(point)
    objective, w = oracle(point)
    hess = optim._phi_hessian(prog, objective, w, float(point.sum()), legs)
    delta = 1e-5
    diffs = []
    for j in range(3):
        step = delta * np.eye(3)[j]
        up, down = (marginals_of(JointDistribution(s, oracle(point + sign * step)[1])).entropies()
                    for sign in (1, -1))
        diffs.append((up - down) / (2 * delta))
    assert np.allclose(hess, np.array(diffs).T, rtol=1e-4, atol=1e-6)
    assert np.allclose(hess @ point, 0.0, atol=1e-9)  # degree-0 homogeneous h
    assert np.linalg.eigvalsh(hess).min() >= -1e-9  # phi is convex


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("xi", [(1.0, 0.5, 1.0), (1.0, 1.0, 0.25)])
def test_warm_oracles_match_cold_oracles(n, xi, monkeypatch):
    # every oracle after the first starts from the previous optimum blended
    # toward uniform; the reference makes the same solves from uniform
    s = kronecker_power(hypergraph_of(w_tensor()), n).as_support()
    newton = optim._newton
    steps = []

    def counted(prog, objective, tol, start=None):
        w, gap, k = newton(prog, objective, tol, start)
        steps[-1] += k
        return w, gap, k

    def cold(prog, objective, tol, start=None):
        return counted(prog, objective, tol)

    runs = []
    for solver in (counted, cold):
        monkeypatch.setattr(optim, "_newton", solver)
        steps.append(0)
        runs.append(max_min_weighted_entropy_witness(s, ThetaWeights.xi(xi), tol=1e-7)[0])
    warm, reference = runs
    assert abs(warm.value - reference.value) <= 1e-7
    assert warm.certified_gap <= 1e-7
    assert warm.iterations <= reference.iterations
    assert steps[0] < steps[1]


def test_newton_from_a_start_point_certifies_the_same_optimum():
    # interior starts, starts on proper faces whose exact zeros the optimum
    # uses, and vertices all end within tol of the solve from uniform
    cases = [(kronecker_power(hypergraph_of(w_tensor()), 3).as_support(), theta)
             for theta in ([0.5, 0.3, 0.2], [0.5, 0.5, 0.0], [0.2, 0.2, 0.6])]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cases.append((rand_support(rng, max_points=8), rng.dirichlet([1.0] * 3)))
    rng = np.random.default_rng(1)
    for s, theta in cases:
        prog = _SupportProgram(s)
        objective = NegWeightedEntropy(ThetaWeights.theta(theta))
        w0, gap0, _ = _newton(prog, objective, 1e-9)
        value0 = objective.value(prog.marginals(w0))
        # a face without the optimum's heaviest point and about half the others
        top = int(np.argmax(w0))
        face = rng.dirichlet(np.ones(s.size))
        face[top] = 0.0
        face[rng.choice(np.delete(np.arange(s.size), top), (s.size - 2) // 2, replace=False)] = 0.0
        starts = [rng.dirichlet(np.ones(s.size)), face / face.sum(), np.eye(s.size)[np.argmin(w0)]]
        for start in starts:
            w, gap, _ = _newton(prog, objective, 1e-9, start)
            value = objective.value(prog.marginals(w))
            assert gap <= 1e-9
            assert abs(value - value0) <= 1e-9
            # each certificate also bounds the other solve's value
            assert value - gap <= value0 + 1e-12 and value0 - gap0 <= value + 1e-12


def test_summed_entropy_certificate_is_sound_at_exact_zeros():
    # the summed objective's entropy slope is -inf at a coordinate of the
    # summed marginal q without mass, whichever leg reaches it
    violations = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        s = rand_support(rng, dims=(n, n, n), max_points=8)
        objective = NegSummedEntropy(3)
        prog = _SupportProgram(s)
        w = rng.dirichlet(np.ones(s.size))
        w[rng.choice(s.size, int(rng.integers(1, s.size)), replace=False)] = 0.0
        exact, gap, _ = _assess(prog, objective, w / w.sum())
        samples = [np.eye(s.size)[i] for i in range(s.size)]
        samples += [rng.dirichlet(np.full(s.size, a)) for a in (1.0, 0.3, 0.1) for _ in range(100)]
        feasible = min(objective.value(prog.marginals(v)) for v in samples)
        violations += exact - gap > feasible + 1e-12
    assert violations == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.95))
def test_entropy_objective_concavity(seed, lam):
    rng = np.random.default_rng(seed)
    s = rand_support(rng)
    theta = rng.dirichlet([1.0] * 3)

    def value(wts):
        p = marginals_of(JointDistribution(s, wts))
        return sum(th * shannon_entropy(q) for th, q in zip(theta, p.probs))

    w1 = rng.dirichlet(np.ones(s.size))
    w2 = rng.dirichlet(np.ones(s.size))
    mid = lam * w1 + (1 - lam) * w2
    assert value(mid) >= lam * value(w1) + (1 - lam) * value(w2) - 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
@example(seed=2147483647)
@example(seed=1165)
@example(seed=40716117)
def test_value_convex_in_theta(seed):
    rng = np.random.default_rng(seed)
    s = rand_support(rng)
    t1 = rng.dirichlet([1.0] * 3)
    t2 = rng.dirichlet([1.0] * 3)
    lam = float(rng.uniform(0.1, 0.9))
    v1, _ = max_weighted_entropy(s, ThetaWeights.theta(t1))
    v2, _ = max_weighted_entropy(s, ThetaWeights.theta(t2))
    vm, _ = max_weighted_entropy(s, ThetaWeights.theta(lam * t1 + (1 - lam) * t2))
    assert vm <= lam * v1 + (1 - lam) * v2 + 1e-8


@pytest.mark.parametrize(
    "seed, optimum_t1", [(2147483647, None), (1165, 1.0), (40716117, np.log2(3))]
)
def test_entropy_solve_meets_tol_on_face_optima(seed, optimum_t1):
    # the support and thetas of test_value_convex_in_theta at seeds whose
    # optima lie on faces of the weight simplex, where exponentiated
    # gradient alone stopped with certified gaps of 1e-5 to 2e-4
    rng = np.random.default_rng(seed)
    s = rand_support(rng)
    t1 = rng.dirichlet([1.0] * 3)
    t2 = rng.dirichlet([1.0] * 3)
    for theta in (t1, t2):
        opt = min_convex_over_support(s, NegWeightedEntropy(ThetaWeights.theta(theta)), tol=1e-9)
        assert opt.certified_gap <= 1e-9
        if theta is t1 and optimum_t1 is not None:
            assert abs(-opt.value - optimum_t1) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_entropy_bound(seed):
    rng = np.random.default_rng(seed)
    s = rand_support(rng)
    theta = rng.dirichlet([1.0] * 3)
    bits, _ = max_weighted_entropy(s, ThetaWeights.theta(theta))
    assert -1e-12 <= bits <= sum(t * np.log2(n) for t, n in zip(theta, s.dims)) + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
def test_marginals_of_is_affine(seed, lam):
    rng = np.random.default_rng(seed)
    s = rand_support(rng)
    w1 = rng.dirichlet(np.ones(s.size))
    w2 = rng.dirichlet(np.ones(s.size))
    pm = marginals_of(JointDistribution(s, lam * w1 + (1 - lam) * w2))
    p1 = marginals_of(JointDistribution(s, w1))
    p2 = marginals_of(JointDistribution(s, w2))
    for a, b, c in zip(pm.probs, p1.probs, p2.probs):
        assert np.allclose(a, lam * b + (1 - lam) * c, atol=1e-14)


#: max H((p_1 + p_2 + p_3) / 3) on the supports of
#: test_summed_newton_matches_reference, from the exponentiated-gradient engine
SUMMED_REFERENCE = [
    1.5849625007211534, 0.9999999999999998, 1.584962500721156, 1.5310103733874247,
    1.584962500721156, 1.584962500721156, 0.9999999999999998, 1.584962500721156,
    1.584962500721156, 1.0, 1.584962500721156, 0.9182958340544896,
]


def test_summed_newton_matches_reference():
    for seed, reference in enumerate(SUMMED_REFERENCE):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        s = rand_support(rng, dims=(n, n, n), max_points=8)
        opt = min_convex_over_support(s, NegSummedEntropy(3), tol=1e-10)
        assert opt.certified_gap <= 1e-10
        assert abs(-opt.value - reference) <= 1e-9, seed


def test_iterations_count_the_work(w):
    s = support(w, 0.0)
    entropy = NegWeightedEntropy(ThetaWeights.theta([0.5, 0.5, 0]))
    assert min_convex_over_support(s, entropy).iterations > 0
    assert min_convex_over_support(s, MaxInfNorm(ThetaWeights.alpha([1, 1, 1]))).iterations > 0
    assert max_min_weighted_entropy_witness(s, ThetaWeights.xi([1, 0.5, 1]))[0].iterations > 1


def test_lp_programs_match_primal_lps():
    # the inf-norm and l1 programs go through their LP duals; compare with
    # the primal LPs solved by HiGHS
    for seed in range(30):
        rng = np.random.default_rng(seed)
        s = rand_support(rng, max_points=8)
        a = np.vstack([np.eye(n)[s.points[:, j]].T for j, n in enumerate(s.dims)])
        rows, m = a.shape
        alpha = rng.uniform(0.5, 2.0, size=3)
        u = np.concatenate([np.full(n, 1.0 / n) for n in s.dims])
        linf = LinearProgram(
            np.append(np.zeros(m), 1.0),
            np.vstack([np.c_[-a, np.repeat(alpha, s.dims)], np.append(np.ones(m), 0.0)]),
            (">=",) * rows + ("=",), np.append(np.zeros(rows), 1.0),
        )
        l1 = LinearProgram(
            np.append(np.zeros(m), np.ones(rows)),
            np.vstack([np.c_[-a, np.eye(rows)], np.c_[a, np.eye(rows)],
                       np.append(np.ones(m), np.zeros(rows))]),
            (">=",) * (2 * rows) + ("=",), np.concatenate([-u, u, [1.0]]),
        )
        linf_objective = MaxInfNorm(ThetaWeights.alpha(alpha))
        for objective, lp in ((linf_objective, linf), (L1FromUniform(), l1)):
            opt = min_convex_over_support(s, objective, tol=1e-9)
            assert abs(opt.value - solve_lp(lp).value) <= 1e-9, seed
            assert opt.certified_gap <= 1e-9, seed


def _highs_master(cuts: np.ndarray, xi: np.ndarray) -> float:
    n = len(cuts)
    return solve_lp(LinearProgram(
        np.append(np.zeros(xi.size), 1.0),
        np.vstack([np.c_[-cuts, np.ones(n)], np.append(xi, 0.0)]),
        (">=",) * n + ("=",), np.append(np.zeros(n), 1.0),
    )).value


def test_kelley_master_matches_highs():
    # the master goes through its dual in slack form; a third of the cut
    # sets are rounded, so that ties and degenerate vertices are common
    for seed in range(300):
        rng = np.random.default_rng(seed)
        d, n = int(rng.integers(2, 5)), int(rng.integers(1, 61))
        cuts = rng.uniform(0.0, 2.0, (n, d))
        if seed % 3 == 0:
            cuts = np.round(2.0 * cuts) / 2.0
        xi = rng.uniform(0.2, 1.0, d)
        xi /= xi.max()
        sol = optim.kelley_master(cuts, xi)
        theta, z, y = sol.x[:-1], sol.x[-1], sol.y
        assert abs(sol.value - _highs_master(cuts, xi)) <= 1e-9, seed
        assert np.all(theta >= 0) and abs(theta @ xi - 1.0) <= 1e-12, seed
        assert abs((cuts @ theta).max() - sol.value) <= 1e-9 and z == (cuts @ theta).max(), seed
        assert np.all(y >= 0), seed
        if z > 0:
            assert abs(y[:-1].sum() - 1.0) <= 1e-9, seed
        assert abs(np.append(np.zeros(n), 1.0) @ y - sol.value) <= 1e-9, seed


def test_kelley_master_terminates_on_repeated_cuts():
    # every cut three times over, and a cut that ties the optimum at every
    # theta: Bland's rule leaves the degenerate vertex
    cuts = np.repeat(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.5, 0.5, 0.5]]), 3, axis=0)
    for xi in (np.ones(3), np.array([1.0, 0.5, 1.0])):
        sol = optim.kelley_master(cuts, xi)
        assert abs(sol.value - _highs_master(cuts, xi)) <= 1e-12
        assert sol.iterations <= 50 * (len(cuts) + xi.size + 2)
