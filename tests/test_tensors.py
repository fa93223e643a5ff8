import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrumkit import (
    GroupElement,
    InvalidArgumentError,
    Tensor,
    apply_group,
    flattening,
    make_unit,
    marginal,
    support,
    tensor_product,
    w_tensor,
)
from spectrumkit.tensors import (
    direct_sum,
    hermitian_spectrum,
    random_group_element,
    random_tensor,
    random_unitary,
)


def test_make_unit_examples():
    t = make_unit(1, 3)
    assert t.dims == (1, 1, 1) and t.entries[0, 0, 0] == 1
    t = make_unit(2, 3)
    assert t.entries[0, 0, 0] == 1 and t.entries[1, 1, 1] == 1
    assert np.count_nonzero(t.entries) == 2
    t = make_unit(3, 2)
    assert np.allclose(t.entries, np.eye(3))


def test_make_unit_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        make_unit(0, 3)
    with pytest.raises(InvalidArgumentError):
        make_unit(2, 1)


def test_tensor_product_of_units():
    p = tensor_product(make_unit(2, 3), make_unit(3, 3))
    s = support(p, 0.0).as_tuples()
    # diagonal of a unit tensor under the row-major pairing
    assert len(s) == 6
    assert all(a == b == c for a, b, c in s)


def test_tensor_product_identity_case():
    w = w_tensor()
    p = tensor_product(w, make_unit(1, 3))
    assert p.dims == w.dims
    assert np.allclose(p.entries, w.entries)


def test_tensor_product_support_pairs_w_squared():
    w = w_tensor()
    p = tensor_product(w, w)
    sp = support(p, 0.0).as_tuples()
    assert len(sp) == 9
    base = support(w, 0.0).as_tuples()
    expected = sorted(
        tuple(a[j] * 2 + b[j] for j in range(3)) for a in base for b in base
    )
    assert sorted(sp) == expected


def test_direct_sum_examples():
    assert np.allclose(
        direct_sum(make_unit(1, 3), make_unit(1, 3)).entries, make_unit(2, 3).entries
    )
    assert np.allclose(
        direct_sum(make_unit(2, 3), make_unit(3, 3)).entries, make_unit(5, 3).entries
    )
    s = direct_sum(w_tensor(), make_unit(1, 3))
    assert s.dims == (3, 3, 3)
    assert len(support(s, 0.0).as_tuples()) == 4


def test_order_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        tensor_product(make_unit(2, 3), make_unit(2, 4))
    with pytest.raises(InvalidArgumentError):
        direct_sum(make_unit(2, 3), make_unit(2, 4))


def test_apply_group_identity_and_scaling():
    w = w_tensor()
    assert np.allclose(apply_group(GroupElement.identity(w.dims), w).entries, w.entries)
    t = make_unit(1, 3)
    g = GroupElement((np.array([[2.0]]), np.eye(1), np.eye(1)))
    assert apply_group(g, t).entries[0, 0, 0] == 2.0


def test_apply_group_permutation_moves_support():
    w = w_tensor()
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = GroupElement((swap, swap, swap), unitary=True)
    assert support(apply_group(g, w), 0.0).as_tuples_1based() == [
        (1, 2, 2),
        (2, 1, 2),
        (2, 2, 1),
    ]


@pytest.mark.parametrize("eta", [-1.0, float("nan")])
def test_support_rejects_a_negative_or_nan_threshold(eta):
    # a NaN threshold used to pass the check and leave no entry in the support
    with pytest.raises(InvalidArgumentError, match="support threshold must be >= 0"):
        support(w_tensor(), eta)


def test_apply_group_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        apply_group(GroupElement.identity((2, 2)), w_tensor())


def test_singular_factor_rejected():
    with pytest.raises(InvalidArgumentError):
        GroupElement((np.zeros((2, 2)), np.eye(2), np.eye(2)))


def test_unitary_flag_checked():
    with pytest.raises(InvalidArgumentError):
        GroupElement((2.0 * np.eye(2),), unitary=True)


def test_flattening_shapes_and_ranks():
    r = make_unit(3, 3)
    for leg in range(3):
        m = flattening(r, leg)
        assert m.shape == (3, 9)
        assert np.linalg.matrix_rank(m) == 3
    w = w_tensor()
    m = flattening(w, 0)
    assert m.shape == (2, 4)
    assert np.linalg.matrix_rank(m) == 2


def test_flattening_rank_one_tensor():
    a, b, c = np.array([1.0, 2.0]), np.array([1.0, -1.0]), np.array([0.5, 3.0])
    t = Tensor(np.einsum("i,j,k->ijk", a, b, c))
    for leg in range(3):
        assert np.linalg.matrix_rank(flattening(t, leg)) == 1


def test_flattening_leg_out_of_range():
    with pytest.raises(InvalidArgumentError):
        flattening(w_tensor(), 3)


def test_marginal_examples():
    r = make_unit(4, 3)
    for leg in range(3):
        assert np.allclose(marginal(r, leg), np.eye(4) / 4)
    w = w_tensor()
    assert np.allclose(marginal(w, 0), np.diag([2 / 3, 1 / 3]))
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0] = 1.0
    assert np.allclose(marginal(Tensor(arr), 0), np.diag([1.0, 0.0]))


def test_marginal_zero_tensor_rejected():
    with pytest.raises(InvalidArgumentError):
        marginal(Tensor(np.zeros((2, 2))), 0)


def test_support_examples():
    assert support(make_unit(2, 3), 0.0).as_tuples_1based() == [(1, 1, 1), (2, 2, 2)]
    assert support(w_tensor(), 0.0).as_tuples_1based() == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    arr = np.zeros((2, 2), dtype=complex)
    arr[0, 0] = 1.0
    arr[1, 1] = 1e-15
    assert len(support(Tensor(arr), 1e-9).as_tuples()) == 1
    assert len(support(Tensor(arr), 0.0).as_tuples()) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([(2, 2, 2), (2, 3, 4), (3, 3)]))
def test_marginal_trace_one(seed, dims):
    t = random_tensor(dims, np.random.default_rng(seed))
    for leg in range(len(dims)):
        rho = marginal(t, leg)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_unitary_invariance_of_spectra(seed):
    rng = np.random.default_rng(seed)
    t = random_tensor((2, 3, 4), rng)
    u = GroupElement(tuple(random_unitary(n, rng) for n in t.dims), unitary=True)
    ut = apply_group(u, t)
    for leg in range(3):
        s1 = hermitian_spectrum(marginal(t, leg))
        s2 = hermitian_spectrum(marginal(ut, leg))
        assert np.abs(s1 - s2).max() <= 1e-10
    # norm preservation under unitaries
    assert abs(ut.norm() - t.norm()) <= 1e-10 * t.norm()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_support_product_is_paired_product(seed):
    rng = np.random.default_rng(seed)

    def sparse(dims):
        arr = np.zeros(dims, dtype=complex)
        m = rng.integers(1, 5)
        for _ in range(m):
            idx = tuple(rng.integers(0, n) for n in dims)
            arr[idx] = rng.standard_normal() + 1j * rng.standard_normal()
        return Tensor(arr) if np.any(arr) else sparse(dims)

    s, t = sparse((2, 2, 2)), sparse((2, 3, 2))
    prod = tensor_product(s, t)
    expected = sorted(
        tuple(a[j] * t.dims[j] + b[j] for j in range(3))
        for a in support(s, 0.0).as_tuples()
        for b in support(t, 0.0).as_tuples()
    )
    assert support(prod, 0.0).as_tuples() == expected


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_flattening_rank_invariant_under_group(seed):
    rng = np.random.default_rng(seed)
    t = random_tensor((2, 3, 3), rng)
    g = random_group_element(t.dims, rng, unitary=False)
    gt = apply_group(g, t)
    for leg in range(3):
        assert np.linalg.matrix_rank(flattening(t, leg), tol=1e-9) == np.linalg.matrix_rank(
            flattening(gt, leg), tol=1e-9
        )
