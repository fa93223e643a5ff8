import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from spectrumkit import Tensor, make_unit, matmul_tensor, w_tensor
from spectrumkit.tensors import direct_sum, random_tensor

H13_BITS = 0.9182958340544896  # binary entropy of 1/3
F_W = 1.8898815748423097  # 2 ** H13_BITS


@pytest.fixture(scope="session")
def w():
    return w_tensor()


@pytest.fixture(scope="session")
def matmul222():
    return matmul_tensor(2, 2, 2)


@pytest.fixture(scope="session")
def unit_sum21():
    return direct_sum(make_unit(2, 3), make_unit(1, 3))


def corpus_tensors(n_small: int = 10, n_mixed: int = 10) -> list[tuple[str, Tensor]]:
    """The shared evaluation corpus: named tensors plus seeded random ones."""
    out = [
        ("w", w_tensor()),
        ("matmul222", matmul_tensor(2, 2, 2)),
        ("unit2+unit1", direct_sum(make_unit(2, 3), make_unit(1, 3))),
    ]
    rng = np.random.default_rng(20260810)
    for k in range(n_small):
        out.append((f"rand222-{k}", random_tensor((2, 2, 2), rng)))
    for k in range(n_mixed):
        out.append((f"rand234-{k}", random_tensor((2, 3, 4), rng)))
    return out


def sparse_tensor(dims: tuple[int, ...], nnz: int, seed: int) -> Tensor:
    """nnz Gaussian complex entries at seeded positions."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(int(np.prod(dims)), dtype=complex)
    idx = rng.choice(flat.size, nnz, replace=False)
    flat[idx] = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    return Tensor(flat.reshape(dims))


def sparse332() -> Tensor:
    """A 3x3x2 tensor with five entries and a support that is not free."""
    arr = np.zeros((3, 3, 2), dtype=complex)
    arr[(0, 1, 2, 0, 1), (0, 1, 2, 1, 2), (0, 0, 1, 1, 0)] = (1.0, 0.7, 1.3, 0.5, -0.8)
    return Tensor(arr)


def gl_w_tensor() -> Tensor:
    """W under a seeded Gaussian GL element: no candidate basis meets the
    quantum bound, so every basis search on it scores every candidate."""
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    return Tensor(np.einsum("ai,bj,ck,ijk->abc", *mats, w_tensor().entries))


def basis_search_corpus() -> list[tuple[str, Tensor]]:
    """Tensors on which a basis search stopped by its bracket is compared
    with the exhaustive scan; sparse-6 leaves the support bracket open."""
    return [
        ("w", w_tensor()),
        ("matmul222", matmul_tensor(2, 2, 2)),
        ("unit2+unit1", direct_sum(make_unit(2, 3), make_unit(1, 3))),
        ("rand234", random_tensor((2, 3, 4), np.random.default_rng(0))),
        ("sparse332-6", sparse_tensor((3, 3, 2), 5, 6)),
        ("sparse332-11", sparse_tensor((3, 3, 2), 5, 11)),
    ]


def symmetric_corpus() -> list[tuple[str, Tensor]]:
    rng = np.random.default_rng(4711)

    def sym3(n: int) -> Tensor:
        a = rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        s = sum(a.transpose(p) for p in perms) / 6.0
        return Tensor(s).unit()

    return [
        ("w", w_tensor()),
        ("unit2", make_unit(2, 3)),
        ("unit3", make_unit(3, 3)),
        ("sym222", sym3(2)),
        ("sym333", sym3(3)),
    ]
