"""Dense complex tensors: flattenings, quantum marginals, group actions, supports.

Conventions used throughout the package:

* entries are stored in a contiguous row-major ``numpy`` array; index tuples
  are 0-based internally and 1-based in file formats and printed output;
* the index pairing used by :func:`tensor_product` is row-major,
  ``(a, b) -> a * m + b``, so supports of products are reproducible exactly;
* Hermitian spectra are reported sorted non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InvalidArgumentError(ValueError):
    """Raised when an operation receives a structurally invalid input."""


#: Relative magnitude below which an entry is treated as zero when reading
#: off supports after numeric basis changes.  ``eta = 0`` means an exact
#: nonzero test.
DEFAULT_ETA = 1e-9

#: Condition-number bound above which a group factor counts as singular.
CONDITION_BOUND = 1e12


@dataclass(frozen=True)
class Tensor:
    """An order-d dense complex tensor (d >= 2)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.entries, dtype=complex))
        if arr.ndim < 2:
            raise InvalidArgumentError(f"tensor order must be >= 2, got {arr.ndim}")
        if any(n < 1 for n in arr.shape):
            raise InvalidArgumentError(f"all dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("tensor has non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.entries.shape

    @property
    def order(self) -> int:
        return self.entries.ndim

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries.ravel()))

    def is_zero(self) -> bool:
        return not np.any(self.entries)

    def require_nonzero(self) -> "Tensor":
        if self.is_zero():
            raise InvalidArgumentError("operation undefined for the zero tensor")
        return self

    def unit(self) -> "Tensor":
        """Rescale to unit l2 norm."""
        self.require_nonzero()
        return Tensor(self.entries / self.norm())


@dataclass(frozen=True)
class GroupElement:
    """A tuple of square invertible matrices acting one per tensor leg."""

    factors: tuple[np.ndarray, ...]
    unitary: bool = False

    def __post_init__(self):
        mats = []
        for k, f in enumerate(self.factors):
            m = np.ascontiguousarray(np.asarray(f, dtype=complex))
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InvalidArgumentError(f"factor {k} is not square: shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise InvalidArgumentError(f"factor {k} has non-finite entries")
            if np.linalg.cond(m) > CONDITION_BOUND:
                raise InvalidArgumentError(f"factor {k} is singular or too ill-conditioned")
            if self.unitary:
                err = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
                if err > 1e-10:
                    raise InvalidArgumentError(f"factor {k} fails the unitarity check ({err:.2e})")
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "factors", tuple(mats))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @staticmethod
    def identity(dims: Sequence[int]) -> "GroupElement":
        return GroupElement(tuple(np.eye(n, dtype=complex) for n in dims), unitary=True)


@dataclass(frozen=True)
class SupportSet:
    """The set of index tuples carrying the nonzero entries of a tensor."""

    dims: tuple[int, ...]
    points: np.ndarray  # (m, d) int array, 0-based, lexicographically sorted

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != len(self.dims):
            raise InvalidArgumentError("support points must be an (m, d) index array")
        if pts.shape[0] == 0:
            raise InvalidArgumentError("support set is empty")
        for j, n in enumerate(self.dims):
            if np.any(pts[:, j] < 0) or np.any(pts[:, j] >= n):
                raise InvalidArgumentError(f"support index out of range on leg {j}")
        order = np.lexsort(pts.T[::-1])
        pts = np.ascontiguousarray(pts[order])
        if pts.shape[0] > 1 and np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise InvalidArgumentError("support points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def order(self) -> int:
        return len(self.dims)

    def as_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(int(i) for i in row) for row in self.points]

    def as_tuples_1based(self) -> list[tuple[int, ...]]:
        return [tuple(int(i) + 1 for i in row) for row in self.points]


@dataclass(frozen=True)
class MatrixTuple:
    """A tuple (A_1, ..., A_m) of n x n complex matrices."""

    mats: np.ndarray  # (m, n, n)

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.mats, dtype=complex))
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise InvalidArgumentError(f"expected an (m, n, n) array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidArgumentError("matrix tuple needs at least one matrix")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("matrix tuple has non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "mats", arr)

    @property
    def n(self) -> int:
        return self.mats.shape[1]

    @property
    def m(self) -> int:
        return self.mats.shape[0]

    def as_tensor(self) -> Tensor:
        """View as the 3-tensor t[i, j, k] = (A_k)_{ij} in C^n x C^n x C^m."""
        return Tensor(np.moveaxis(self.mats, 0, 2))


# ---------------------------------------------------------------------------
# constructions


def make_unit(r: int, d: int) -> Tensor:
    """The diagonal tensor with r ones: sum_i e_i x ... x e_i (d factors)."""
    if r < 1:
        raise InvalidArgumentError(f"unit tensor size must be >= 1, got {r}")
    if d < 2:
        raise InvalidArgumentError(f"tensor order must be >= 2, got {d}")
    arr = np.zeros((r,) * d, dtype=complex)
    idx = np.arange(r)
    arr[(idx,) * d] = 1.0
    return Tensor(arr)


def w_tensor() -> Tensor:
    """e_2 x e_1 x e_1 + e_1 x e_2 x e_1 + e_1 x e_1 x e_2 in C^2 x C^2 x C^2."""
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[1, 0, 0] = arr[0, 1, 0] = arr[0, 0, 1] = 1.0
    return Tensor(arr)


def matmul_tensor(a: int, b: int, c: int) -> Tensor:
    """The matrix multiplication tensor with dims (ab, bc, ca).

    Support points are ((i,j), (j,k), (k,i)) under the row-major pair index.
    """
    arr = np.zeros((a * b, b * c, c * a), dtype=complex)
    for i in range(a):
        for j in range(b):
            for k in range(c):
                arr[i * b + j, j * c + k, k * a + i] = 1.0
    return Tensor(arr)


def random_tensor(dims: Sequence[int], rng: np.random.Generator) -> Tensor:
    """Complex Gaussian entries, normalized to unit norm."""
    re = rng.standard_normal(tuple(dims))
    im = rng.standard_normal(tuple(dims))
    return Tensor(re + 1j * im).unit()


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_group_element(dims: Sequence[int], rng: np.random.Generator, unitary: bool = True) -> GroupElement:
    if unitary:
        return GroupElement(tuple(random_unitary(n, rng) for n in dims), unitary=True)
    factors = []
    for n in dims:
        while True:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(z) < 1e3:
                factors.append(z)
                break
    return GroupElement(tuple(factors))


# ---------------------------------------------------------------------------
# algebraic operations


def tensor_product(s: Tensor, t: Tensor) -> Tensor:
    """Leg-wise tensor product under the row-major index pairing."""
    if s.order != t.order:
        raise InvalidArgumentError(f"order mismatch: {s.order} vs {t.order}")
    d = s.order
    prod = np.tensordot(s.entries, t.entries, axes=0)
    # interleave axes (s_1, t_1, s_2, t_2, ...) then merge pairs row-major
    perm = [k for j in range(d) for k in (j, d + j)]
    prod = np.transpose(prod, perm)
    new_dims = tuple(s.dims[j] * t.dims[j] for j in range(d))
    return Tensor(prod.reshape(new_dims))


def direct_sum(s: Tensor, t: Tensor) -> Tensor:
    """Block-diagonal embedding; dimensions add leg-wise."""
    if s.order != t.order:
        raise InvalidArgumentError(f"order mismatch: {s.order} vs {t.order}")
    new_dims = tuple(a + b for a, b in zip(s.dims, t.dims))
    arr = np.zeros(new_dims, dtype=complex)
    arr[tuple(slice(0, n) for n in s.dims)] = s.entries
    arr[tuple(slice(n, None) for n in s.dims)] = t.entries
    return Tensor(arr)


def apply_group(g: GroupElement, t: Tensor) -> Tensor:
    """Apply (g_1 x ... x g_d) to the tensor's legs."""
    if g.sizes != t.dims:
        raise InvalidArgumentError(f"factor sizes {g.sizes} do not match dims {t.dims}")
    out = t.entries
    for j, f in enumerate(g.factors):
        out = np.moveaxis(np.tensordot(f, out, axes=(1, j)), 0, j)
    return Tensor(out)


def apply_factor(t: Tensor, leg: int, mat: np.ndarray) -> Tensor:
    """Apply a single matrix to one leg (no invertibility check)."""
    if mat.shape != (t.dims[leg], t.dims[leg]):
        raise InvalidArgumentError(f"matrix shape {mat.shape} does not fit leg {leg}")
    out = np.moveaxis(np.tensordot(mat, t.entries, axes=(1, leg)), 0, leg)
    return Tensor(out)


def flattening(t: Tensor, leg: int) -> np.ndarray:
    """The n_i x (prod of the other dims) matricization, row-major co-index."""
    if not 0 <= leg < t.order:
        raise InvalidArgumentError(f"leg {leg} out of range for order {t.order}")
    return np.moveaxis(t.entries, leg, 0).reshape(t.dims[leg], -1)


def marginal(t: Tensor, leg: int) -> np.ndarray:
    """The trace-one quantum marginal of a leg.

    Computed as M M^dag / |t|^2 with M the leg's flattening; this is the
    component of the moment map of the leg-wise group action, so it is the
    convention consistent with :func:`apply_group` (the marginal of
    ``apply_group(g, t)`` on leg i is ``g_i rho g_i^dag`` up to normalization).
    """
    t.require_nonzero()
    m = flattening(t, leg)
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def hermitian_spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted non-increasing."""
    return np.linalg.eigvalsh(h)[::-1]


def support(t: Tensor, eta: float = DEFAULT_ETA) -> SupportSet:
    """Index tuples whose magnitude exceeds eta times the largest magnitude."""
    t.require_nonzero()
    if eta < 0:
        raise InvalidArgumentError(f"support threshold must be >= 0, got {eta}")
    mags = np.abs(t.entries)
    if eta == 0:
        mask = mags > 0
    else:
        mask = mags > eta * mags.max()
    pts = np.argwhere(mask)
    return SupportSet(t.dims, pts)
