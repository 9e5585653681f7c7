"""Hermite basis of L2(R^3) and exact coefficient-space operator algebra.

The basis functions are built from the Gaussian ground state
``Phi_0(v) = (2*pi)**(-3/4) * exp(-|v|**2/4)`` by the raising operators
``a[+,j] = v_j/2 - d/dv_j`` (one per velocity axis), normalized so that

    Phi_alpha = a[+,1]**a1 a[+,2]**a2 a[+,3]**a3 Phi_0 / sqrt(alpha!)

is orthonormal.  A function is represented by its coefficient vector on all
Phi_alpha with |alpha| = a1+a2+a3 <= N ("degree cap").  All operators act on
coefficients only; there is no velocity grid anywhere in this module.

Coefficient actions (exact, up to Galerkin truncation at the cap):

    raising     out[alpha+e_j] += sqrt(alpha_j+1) * s[alpha]
    lowering    out[alpha-e_j] += sqrt(alpha_j)   * s[alpha]
    v_j         raising + lowering
    d/dv_j      (lowering - raising)/2
    rotation    L[k,j] = v_j d/dv_k - v_k d/dv_j
                       = a[+,j]a[-,k] - a[+,k]a[-,j]   (level preserving)

Truncation policy: ladder output beyond the cap is dropped.  Compositions of
p ladder factors are therefore exact on inputs of degree <= N - p; callers
that need exact identities restrict inputs accordingly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MultiIndex",
    "HermiteSpectrum",
    "HermiteBasis",
    "enumerate_indices",
    "basis_size",
    "get_basis",
    "zero_spectrum",
    "unit_spectrum",
    "random_spectrum",
    "raise_op",
    "lower_op",
    "multiply_v",
    "differentiate_v",
    "angular",
    "inner_product",
]

MultiIndex = tuple[int, int, int]


def basis_size(N: int) -> int:
    """Number of multi-indices with |alpha| <= N, i.e. C(N+3, 3)."""
    return math.comb(N + 3, 3)


def enumerate_indices(N: int) -> list[MultiIndex]:
    """All alpha = (a1, a2, a3) with |alpha| <= N in canonical order.

    Canonical order is ascending by level |alpha|, lexicographic within a
    level.  The position of an index in this list is its coefficient slot.
    """
    if N < 0:
        raise ValueError("degree cap must be >= 0")
    out: list[MultiIndex] = []
    for level in range(N + 1):
        for a1 in range(level + 1):
            for a2 in range(level - a1 + 1):
                out.append((a1, a2, level - a1 - a2))
    return out


class HermiteBasis:
    """Precomputed index tables and sparse operator matrices for one cap N.

    Instances are cached by :func:`get_basis` (the `CACHED_CAPS` caps used
    last); they are immutable after construction.  The derived operators
    are built on first use and cached per instance, so a repeated call
    returns the same matrix.
    """

    def __init__(self, N: int):
        self.N = N
        self.indices = enumerate_indices(N)
        self.size = len(self.indices)
        assert self.size == basis_size(N)
        self.index_of = {a: i for i, a in enumerate(self.indices)}
        self.levels = np.array([sum(a) for a in self.indices], dtype=np.int64)
        # slices of the canonical ordering, one per level
        self.level_slices = []
        start = 0
        for n in range(N + 1):
            width = (n + 1) * (n + 2) // 2
            self.level_slices.append(slice(start, start + width))
            start += width
        self._raising = [self._build_raising(axis) for axis in range(3)]
        self._lowering = [R.T.tocsr() for R in self._raising]
        # the caches live on the instance: functools.cache on the methods
        # would live on the class and keep every basis alive
        for name in ("coordinate", "derivative", "rotation", "number_operator",
                     "sphere_laplacian"):
            setattr(self, name, cache(getattr(self, name)))

    def _build_raising(self, axis: int) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        for col, alpha in enumerate(self.indices):
            if sum(alpha) == self.N:
                continue  # pushed past the cap, dropped
            up = list(alpha)
            up[axis] += 1
            rows.append(self.index_of[tuple(up)])
            cols.append(col)
            vals.append(math.sqrt(alpha[axis] + 1))
        return sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.size, self.size), dtype=np.float64
        )

    def raising(self, axis: int) -> sp.csr_matrix:
        """Matrix of a[+,axis] (0-based axis)."""
        return self._raising[axis]

    def lowering(self, axis: int) -> sp.csr_matrix:
        """Matrix of a[-,axis] (0-based axis); the transpose of raising."""
        return self._lowering[axis]

    def coordinate(self, axis: int) -> sp.csr_matrix:
        """Matrix of multiplication by v_axis."""
        return (self._raising[axis] + self._lowering[axis]).tocsr()

    def derivative(self, axis: int) -> sp.csr_matrix:
        """Matrix of d/dv_axis."""
        return (0.5 * (self._lowering[axis] - self._raising[axis])).tocsr()

    def rotation(self, k: int, j: int) -> sp.csr_matrix:
        """Matrix of L[k,j] = v_j d/dv_k - v_k d/dv_j (0-based axes, k != j)."""
        if k == j:
            raise ValueError("rotation axes must differ")
        A = self._raising[j] @ self._lowering[k] - self._raising[k] @ self._lowering[j]
        return A.tocsr()

    def number_operator(self) -> sp.csr_matrix:
        """Matrix of sum_j a[+,j] a[-,j]; diagonal with entries |alpha|."""
        return sp.diags(self.levels.astype(np.float64)).tocsr()

    def sphere_laplacian(self) -> sp.csr_matrix:
        """Matrix of the Laplace-Beltrami operator (1/2) sum_{j!=k} L[k,j]^2."""
        acc = sp.csr_matrix((self.size, self.size), dtype=np.float64)
        for k, j in itertools.permutations(range(3), 2):
            A = self.rotation(k, j)
            acc = acc + 0.5 * (A @ A)
        return acc.tocsr()


# caps whose basis, and whose operators (`landau_ops.get_operators`), stay
# cached: a sweep over N keeps the ones it used last, and a run reads at
# most three (verify reads 5, 10 and 12, a march one)
CACHED_CAPS = 8


@lru_cache(maxsize=CACHED_CAPS)
def get_basis(N: int) -> HermiteBasis:
    return HermiteBasis(N)


@dataclass
class HermiteSpectrum:
    """Coefficients of a function on the orthonormal basis, |alpha| <= cap.

    The basis is orthonormal in L2(R^3), so the squared L2 norm is the sum of
    squared coefficient moduli.
    """

    degree_cap: int
    coeffs: np.ndarray

    def __post_init__(self):
        expected = basis_size(self.degree_cap)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient vector must have length {expected} for cap "
                f"{self.degree_cap}, got shape {self.coeffs.shape}"
            )

    @property
    def basis(self) -> HermiteBasis:
        return get_basis(self.degree_cap)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def degree(self) -> int:
        """Largest level carrying a nonzero coefficient ( -1 for the zero function)."""
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return -1
        return int(self.basis.levels[nz].max())

    def copy(self) -> "HermiteSpectrum":
        return HermiteSpectrum(self.degree_cap, self.coeffs.copy())

    def __add__(self, other: "HermiteSpectrum") -> "HermiteSpectrum":
        self._check_compatible(other)
        return HermiteSpectrum(self.degree_cap, self.coeffs + other.coeffs)

    def __sub__(self, other: "HermiteSpectrum") -> "HermiteSpectrum":
        self._check_compatible(other)
        return HermiteSpectrum(self.degree_cap, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "HermiteSpectrum":
        return HermiteSpectrum(self.degree_cap, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check_compatible(self, other: "HermiteSpectrum"):
        if self.degree_cap != other.degree_cap:
            raise ValueError("spectra have different degree caps")


def zero_spectrum(N: int) -> HermiteSpectrum:
    return HermiteSpectrum(N, np.zeros(basis_size(N), dtype=np.complex128))


def unit_spectrum(N: int, alpha: MultiIndex) -> HermiteSpectrum:
    """The single basis function Phi_alpha as a spectrum with cap N."""
    s = zero_spectrum(N)
    s.coeffs[get_basis(N).index_of[tuple(alpha)]] = 1.0
    return s


def random_spectrum(
    N: int,
    rng: np.random.Generator,
    max_level: int | None = None,
) -> HermiteSpectrum:
    """Random unit-norm complex spectrum supported on levels <= max_level
    (default N): a block of one `_random_rows`."""
    return HermiteSpectrum(N, _random_rows(N, rng, 1, max_level)[0])


def _random_rows(
    N: int, rng: np.random.Generator, n: int, max_level: int | None = None
) -> np.ndarray:
    """n random unit-norm complex spectra as the rows of an (n, M) array,
    from one standard_normal call: each row takes its real, then its
    imaginary parts from the next 2M normals, so the rows are the spectra
    of n successive `random_spectrum` calls.  Each row is normalised on its
    own, so that it keeps a lone spectrum's bits."""
    basis = get_basis(N)
    z = rng.standard_normal((n, 2, basis.size))
    c = z[:, 0] + 1j * z[:, 1]
    if max_level is not None:
        c = np.where(basis.levels <= max_level, c, 0.0)
    for row in c:
        row /= np.linalg.norm(row)
    return c


def _axis_03(j: int) -> int:
    if j not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    return j - 1


def raise_op(j: int, s: HermiteSpectrum) -> HermiteSpectrum:
    """Apply the raising operator a[+,j], axis j in 1..3.

    Output entries past the degree cap are dropped.
    """
    return HermiteSpectrum(s.degree_cap, s.basis.raising(_axis_03(j)) @ s.coeffs)


def lower_op(j: int, s: HermiteSpectrum) -> HermiteSpectrum:
    """Apply the lowering operator a[-,j], axis j in 1..3."""
    return HermiteSpectrum(s.degree_cap, s.basis.lowering(_axis_03(j)) @ s.coeffs)


def multiply_v(j: int, s: HermiteSpectrum) -> HermiteSpectrum:
    """Multiply by the coordinate v_j (= raising + lowering).

    Exact for inputs of degree <= N-1; the level-(N+1) part of the product is
    truncated otherwise.
    """
    return HermiteSpectrum(s.degree_cap, s.basis.coordinate(_axis_03(j)) @ s.coeffs)


def differentiate_v(j: int, s: HermiteSpectrum) -> HermiteSpectrum:
    """Differentiate along v_j (= (lowering - raising)/2); same truncation
    caveat as multiply_v."""
    return HermiteSpectrum(s.degree_cap, s.basis.derivative(_axis_03(j)) @ s.coeffs)


def angular(k: int, j: int, s: HermiteSpectrum) -> HermiteSpectrum:
    """Apply the rotation generator L[k,j] = v_j d/dv_k - v_k d/dv_j.

    Level preserving, hence exact at every degree <= N.  Axes 1..3, k != j.
    """
    return HermiteSpectrum(
        s.degree_cap, s.basis.rotation(_axis_03(k), _axis_03(j)) @ s.coeffs
    )


def inner_product(s1: HermiteSpectrum, s2: HermiteSpectrum) -> complex:
    """L2(R^3) inner product (s1, s2) = sum s1[alpha] * conj(s2[alpha])."""
    s1._check_compatible(s2)
    return complex(np.vdot(s2.coeffs, s1.coeffs))
