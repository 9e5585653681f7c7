"""Galerkin form of the linearized Landau operator and the bilinear term.

For Maxwellian molecules the linearized collision operator diagonalizes over
Hermite levels and splits as L = L1 + L2 with

    L1 = 2 * (number operator) - (sphere Laplacian)
    L2 = [sphere - 2*number] P1 + [-sphere - 2*number] P2

where P1, P2 project on Hermite levels 1 and 2.  L is level preserving,
symmetric positive semidefinite, and annihilates exactly the five collision
invariants (ground state, the three v_j modes, and the radial level-2
combination), the rows of `LandauOperators.collision_invariants`.

The bilinear term B(f, g) (collision interaction of two perturbations) is
trilinear in (f, g, test) and touches f only through ten low-order moments,
its coefficients at the multi-indices `MOMENTS`.  Both tables are stated
here only.  Three independent routes to the same object are provided:

* ``gamma_weak_D``  - the seven-block ladder/rotation form, coded literally.
* ``gamma_weak_E``  - an equivalent seven-block form using only coordinate
  multiplications and derivatives.
* ``gamma_apply``   - the strong (matrix) form obtained from the D blocks by
  moving every operator off the test slot (adjoints: lowering <-> raising,
  rotations are skew).  f enters through moment coefficients multiplying ten
  fixed sparse matrices, applied as one product with their stack.

``gamma_quadrature_oracle`` evaluates the defining double integral over
(v, v*) with tensor Gauss-Hermite quadrature and pointwise Hermite function
evaluation - no ladder algebra - as an independent reference for the three
routes above.

Each route computes every operator product it needs once per call and reads
it from every block that uses it; no product is shared between routes, so
they stay independent checks of each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .hermite_core import (
    HermiteSpectrum,
    get_basis,
    unit_spectrum,
    inner_product,
    raise_op,
    lower_op,
    multiply_v,
    differentiate_v,
    angular,
)

__all__ = [
    "CollisionMoments",
    "LandauOperators",
    "get_operators",
    "apply_L1",
    "apply_L2",
    "apply_L",
    "level_blocks_L",
    "closed_form_level_spectrum",
    "collision_moments",
    "gamma_weak_D",
    "gamma_weak_E",
    "gamma_apply",
    "gamma_quadrature_oracle",
    "QuadratureConvergenceError",
    "MOMENT_PAIRS",
    "MOMENTS",
]

# off-diagonal level-2 index pairs, 0-based axes, in slot order
MOMENT_PAIRS = ((0, 1), (0, 2), (1, 2))

# the multi-indices of the ten moments, in the order of `moment_stack`: 0, the
# e_i, the 2 e_i, then e_i + e_j over MOMENT_PAIRS
MOMENTS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0),
           (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


@dataclass
class CollisionMoments:
    """The ten pairings of f that enter the bilinear collision term.

    m0      (f, Phi_0)
    m1[i]   (f, Phi_{e_i})                       i = 1..3
    m2d[i]  (f, Phi_{2 e_i})                     i = 1..3
    m2o[p]  (f, Phi_{e_i + e_j})                 p over (1,2), (1,3), (2,3)
    """

    m0: complex
    m1: np.ndarray
    m2d: np.ndarray
    m2o: np.ndarray


class LandauOperators:
    """Every velocity-side matrix: L1, L2, L, the ten bilinear moment
    operators G_m, stored only as their stack, the collision invariants, the
    dissipation form Q, and the per-level inverses of I + Q and of the
    implicit step's I + dt L (`level_inverses` builds both).  They depend on
    N alone: one instance per degree cap, cached by :func:`get_operators`,
    serves every Fourier lattice.  Matrices are built once (the cached
    properties on first use; the implicit inverses for the latest dt),
    read-only.
    """

    def __init__(self, N: int):
        if N < 2:
            raise ValueError("operator assembly needs degree cap >= 2")
        self.N = N
        self.basis = get_basis(N)
        b = self.basis
        sphere = b.sphere_laplacian()
        number2 = 2.0 * b.number_operator()
        self.L1 = (number2 - sphere).tocsr()
        p1 = sp.diags((b.levels == 1).astype(np.float64))
        p2 = sp.diags((b.levels == 2).astype(np.float64))
        self.L2 = ((sphere - number2) @ p1 + (-sphere - number2) @ p2).tocsr()
        self.L = (self.L1 + self.L2).tocsr()
        self.moment_slots = np.array([b.index_of[m] for m in MOMENTS], dtype=np.int64)
        # [G_0 | ... | G_9] (M, 10 M), the one stored form of the G_m: read by
        # `gamma_apply`, `solver._bilinear` and, transposed, both its adjoints
        self.moment_stack = sp.hstack(self._build_moment_operators(), format="csr")
        self._implicit: tuple = (None, [])  # (dt, inverses) of the latest dt

    def _build_moment_operators(self) -> list[sp.csr_matrix]:
        """For each moment slot m, the matrix G_m with
        B(f, g) = sum_m moment_m(f) * (G_m @ g).

        Derived from the seven weak blocks by taking adjoints on the test
        slot; the ground-state moment operator is exactly -L1 and the whole
        family reproduces -L2 when the moments are taken of g itself.
        """
        b = self.basis
        R = [b.raising(i) for i in range(3)]
        ops: list[sp.csr_matrix] = []
        # m0: -2 sum_i a+ a-  + sphere Laplacian  == -L1
        ops.append((-self.L1).tocsr())
        # m1[a]: 2 a+_a  + sum_{i != a} (a+_i L_{i,a} + L_{i,a} a+_i)
        for a in range(3):
            acc = 2.0 * R[a]
            for i in range(3):
                if i == a:
                    continue
                A = b.rotation(i, a)
                acc = acc + R[i] @ A + A @ R[i]
            ops.append(acc.tocsr())
        # m2d[a]: sqrt(2) sum_{i != a} (a+_i)^2
        for a in range(3):
            acc = sp.csr_matrix((b.size, b.size), dtype=np.float64)
            for i in range(3):
                if i == a:
                    continue
                acc = acc + R[i] @ R[i]
            ops.append((math.sqrt(2.0) * acc).tocsr())
        # m2o[(a,c)]: -2 a+_a a+_c
        for a, c in MOMENT_PAIRS:
            ops.append((-2.0 * (R[a] @ R[c])).tocsr())
        return ops

    @cached_property
    def moment_widths(self) -> tuple[int, ...]:
        """Per moment slot m, the Hermite indices G_m reads: the leading
        comb(N - |MOMENTS[m]| + 3, 3), the levels <= N - |MOMENTS[m]|.  G_m
        raises the level by |MOMENTS[m]| and the cap truncates, so block m
        of `moment_stack` stores no column past that width."""
        return tuple(math.comb(self.N - sum(m) + 3, 3) for m in MOMENTS)

    @cached_property
    def collision_invariants(self) -> np.ndarray:
        """The five collision invariants, which span the kernel of L, as the
        rows of a real (5, M) array: the mass Phi_0, the momenta Phi_{e_j}
        and the energy Phi_{2e_1} + Phi_{2e_2} + Phi_{2e_3}."""
        rows = np.zeros((5, self.basis.size))
        rows[(0, 1, 2, 3, 4, 4, 4), self.moment_slots[:7]] = 1.0
        rows.flags.writeable = False
        return rows

    @cached_property
    def dissipation_form(self) -> sp.csr_matrix:
        """Quadratic form Q of the dissipation seminorm of
        `solver.triple_norm`, as the operator sum (exact at the cap).  In
        closed form Q = L1 + 3 I - (N + 3) P_N, with P_N the projection on
        the top Hermite level: the coercivity identity below the cap, and
        the products truncated at the cap."""
        b = self.basis
        Q = sp.csr_matrix((b.size, b.size))
        for ax in range(3):
            D, V = b.derivative(ax), b.coordinate(ax)
            Q = Q + 2.0 * (D.T @ D) + 0.5 * (V.T @ V)
        for k, j in itertools.permutations(range(3), 2):
            A = b.rotation(k, j)
            Q = Q + 0.5 * (A.T @ A)
        return Q.tocsr()

    def level_inverses(self, form: sp.csr_matrix, scale: float) -> list[np.ndarray]:
        """Dense inverses of I + scale * form[sl, sl], one per Hermite level
        sl, for a level-preserving form (L or Q)."""
        return [
            np.linalg.inv(np.eye(sl.stop - sl.start) + scale * form[sl, sl].toarray())
            for sl in self.basis.level_slices
        ]

    @cached_property
    def dissipation_metric_inverses(self) -> list[np.ndarray]:
        """Per-level inverses of (I + Q), Q the dissipation quadratic form."""
        return self.level_inverses(self.dissipation_form, 1.0)

    def implicit_inverses(self, dt: float) -> list[np.ndarray]:
        """Per-level inverses of (I + dt L), the implicit solve of a step of
        size dt.  A march uses one dt, so only the set of the most recent dt
        is kept, shared by every lattice at this degree cap; dt is compared
        exactly, so nearby steps get their own inverses."""
        if self._implicit[0] != dt:
            self._implicit = (dt, self.level_inverses(self.L, dt))
        return self._implicit[1]

    def level_blocks(self) -> list[np.ndarray]:
        """Dense blocks of L, one per Hermite level (L is level preserving)."""
        return [self.L[sl, sl].toarray() for sl in self.basis.level_slices]


@cache
def get_operators(N: int) -> LandauOperators:
    return LandauOperators(N)


def apply_L1(s: HermiteSpectrum) -> HermiteSpectrum:
    """Harmonic-oscillator-plus-rotation part; level preserving, exact for
    all degrees <= cap."""
    return HermiteSpectrum(s.degree_cap, get_operators(s.degree_cap).L1 @ s.coeffs)


def apply_L2(s: HermiteSpectrum) -> HermiteSpectrum:
    """Finite-rank correction supported on Hermite levels 1 and 2."""
    return HermiteSpectrum(s.degree_cap, get_operators(s.degree_cap).L2 @ s.coeffs)


def apply_L(s: HermiteSpectrum) -> HermiteSpectrum:
    """Full linearized collision operator L = L1 + L2."""
    return HermiteSpectrum(s.degree_cap, get_operators(s.degree_cap).L @ s.coeffs)


def level_blocks_L(N: int) -> list[np.ndarray]:
    """Dense symmetric PSD blocks of L per level; block n has dimension
    (n+1)(n+2)/2."""
    return get_operators(N).level_blocks()


def closed_form_level_spectrum(k: int) -> np.ndarray:
    """Ascending eigenvalues of L on Hermite level k: 2k + l(l+1) for
    l = k, k-2, ..., k mod 2, each 2l+1 times, at k >= 3; the level-2
    projection leaves 0 once and 12 five times, the level-1 projection 0.
    The formula of Lerner, Morimoto, Pravda-Starov and Xu (Kinet. Relat.
    Models 6, 2013) at d = 3."""
    if k < 2:
        return np.zeros((k + 1) * (k + 2) // 2)
    if k == 2:
        return np.array([0.0] + [12.0] * 5)
    return np.sort(np.concatenate(
        [np.full(2 * l + 1, 2.0 * k + l * (l + 1)) for l in range(k % 2, k + 1, 2)]
    ))


def collision_moments(f: HermiteSpectrum) -> CollisionMoments:
    """Read the ten bilinear-term moments directly off the coefficients."""
    if f.degree_cap < 2:
        raise ValueError("moments need degree cap >= 2")
    c = f.coeffs[get_operators(f.degree_cap).moment_slots]
    return CollisionMoments(
        m0=complex(c[0]), m1=c[1:4].copy(), m2d=c[4:7].copy(), m2o=c[7:10].copy()
    )


def gamma_weak_D(f: HermiteSpectrum, g: HermiteSpectrum, h: HermiteSpectrum) -> complex:
    """Seven-block ladder/rotation form of (B(f,g), h).

    Exact on the truncated space for h of any degree; identical to the E form
    when g and h have degree <= cap-2.  Each ladder and rotation product of g
    and h is computed once (21 per call) and read by every block that uses
    it.
    """
    mom = collision_moments(f)
    pair_slot = {(a + 1, b + 1): p for p, (a, b) in enumerate(MOMENT_PAIRS)}
    pairs = list(itertools.permutations(range(1, 4), 2))
    up_g = {i: raise_op(i, g) for i in range(1, 4)}
    lo_g = {i: lower_op(i, g) for i in range(1, 4)}
    lo_h = {i: lower_op(i, h) for i in range(1, 4)}
    ang_g = {(i, j): angular(i, j, g) for i, j in pairs}
    ang_h = {(i, j): angular(i, j, h) for i, j in pairs}
    d1 = d2 = d3 = d4 = d5 = d6 = d7 = 0.0 + 0.0j
    for i, j in pairs:
        lo_i_h, ang_ij_g, ang_ij_h = lo_h[i], ang_g[i, j], ang_h[i, j]
        d1 += mom.m2d[j - 1] * inner_product(up_g[i], lo_i_h)
        d2 -= mom.m0 * inner_product(lo_g[i], lo_i_h)
        key = (i, j) if i < j else (j, i)
        d3 -= mom.m2o[pair_slot[key]] * inner_product(up_g[j], lo_i_h)
        d4 += mom.m1[i - 1] * inner_product(g, lo_i_h)
        d5 -= 0.5 * mom.m0 * inner_product(ang_ij_g, ang_ij_h)
        d6 += mom.m1[j - 1] * inner_product(ang_ij_g, lo_i_h)
        d7 -= mom.m1[j - 1] * inner_product(up_g[i], ang_ij_h)
    return complex(math.sqrt(2.0) * d1 + d2 + d3 + d4 + d5 + d6 + d7)


def gamma_weak_E(f: HermiteSpectrum, g: HermiteSpectrum, h: HermiteSpectrum) -> complex:
    """Seven-block coordinate/derivative form of (B(f,g), h).

    Uses only multiply_v and differentiate_v on g and h, so compositions
    truncate: agrees with the D form for g, h of degree <= cap-2.  Each
    coordinate and derivative product of g and h, and each moment of f, is
    computed once (36 products per call) and read by every block that uses
    it; the rotation v_j d_k - v_k d_j is a difference of the shared
    products v_j (d_k s).
    """
    N = f.degree_cap
    axes = range(1, 4)
    pairs = list(itertools.permutations(axes, 2))
    # moments of f: (f, v_b v_a Phi_0) as fm2[a, b], (f, v_a Phi_0), (f, Phi_0)
    phi0 = unit_spectrum(N, (0, 0, 0))
    v_phi0 = {a: multiply_v(a, phi0) for a in axes}
    fm0 = inner_product(f, phi0)
    fm1 = {a: inner_product(f, v_phi0[a]) for a in axes}
    fm2 = {(a, b): inner_product(f, multiply_v(b, v_phi0[a])) for a in axes for b in axes}

    d_g = {a: differentiate_v(a, g) for a in axes}
    v_g = {a: multiply_v(a, g) for a in axes}
    d_h = {a: differentiate_v(a, h) for a in axes}
    v_h = {a: multiply_v(a, h) for a in axes}
    vd_g = {(a, b): multiply_v(a, d_g[b]) for a, b in pairs}
    vd_h = {(a, b): multiply_v(a, d_h[b]) for a, b in pairs}
    grad_minus_half_v_g = {a: d_g[a] - 0.5 * v_g[a] for a in axes}
    minus_a_h = {a: -1.0 * (d_h[a] + 0.5 * v_h[a]) for a in axes}

    e1 = e2 = e3 = e4 = e5 = e6 = e7 = 0.0 + 0.0j
    for k, j in pairs:
        minus_ak_h, gmh_k = minus_a_h[k], grad_minus_half_v_g[k]
        rot_g = vd_g[j, k] - vd_g[k, j]
        rot_h = vd_h[j, k] - vd_h[k, j]
        e1 += fm2[j, j] * inner_product(gmh_k, minus_ak_h)
        e2 -= fm2[k, j] * inner_product(grad_minus_half_v_g[j], minus_ak_h)
        e3 += fm0 * inner_product(v_g[k], minus_ak_h)
        e4 -= fm1[k] * inner_product(g, minus_ak_h)
        e5 -= 0.5 * fm0 * inner_product(rot_g, rot_h)
        e6 -= fm1[j] * inner_product(rot_g, minus_ak_h)
        e7 += fm1[j] * inner_product(gmh_k, rot_h)
    return complex(e1 + e2 + e3 + e4 + e5 + e6 + e7)


def gamma_apply(f: HermiteSpectrum, g: HermiteSpectrum) -> HermiteSpectrum:
    """Strong form of the bilinear term: (gamma_apply(f,g), h) equals
    gamma_weak_D(f,g,h) for every h on the truncated space.

    Identities: gamma_apply(Phi_0, g) == -L1 g, gamma_apply(g, Phi_0) == -L2 g.
    Output levels exceed those of g by at most 2.
    """
    f._check_compatible(g)
    ops = get_operators(f.degree_cap)
    mom = f.coeffs[ops.moment_slots]
    out = ops.moment_stack @ np.outer(mom, g.coeffs).ravel()
    return HermiteSpectrum(f.degree_cap, out)


# ---------------------------------------------------------------------------
# quadrature oracle
#
# Every profile and every test function is a tensor product of 1-D Hermite
# functions, and the collision matrix is a polynomial in v and v*, so every
# 3-D sum of the tensor Gauss rule factors into 1-D sums: the oracle never
# forms a grid.  The 1-D sums of each (N, order) are built once and shared
# by every call; a call contracts the coefficient tensors of f and g with
# them one axis at a time.
# ---------------------------------------------------------------------------


class QuadratureConvergenceError(RuntimeError):
    """Raised when raising the quadrature order still moves the result."""


def _hermite_value_tables(max_deg: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial parts p_n and p_n' of the basis functions at the points x.

    p_0 = (2 pi)^(-1/4), p_{n+1} = (x p_n - sqrt(n) p_{n-1}) / sqrt(n+1),
    and the basis function is p_n(x) * exp(-x^2/4).
    """
    P = np.zeros((max_deg + 1, x.size))
    dP = np.zeros_like(P)
    P[0] = (2.0 * math.pi) ** (-0.25)
    if max_deg >= 1:
        P[1] = x * P[0]
        dP[1] = P[0]
    for n in range(1, max_deg):
        P[n + 1] = (x * P[n] - math.sqrt(n) * P[n - 1]) / math.sqrt(n + 1)
    for n in range(1, max_deg):
        dP[n + 1] = math.sqrt(n + 1) * P[n]
    return P, dP


def _contract(T: np.ndarray, tables) -> np.ndarray:
    """sum_abc T[..., a, b, c] A0[..., a, x] A1[..., b, y] A2[..., c, z] for
    tables (A0, A1, A2), by three matmuls; the leading axes of T and of the
    tables broadcast, so one call contracts a stack of tensors, each with
    its own tables."""
    A0, A1, A2 = tables
    T = np.swapaxes(A1, -1, -2)[..., None, :, :] @ (T @ A2[..., None, :, :])
    *batch, a, y, z = T.shape
    out = np.swapaxes(A0, -1, -2) @ T.reshape(*batch, a, y * z)
    return out.reshape(*batch, -1, y, z)


def _exponents(*axes: int) -> tuple:
    """The exponent triple of the monomial prod v_axis over axes (0-based,
    repeats raise the power)."""
    e = [0, 0, 0]
    for axis in axes:
        e[axis] += 1
    return tuple(e)


@cache
def _a_matrix_terms(k: int, j: int) -> tuple:
    """Separated monomial expansion of the collision matrix entry
    a_kj(v - v*) = delta_kj |v - v*|^2 - (v_k - v*_k)(v_j - v*_j), as
    (coefficient, v-exponents, v*-exponents) triples.  0-based axes."""
    one = _exponents()
    if k != j:
        ekj = _exponents(k, j)
        return ((-1.0, ekj, one), (1.0, _exponents(k), _exponents(j)),
                (1.0, _exponents(j), _exponents(k)), (-1.0, one, ekj))
    terms = []
    for axis in range(3):
        if axis != k:
            e2, e1 = _exponents(axis, axis), _exponents(axis)
            terms += [(1.0, e2, one), (-2.0, e1, e1), (1.0, one, e2)]
    return tuple(terms)


@cache
def _a_matrix_map() -> np.ndarray:
    """`_a_matrix_terms` as one linear map, (3, 3, 27, 27): for v*-side sums
    s indexed by v*-exponents, A[k, j] @ s.ravel() is the (3, 3, 3) tensor
    (raveled) of the v-monomial coefficients of integral a_kj(v - v*) s."""
    A = np.zeros((3, 3, 27, 27))
    for k, j in itertools.product(range(3), repeat=2):
        for coef, pexp, qexp in _a_matrix_terms(k, j):
            A[k, j, np.ravel_multi_index(pexp, (3, 3, 3)),
              np.ravel_multi_index(qexp, (3, 3, 3))] += coef
    A.flags.writeable = False
    return A


@cache
def _gauss_sums(N: int, order: int) -> tuple:
    """The 1-D sums of the Gauss-Hermite rule of `order` points at cap N
    that every oracle call reads, per axis and read-only: (f tables,
    g tables).  A profile's table is t = P for the value and t = dP - x P
    for a ladder profile on its axis; the test function's is b = dP on the
    axis of its direction k and P elsewhere.

    * f tables: a stack (4, N+1, 3) of sum_x w x^e t(x), e = 0, 1, 2, for
      the value (entry 0) and the ladder profiles (entry 1 + j);
    * g tables: a stack (12, N+1, 3 (N+1)) of sum_x t(x) w x^e b(x), over
      (k, profile) in that order.
    """
    nodes, wts = np.polynomial.hermite.hermgauss(order)
    x = math.sqrt(2.0) * nodes  # points where the e^{-v^2/2} weight lives
    w = math.sqrt(2.0) * wts
    P, dP = _hermite_value_tables(N, x)
    t_of = {"value": P, "ladder": dP - x * P}
    w_pow = w * x ** np.arange(3)[:, None]
    sums = {t: T @ w_pow.T for t, T in t_of.items()}
    pairs = {(t, b): np.einsum("ax,ex,bx->aeb", T, w_pow, B).reshape(N + 1, -1)
             for t, T in t_of.items() for b, B in (("P", P), ("dP", dP))}
    profiles = (None, 0, 1, 2)  # the value, then the ladder profile on axis j

    def t_on(a, j):
        return "ladder" if a == j else "value"

    f_tables = tuple(np.stack([sums[t_on(a, j)] for j in profiles]) for a in range(3))
    g_tables = tuple(
        np.stack([pairs[t_on(a, j), "dP" if a == k else "P"]
                  for k in range(3) for j in profiles])
        for a in range(3)
    )
    for table in (*f_tables, *g_tables):
        table.flags.writeable = False
    return f_tables, g_tables


def _oracle_at_order(
    f: HermiteSpectrum, g: HermiteSpectrum, order: int
) -> np.ndarray:
    """Oracle coefficients from the tensor Gauss-Hermite rule of `order`
    points per axis, in canonical slot order."""
    N = f.degree_cap
    slots = tuple(np.array(get_basis(N).indices, dtype=np.int64).T)
    f_tables, g_tables = _gauss_sums(N, order)
    T = np.zeros((2,) + (N + 1,) * 3, dtype=np.complex128)
    T[(slice(None),) + slots] = f.coeffs, g.coeffs
    # v*-side: sqrt(mu) f and sqrt(mu) (d_j - v*_j/2) f summed against w3
    # v*^e for every exponent triple e <= (2, 2, 2), indexed by e
    stars = (2.0 * math.pi) ** (-0.75) * _contract(T[0], f_tables)
    A = _a_matrix_map()
    # per test direction k, the (3, 3, 3) v-monomial coefficients of the
    # factors of g and of (d_j - v_j) g, j = 0..2, from the v*-side sums
    coef = np.empty((3, 4, 27), dtype=np.complex128)
    coef[:, 0] = -(A @ stars[1:].reshape(3, 27, 1))[..., 0].sum(axis=1)
    coef[:, 1:] = A @ stars[0].ravel()
    # each profile of g times each v-monomial, paired with each test function
    # (-d_k - v_k/2) Phi_beta (polynomial part -d_k p_beta), then summed
    # against the coefficients
    pairings = _contract(T[1], g_tables).reshape((3, 4) + (3, N + 1) * 3)
    out = -np.einsum("kiabc,kiaxbycz->xyz", coef.reshape(3, 4, 3, 3, 3), pairings)
    return out[slots]


def gamma_quadrature_oracle(
    f: HermiteSpectrum,
    g: HermiteSpectrum,
    order: int = 20,
) -> HermiteSpectrum:
    """Reference bilinear term from the defining (v, v*) double integral.

    The weak form is integrated by tensor Gauss-Hermite quadrature on both
    velocity arguments (weight exp(-|.|^2/2) after absorbing the Gaussian
    factors of the arguments), pairing against every basis function up to the
    cap.  The separable polynomial collision matrix lets the 6-D tensor sum
    factor into 3-D sums, and the tensor-product basis lets each 3-D sum
    factor into 1-D sums over the nodes, built once per (N, order): f's
    profiles summed against the v*-monomials of the collision matrix, and
    each profile of g times each v-monomial paired with each test function.
    A call contracts f's and g's coefficients with them axis by axis, three
    matmuls per contraction.  The result is identical to a literal 6-D
    evaluation up to summation order.

    Non-finite coefficients are rejected with a ValueError.  The degree of f
    and g must be <= 3 and the cap <= 8 (cost guard).  The computation is
    repeated at `order + 4`; if any coefficient moves by more than 1e-9, or
    the result is not finite, a QuadratureConvergenceError is raised.
    """
    f._check_compatible(g)
    if not (np.all(np.isfinite(f.coeffs)) and np.all(np.isfinite(g.coeffs))):
        raise ValueError("oracle arguments must have finite coefficients")
    if f.degree() > 3 or g.degree() > 3:
        raise ValueError("oracle arguments must have degree <= 3")
    if f.degree_cap > 8:
        raise ValueError("oracle degree cap limited to 8")
    lo = _oracle_at_order(f, g, order)
    hi = _oracle_at_order(f, g, order + 4)
    drift = float(np.max(np.abs(hi - lo)))
    if not drift <= 1e-9:
        raise QuadratureConvergenceError(
            f"quadrature order {order} insufficient: order +4 moved a "
            f"coefficient by {drift:.3e}"
        )
    return HermiteSpectrum(f.degree_cap, hi)
