"""Quadrature oracle for the bilinear term: an independent reference built
from the defining double integral, checked against the ladder-algebra route."""

import math
from pathlib import Path

import numpy as np
import pytest

from landau_hermite import landau_ops
from landau_hermite.hermite_core import unit_spectrum, zero_spectrum, get_basis
from landau_hermite.landau_ops import (
    apply_L1,
    gamma_apply,
    gamma_quadrature_oracle,
    QuadratureConvergenceError,
    _a_matrix_terms,
    _hermite_value_tables,
    _oracle_at_order,
)

ZERO = (0, 0, 0)


def random_low_degree(N, rng, max_level):
    basis = get_basis(N)
    s = zero_spectrum(N)
    sel = basis.levels <= max_level
    c = rng.standard_normal(int(np.sum(sel))) + 1j * rng.standard_normal(
        int(np.sum(sel))
    )
    s.coeffs[sel] = c / np.linalg.norm(c)
    return s


def test_oracle_of_two_ground_states_vanishes():
    N = 5
    phi0 = unit_spectrum(N, ZERO)
    out = gamma_quadrature_oracle(phi0, phi0)
    assert np.max(np.abs(out.coeffs)) < 1e-10


def test_oracle_reproduces_minus_L1():
    rng = np.random.default_rng(31)
    N = 5
    phi0 = unit_spectrum(N, ZERO)
    g = random_low_degree(N, rng, 3)
    out = gamma_quadrature_oracle(phi0, g)
    ref = apply_L1(g)
    assert np.max(np.abs(out.coeffs + ref.coeffs)) < 1e-9


def _oracle_full6d(f, g, order=6):
    """Literal 6-D tensor quadrature over (v, v*) pairs, for cross-checking
    the factored path.  Builds its own per-basis-function (|basis|, n^3)
    tables, so it shares no contraction with the oracle.  Cost grows like
    order^6; keep order small."""
    indices = np.array(get_basis(f.degree_cap).indices, dtype=np.int64)
    nodes, wts = np.polynomial.hermite.hermgauss(order)
    x = math.sqrt(2.0) * nodes
    P, dP = _hermite_value_tables(f.degree_cap, x)
    w1 = math.sqrt(2.0) * wts
    w3 = np.einsum("a,b,c->abc", w1, w1, w1).reshape(-1)
    grid = [np.broadcast_to(x.reshape(s), (order,) * 3).reshape(-1)
            for s in ((-1, 1, 1), (1, -1, 1), (1, 1, -1))]

    def table(ax=None):  # rows p_alpha (ax None) or d_ax p_alpha on the grid
        t = [dP[indices[:, a]] if a == ax else P[indices[:, a]] for a in range(3)]
        return np.einsum("ix,iy,iz->ixyz", *t).reshape(len(indices), -1)

    V, D = table(), [table(ax) for ax in range(3)]
    mu_fac = (2.0 * math.pi) ** (-0.75)
    star_f = mu_fac * (f.coeffs @ V)
    star_df = [mu_fac * (f.coeffs @ D[j]) - grid[j] * star_f for j in range(3)]
    g_plain = g.coeffs @ V
    g_ladder = [g.coeffs @ D[j] - grid[j] * g_plain for j in range(3)]
    out = np.zeros(len(indices), dtype=np.complex128)
    # pairwise collision matrix on the product grid, one (k, j) at a time
    dz = [grid[ax][:, None] - grid[ax][None, :] for ax in range(3)]  # v - v*
    z2 = dz[0] ** 2 + dz[1] ** 2 + dz[2] ** 2
    for k in range(3):
        for j in range(3):
            akj = (z2 if k == j else 0.0) - dz[k] * dz[j]
            # sum over v* for both f profiles
            inner1 = akj @ (w3 * star_f)
            inner2 = akj @ (w3 * star_df[j])
            integrand = inner1 * g_ladder[j] - inner2 * g_plain
            # test function (-d_k - v_k/2) Phi_beta has polynomial part -d_k p_beta
            out -= D[k] @ (w3 * integrand)
    return out


def test_oracle_vs_gamma_apply_on_random_pairs():
    rng = np.random.default_rng(32)
    N = 5
    for _ in range(20):
        f = random_low_degree(N, rng, 3)
        g = random_low_degree(N, rng, 3)
        oracle = gamma_quadrature_oracle(f, g)
        direct = gamma_apply(f, g)
        scale = max(np.max(np.abs(direct.coeffs)), 1e-30)
        rel = np.max(np.abs(oracle.coeffs - direct.coeffs)) / scale
        assert rel <= 1e-8


def test_oracle_vs_gamma_apply_at_cap_8():
    """Complex, non-Hermitian pairs at the largest cap the cost guard allows."""
    rng = np.random.default_rng(35)
    N = 8
    for _ in range(3):
        f = random_low_degree(N, rng, 3)
        g = random_low_degree(N, rng, 3)
        oracle = gamma_quadrature_oracle(f, g)
        direct = gamma_apply(f, g)
        scale = max(np.max(np.abs(direct.coeffs)), 1e-30)
        rel = np.max(np.abs(oracle.coeffs - direct.coeffs)) / scale
        assert rel <= 1e-8


def test_factored_path_equals_full_6d_tensor_sum():
    rng = np.random.default_rng(33)
    N = 4
    f = random_low_degree(N, rng, 2)
    g = random_low_degree(N, rng, 2)
    order = 8
    fact = _oracle_at_order(f, g, order)
    full = _oracle_full6d(f, g, order)
    assert np.max(np.abs(fact - full)) < 1e-10


def test_oracle_rejects_high_degree():
    N = 6
    s = unit_spectrum(N, (2, 2, 0))  # degree 4
    with pytest.raises(ValueError):
        gamma_quadrature_oracle(s, s)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("slot", ["f", "g"])
def test_oracle_rejects_non_finite_coefficients(slot, value):
    N = 5
    f = unit_spectrum(N, ZERO)
    g = unit_spectrum(N, (1, 0, 0))
    (f if slot == "f" else g).coeffs[0] = value
    with pytest.raises(ValueError, match="finite"):
        gamma_quadrature_oracle(f, g)


def test_oracle_guard_trips_on_nan_result(monkeypatch):
    """A NaN produced inside the quadrature must not pass the drift guard."""
    N = 5
    phi0 = unit_spectrum(N, ZERO)
    size = get_basis(N).size
    monkeypatch.setattr(
        landau_ops, "_oracle_at_order",
        lambda f, g, order: np.full(size, np.nan, dtype=np.complex128),
    )
    with pytest.raises(QuadratureConvergenceError):
        gamma_quadrature_oracle(phi0, phi0)


def test_oracle_convergence_guard_trips_on_tiny_order():
    rng = np.random.default_rng(34)
    N = 5
    f = random_low_degree(N, rng, 3)
    g = random_low_degree(N, rng, 3)
    # order 2 cannot integrate the degree-12 integrand; the +4 refinement
    # moves the result and the guard must fire
    with pytest.raises(QuadratureConvergenceError):
        gamma_quadrature_oracle(f, g, order=2)


def test_collision_matrix_terms_match_their_definition():
    # summing the separated monomials of a_kj gives
    # delta_kj |v - v*|^2 - (v_k - v*_k)(v_j - v*_j) at random (v, v*), to
    # rounding relative to the size of the terms, |v|^2 + |v*|^2
    rng = np.random.default_rng(71)
    for v, w in rng.standard_normal((5, 2, 3)):
        d = v - w
        for k in range(3):
            for j in range(3):
                total = sum(
                    coef * np.prod(v**np.array(pexp)) * np.prod(w**np.array(qexp))
                    for coef, pexp, qexp in _a_matrix_terms(k, j)
                )
                exact = (k == j) * d @ d - d[k] * d[j]
                assert abs(total - exact) <= 1e-12 * (v @ v + w @ w), (k, j)


def suite_pairs():
    """The five (f, g) pairs of the verify suite's quadrature_oracle_match
    check: N = 5, levels <= 3, real normal coefficients from seed 103,
    each normalised."""
    rng = np.random.default_rng(103)
    sel = get_basis(5).levels <= 3
    for _ in range(5):
        f, g = zero_spectrum(5), zero_spectrum(5)
        f.coeffs[sel] = rng.standard_normal(int(sel.sum()))
        g.coeffs[sel] = rng.standard_normal(int(sel.sum()))
        f.coeffs /= f.norm()
        g.coeffs /= g.norm()
        yield f, g


PINNED_ORACLE = Path(__file__).parent / "data" / "oracle_3d1bb1c.txt"


def test_oracle_matches_its_pinned_values():
    """The shared rule and the matmul contractions move the oracle by
    rounding only: at the suite's five pairs and orders 20 and 24 it agrees
    with commit 3d1bb1c's to 1e-12 of each result's largest coefficient.

    The pinned file (rows of real and imaginary parts, pair-major, then
    order, then slot) was written with this file copied into the tests of a
    checkout of commit 3d1bb1c, from the checkout's root, by
        PYTHONPATH=src:tests python -c "import numpy as np; from test_oracle import suite_pairs; from landau_hermite.landau_ops import _oracle_at_order as o; np.savetxt('oracle_3d1bb1c.txt', np.array([o(f, g, n) for f, g in suite_pairs() for n in (20, 24)]).view(float).reshape(-1, 2))"
    """
    want = np.loadtxt(PINNED_ORACLE).view(np.complex128).reshape(5, 2, -1)
    for (f, g), pinned in zip(suite_pairs(), want):
        for order, w in zip((20, 24), pinned):
            got = _oracle_at_order(f, g, order)
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w)), order
