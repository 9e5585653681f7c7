"""Linearized operator: kernel, blocks, eigenvalues, coercivity identity."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from landau_hermite.hermite_core import (
    get_basis,
    unit_spectrum,
    random_spectrum,
    inner_product,
    multiply_v,
    differentiate_v,
    angular,
)
from landau_hermite.landau_ops import (
    apply_L1,
    apply_L2,
    apply_L,
    level_blocks_L,
    closed_form_level_spectrum,
    collision_moments,
    get_operators,
    MOMENTS,
)

ZERO = (0, 0, 0)
E = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def radial_level2(N):
    return (
        unit_spectrum(N, (2, 0, 0))
        + unit_spectrum(N, (0, 2, 0))
        + unit_spectrum(N, (0, 0, 2))
    )


def test_L1_examples():
    N = 6
    assert apply_L1(unit_spectrum(N, ZERO)).norm() == 0.0
    for e in E:
        out = apply_L1(unit_spectrum(N, e))
        np.testing.assert_allclose(out.coeffs, 4.0 * unit_spectrum(N, e).coeffs, atol=1e-13)
    s = unit_spectrum(N, (1, 1, 0))
    np.testing.assert_allclose(apply_L1(s).coeffs, 10.0 * s.coeffs, atol=1e-13)


def test_L2_examples():
    N = 6
    for e in E:
        out = apply_L2(unit_spectrum(N, e))
        np.testing.assert_allclose(out.coeffs, -4.0 * unit_spectrum(N, e).coeffs, atol=1e-13)
    s = radial_level2(N)
    np.testing.assert_allclose(apply_L2(s).coeffs, -4.0 * s.coeffs, atol=1e-13)
    assert apply_L2(unit_spectrum(N, (3, 0, 0))).norm() == 0.0


def test_L2_supported_on_levels_1_and_2():
    rng = np.random.default_rng(11)
    N = 8
    basis = get_basis(N)
    s = random_spectrum(N, rng)
    out = apply_L2(s)
    mask = (basis.levels == 1) | (basis.levels == 2)
    assert np.max(np.abs(out.coeffs[~mask])) < 1e-14


def test_collision_invariants_in_kernel():
    N = 8
    invariants = [unit_spectrum(N, ZERO)] + [unit_spectrum(N, e) for e in E]
    invariants.append(radial_level2(N))
    for s in invariants:
        assert apply_L(s).norm() < 1e-12


def test_collision_invariants_table_rows():
    # each row of the table is the sum of the basis functions it stands for
    for N in (4, 9):
        rows = get_operators(N).collision_invariants
        want = [unit_spectrum(N, ZERO)] + [unit_spectrum(N, e) for e in E]
        want.append(radial_level2(N))
        assert rows.shape == (5, get_basis(N).size) and rows.dtype == np.float64
        for row, s in zip(rows, want):
            assert np.array_equal(row, s.coeffs)


def test_L_spectrum_closed_form():
    # every eigenvalue of every level block, against the closed form; the
    # five zero eigenvalues are the kernel, which the invariant table spans
    N = 16
    zeros = 0
    for k, block in enumerate(level_blocks_L(N)):
        got = np.linalg.eigvalsh(block)
        want = closed_form_level_spectrum(k)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-12
        zeros += int(np.sum(np.abs(got) < 1e-12))
    assert zeros == 5
    ops = get_operators(N)
    assert np.max(np.abs(ops.L @ ops.collision_invariants.T)) < 1e-12


def test_L_example_eigenvector():
    N = 8
    s = unit_spectrum(N, (1, 1, 0))
    np.testing.assert_allclose(apply_L(s).coeffs, 12.0 * s.coeffs, atol=1e-13)


def test_L_positive_semidefinite_sampled():
    rng = np.random.default_rng(12)
    N = 10
    for _ in range(50):
        s = random_spectrum(N, rng)
        q = inner_product(apply_L(s), s).real
        assert q >= -1e-10 * s.norm() ** 2


def test_level_blocks_match_apply():
    rng = np.random.default_rng(13)
    N = 9
    blocks = level_blocks_L(N)
    basis = get_basis(N)
    assert [b.shape[0] for b in blocks] == [(n + 1) * (n + 2) // 2 for n in range(N + 1)]
    s = random_spectrum(N, rng)
    out = apply_L(s)
    for n, block in enumerate(blocks):
        sl = basis.level_slices[n]
        np.testing.assert_allclose(block @ s.coeffs[sl], out.coeffs[sl], atol=1e-12)


def test_level_blocks_symmetric_psd():
    for N in (6, 10):
        for block in level_blocks_L(N):
            assert np.max(np.abs(block - block.T)) < 1e-12
            eigs = np.linalg.eigvalsh(block)
            assert eigs.min() >= -1e-10


def test_level_block_spectra_contain_expected_gaps():
    # level-2 l=2 eigenvalue 12 and level-3 l=1 eigenvalue 8
    blocks = level_blocks_L(8)
    lev2 = np.sort(np.linalg.eigvalsh(blocks[2]))
    assert np.min(np.abs(lev2 - 12.0)) < 1e-10
    assert np.min(np.abs(lev2 - 0.0)) < 1e-10
    lev3 = np.sort(np.linalg.eigvalsh(blocks[3]))
    assert np.min(np.abs(lev3 - 8.0)) < 1e-10


def test_L2_blocks_independent_of_cap():
    b1 = get_operators(6)
    b2 = get_operators(12)
    sl1 = get_basis(6).level_slices
    sl2 = get_basis(12).level_slices
    for n in (1, 2):
        m1 = b1.L2[sl1[n], sl1[n]].toarray()
        m2 = b2.L2[sl2[n], sl2[n]].toarray()
        np.testing.assert_allclose(m1, m2, atol=1e-14)
        assert np.linalg.norm(m1, 2) < 20.0


def triple_norm_sq_v(g):
    """2 sum_j (|d_j g|^2 + |v_j g|^2/4) + (1/2) sum_{j!=k} |L_{k,j} g|^2."""
    total = 0.0
    for j in (1, 2, 3):
        total += 2.0 * differentiate_v(j, g).norm() ** 2
        total += 0.5 * multiply_v(j, g).norm() ** 2
    for k in (1, 2, 3):
        for j in (1, 2, 3):
            if k != j:
                total += 0.5 * angular(k, j, g).norm() ** 2
    return total


def test_coercivity_identity():
    # (L1 g, g) = |||g|||_v^2 - 3 ||g||^2 on degree <= N-2
    rng = np.random.default_rng(14)
    N = 10
    for _ in range(100):
        g = random_spectrum(N, rng, max_level=N - 2)
        lhs = inner_product(apply_L1(g), g).real
        rhs = triple_norm_sq_v(g) - 3.0 * g.norm() ** 2
        assert abs(lhs - rhs) < 1e-10


def test_collision_moments_examples():
    N = 6
    m = collision_moments(unit_spectrum(N, ZERO))
    assert m.m0 == 1.0
    assert np.all(m.m1 == 0) and np.all(m.m2d == 0) and np.all(m.m2o == 0)
    m = collision_moments(unit_spectrum(N, (1, 1, 0)))
    assert m.m2o[0] == 1.0 and m.m0 == 0.0


def test_collision_moments_match_inner_products():
    rng = np.random.default_rng(15)
    N = 6
    f = random_spectrum(N, rng)
    m = collision_moments(f)
    assert abs(m.m0 - inner_product(f, unit_spectrum(N, ZERO))) < 1e-14
    for i, e in enumerate(E):
        assert abs(m.m1[i] - inner_product(f, unit_spectrum(N, e))) < 1e-14
        twice = tuple(2 * c for c in e)
        assert abs(m.m2d[i] - inner_product(f, unit_spectrum(N, twice))) < 1e-14
    for p, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        alpha = [0, 0, 0]
        alpha[a] = 1
        alpha[b] = 1
        assert abs(m.m2o[p] - inner_product(f, unit_spectrum(N, tuple(alpha)))) < 1e-14


@pytest.mark.parametrize("N", [4, 8, 16])
def test_moment_widths_bound_the_stored_columns(N):
    # G_m raises the level by |MOMENTS[m]|, so block m of the stack stores
    # no column past the levels <= N - |MOMENTS[m]|, the leading
    # comb(N - |m| + 3, 3) indices
    ops = get_operators(N)
    M = ops.basis.size
    assert ops.moment_widths == tuple(math.comb(N - sum(m) + 3, 3) for m in MOMENTS)
    cols = ops.moment_stack.indices
    for m, width in enumerate(ops.moment_widths):
        block = cols[(cols >= m * M) & (cols < (m + 1) * M)] - m * M
        assert block.size and block.max() < width, m
        assert ops.basis.levels[width - 1] == N - sum(MOMENTS[m])


@pytest.mark.parametrize("N", [4, 8, 10, 16])
def test_dissipation_form_closed_form(N):
    # Q = L1 + 3 I - (N + 3) P_N, P_N the projection on the top level: the
    # coercivity identity (L1 g, g) = |||g|||^2 - 3 |g|^2 holds below the
    # cap, and at the cap the truncated sum loses (N + 3) on the diagonal.
    # Measured: max |Q - closed| <= 2.6e-16 of max |Q| at these N.
    ops = get_operators(N)
    levels = ops.basis.levels
    Q = ops.dissipation_form
    closed = ops.L1 + sp.diags(3.0 - (N + 3.0) * (levels == N))
    assert abs(Q - closed).max() <= 1e-15 * abs(Q).max()


def test_hydrodynamic_rates_of_the_linearized_operator():
    # the five least-damped eigenvalues of L + i eta v_1 at small eta are the
    # Navier-Stokes-Fourier modes of Maxwellian molecules, whose
    # Chapman-Enskog coefficients are exact eigenvalue ratios: shear
    # (twice) at nu = 1/12 = 1/lambda_2, sound (a conjugate pair) at speed
    # sqrt(5/3) attenuated by (4 nu / 3 + (gamma - 1) chi) / 2 = 7/72 with
    # gamma = 5/3, and heat at chi = 1/8 (8 the level-3, l = 1 eigenvalue).
    # Measured at N = 8, eta = 0.05: 0.08333 (twice), 0.09722 (twice),
    # 0.12500 and |Im| / eta = 1.29100, all within 4e-5 relative.
    N, eta = 8, 0.05
    A = (get_operators(N).L + 1j * eta * get_basis(N).coordinate(0)).toarray()
    lam = np.linalg.eigvals(A)
    lam = lam[np.argsort(lam.real)[:5]]
    sound = np.abs(lam.imag) > 0.5 * eta
    assert sound.sum() == 2
    rates = lam.real / eta**2
    want = {False: [1 / 12, 1 / 12, 1 / 8], True: [7 / 72, 7 / 72]}
    for kind, values in want.items():
        np.testing.assert_allclose(np.sort(rates[sound == kind]), values, rtol=1e-4, atol=0)
    np.testing.assert_allclose(np.abs(lam[sound].imag) / eta, math.sqrt(5 / 3), rtol=1e-4, atol=0)
