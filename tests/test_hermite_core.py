"""Ladder algebra: enumeration, operator actions, exact identities."""

import gc
import math
import weakref

import numpy as np
import pytest

from landau_hermite.hermite_core import (
    enumerate_indices,
    basis_size,
    get_basis,
    unit_spectrum,
    zero_spectrum,
    random_spectrum,
    raise_op,
    lower_op,
    multiply_v,
    differentiate_v,
    angular,
    inner_product,
    HermiteSpectrum,
    HermiteBasis,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
ZERO = (0, 0, 0)


def coeff(s, alpha):
    return s.coeffs[get_basis(s.degree_cap).index_of[alpha]]


def test_enumeration_counts():
    assert enumerate_indices(0) == [ZERO]
    assert len(enumerate_indices(2)) == 10
    assert len(enumerate_indices(8)) == 165
    assert basis_size(16) == 969


def test_enumeration_order_and_bijection():
    idx = enumerate_indices(5)
    levels = [sum(a) for a in idx]
    assert levels == sorted(levels)
    for n in range(6):
        block = [a for a in idx if sum(a) == n]
        assert block == sorted(block)
    assert len(set(idx)) == len(idx) == basis_size(5)


def test_raise_ground_state():
    s = raise_op(1, unit_spectrum(4, ZERO))
    assert abs(coeff(s, E1) - 1.0) < 1e-15
    assert abs(np.linalg.norm(s.coeffs) - 1.0) < 1e-15


def test_raise_normalization():
    s = raise_op(1, unit_spectrum(4, E1))
    assert abs(coeff(s, (2, 0, 0)) - math.sqrt(2)) < 1e-15


def test_raise_axes_commute():
    s = raise_op(2, unit_spectrum(4, E1))
    assert abs(coeff(s, (1, 1, 0)) - 1.0) < 1e-15
    a = raise_op(1, raise_op(2, unit_spectrum(4, ZERO)))
    b = raise_op(2, raise_op(1, unit_spectrum(4, ZERO)))
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-15)


def test_lower_examples():
    assert lower_op(1, unit_spectrum(4, ZERO)).norm() == 0.0
    s = lower_op(1, unit_spectrum(4, (2, 0, 0)))
    assert abs(coeff(s, E1) - math.sqrt(2)) < 1e-15
    assert lower_op(3, unit_spectrum(4, E1)).norm() == 0.0


def test_multiply_v_examples():
    s = multiply_v(1, unit_spectrum(4, ZERO))
    assert abs(coeff(s, E1) - 1.0) < 1e-15
    s = multiply_v(1, unit_spectrum(4, E1))
    assert abs(coeff(s, (2, 0, 0)) - math.sqrt(2)) < 1e-15
    assert abs(coeff(s, ZERO) - 1.0) < 1e-15
    s = multiply_v(2, unit_spectrum(4, E1))
    assert abs(coeff(s, (1, 1, 0)) - 1.0) < 1e-15


def test_differentiate_v_examples():
    s = differentiate_v(1, unit_spectrum(4, ZERO))
    assert abs(coeff(s, E1) + 0.5) < 1e-15
    s = differentiate_v(1, unit_spectrum(4, E1))
    assert abs(coeff(s, ZERO) - 0.5) < 1e-15
    assert abs(coeff(s, (2, 0, 0)) + math.sqrt(2) / 2) < 1e-15
    s = differentiate_v(2, unit_spectrum(4, E1))
    assert abs(coeff(s, (1, 1, 0)) + 0.5) < 1e-15


def test_angular_examples():
    s = angular(2, 1, unit_spectrum(4, E1))
    assert abs(coeff(s, E2) + 1.0) < 1e-15
    assert angular(2, 1, unit_spectrum(4, ZERO)).norm() == 0.0
    radial = (
        unit_spectrum(4, (2, 0, 0))
        + unit_spectrum(4, (0, 2, 0))
        + unit_spectrum(4, (0, 0, 2))
    )
    assert angular(2, 1, radial).norm() < 1e-15


def test_angular_rejects_equal_axes():
    with pytest.raises(ValueError):
        angular(1, 1, unit_spectrum(4, ZERO))


def test_inner_product_examples():
    N = 4
    assert inner_product(unit_spectrum(N, ZERO), unit_spectrum(N, ZERO)) == 1.0
    assert inner_product(unit_spectrum(N, E1), unit_spectrum(N, E2)) == 0.0
    val = inner_product(multiply_v(1, unit_spectrum(N, ZERO)), unit_spectrum(N, E1))
    assert abs(val - 1.0) < 1e-15


def test_parseval_norm():
    rng = np.random.default_rng(7)
    s = random_spectrum(8, rng)
    assert abs(s.norm() ** 2 - np.sum(np.abs(s.coeffs) ** 2)) < 1e-14


def test_commutation_identity():
    # [a-, a+] = 1 on inputs of degree <= N-2
    rng = np.random.default_rng(1)
    N = 10
    for _ in range(25):
        s = random_spectrum(N, rng, max_level=N - 2)
        for j in (1, 2, 3):
            lhs = lower_op(j, raise_op(j, s)) - raise_op(j, lower_op(j, s))
            assert np.max(np.abs(lhs.coeffs - s.coeffs)) < 1e-12


def test_adjointness():
    rng = np.random.default_rng(2)
    N = 10
    for _ in range(25):
        s1 = random_spectrum(N, rng, max_level=N - 1)
        s2 = random_spectrum(N, rng, max_level=N - 1)
        for j in (1, 2, 3):
            a = inner_product(raise_op(j, s1), s2)
            b = inner_product(s1, lower_op(j, s2))
            assert abs(a - b) < 1e-12


def test_angular_skew_symmetry():
    rng = np.random.default_rng(3)
    N = 10
    for _ in range(25):
        s1 = random_spectrum(N, rng)
        s2 = random_spectrum(N, rng)
        for k, j in ((1, 2), (2, 3), (3, 1)):
            a = inner_product(angular(k, j, s1), s2)
            b = inner_product(s1, angular(k, j, s2))
            assert abs(a + b) < 1e-12


def test_level_shifts():
    rng = np.random.default_rng(4)
    N = 9
    basis = get_basis(N)
    for n in range(N):
        s = zero_spectrum(N)
        sel = basis.levels == n
        vals = rng.standard_normal(int(np.sum(sel)))
        s.coeffs[sel] = vals / np.linalg.norm(vals)
        for j in (1, 2, 3):
            up = raise_op(j, s)
            down = lower_op(j, s)
            assert np.all(basis.levels[np.abs(up.coeffs) > 1e-14] == n + 1)
            if down.norm() > 0:
                assert np.all(basis.levels[np.abs(down.coeffs) > 1e-14] == n - 1)
        for k, j in ((1, 2), (3, 2)):
            rot = angular(k, j, s)
            if rot.norm() > 0:
                assert np.all(basis.levels[np.abs(rot.coeffs) > 1e-14] == n)


def test_angular_consistency_with_v_and_d():
    # L[k,j] == v_j d_k - v_k d_j on degree <= N-2
    rng = np.random.default_rng(5)
    N = 10
    for _ in range(10):
        s = random_spectrum(N, rng, max_level=N - 2)
        for k, j in ((1, 2), (2, 1), (1, 3), (3, 2)):
            direct = angular(k, j, s)
            composed = multiply_v(j, differentiate_v(k, s)) - multiply_v(
                k, differentiate_v(j, s)
            )
            assert np.max(np.abs(direct.coeffs - composed.coeffs)) < 1e-12


def test_spectrum_validation():
    with pytest.raises(ValueError):
        HermiteSpectrum(3, np.zeros(5))


def test_used_basis_is_freed():
    # the operator caches live on the instance: a repeated call returns the
    # same matrix, and a basis whose operators were read can still be freed
    def read(b):
        return (b.coordinate(0), b.derivative(1), b.rotation(0, 1),
                b.number_operator(), b.sphere_laplacian())

    basis = HermiteBasis(4)
    assert all(a is b for a, b in zip(read(basis), read(basis)))
    ref = weakref.ref(basis)
    del basis
    gc.collect()
    assert ref() is None
