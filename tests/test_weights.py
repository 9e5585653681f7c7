"""Weight Psi, the regularized exponential F, and the sampled inequalities."""

import math

import numpy as np
import pytest

from landau_hermite.weights import (
    WeightParams,
    psi,
    psi_closed,
    psi_gradient_xi,
    psi_gradient_eta,
    weight_F,
    weight_F_split,
    bracket_factor,
    weight_derivative_identity_residual,
    transport_identity_residual,
    psi_derivative_bounds,
    time_integral_lower_ratio,
    time_integral_upper_ratio,
    submultiplicativity_check,
    weight_triangle_check,
    SampleGrid,
    log_radial_grid,
)


def params(**kw):
    base = dict(c0=1 / 32, delta=0.5, delta_prime=0.25, r=2.0, t=0.7)
    base.update(kw)
    return WeightParams(**base)


def test_params_range_enforcement():
    with pytest.raises(ValueError):
        params(c0=0.0)
    with pytest.raises(ValueError):
        params(delta=1.5)
    with pytest.raises(ValueError):
        params(r=1.0)
    with pytest.raises(ValueError):
        params(delta_prime=0.9)  # r * delta' = 1.8 > 1
    with pytest.raises(ValueError):
        params(t=0.0)


def test_psi_constant_integrand():
    c0 = 1 / 32
    xi = np.array([1.5, -2.0, 0.5])
    expected = c0 * 0.8 * math.sqrt(1.0 + float(xi @ xi))
    assert abs(psi(0.8, np.zeros(3), xi, c0) - expected) < 1e-13


def test_psi_closed_form_value():
    c0 = 0.25
    expected = c0 * (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 2.0
    got = psi(1.0, np.array([1.0, 0, 0]), np.zeros(3), c0)
    assert abs(got - expected) < 1e-12
    got_closed = psi_closed(1.0, np.array([1.0, 0, 0]), np.zeros(3), c0)
    assert abs(got_closed - expected) < 1e-12


def test_quadrature_agrees_with_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(40):
        eta = rng.standard_normal(3) * rng.uniform(0.1, 20)
        xi = rng.standard_normal(3) * rng.uniform(0.1, 20)
        t = rng.uniform(0.05, 1.0)
        a = psi(t, eta, xi, 1.0)
        b = psi_closed(t, eta, xi, 1.0)
        assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)


def test_psi_gradients_match_central_differences_of_closed_form():
    # Central differences of step h err by h^2/6 |third derivative| <= h^2 t/2
    # (the third derivatives of <x> are at most 3, and rho <= t <= 1) plus
    # rounding of about eps |Psi| / h times the cancellation in psi_closed's
    # antiderivative difference.  With h = 1e-5 and |Psi| <= 10 that is about
    # 5e-11 + 1e-10 (measured worst 1.4e-10); 1e-8 leaves a factor 100 for
    # that cancellation, and a wrong integrand misses by O(t).
    rng = np.random.default_rng(48)
    n, h = 20, 1e-5
    eta = rng.standard_normal((n, 3)) * 2
    xi = rng.standard_normal((n, 3)) * 2
    t = rng.uniform(0.2, 0.9, n)
    grad_xi = psi_gradient_xi(t, eta, xi, 1.0)
    grad_eta = psi_gradient_eta(t, eta, xi, 1.0)
    for j, e in enumerate(np.eye(3) * h):
        d_xi = (psi_closed(t, eta, xi + e, 1.0) - psi_closed(t, eta, xi - e, 1.0)) / (2 * h)
        d_eta = (psi_closed(t, eta + e, xi, 1.0) - psi_closed(t, eta - e, xi, 1.0)) / (2 * h)
        np.testing.assert_allclose(grad_xi[:, j], d_xi, rtol=0, atol=1e-8)
        np.testing.assert_allclose(grad_eta[:, j], d_eta, rtol=0, atol=1e-8)


def test_transport_identity():
    rng = np.random.default_rng(42)
    for _ in range(15):
        eta = rng.standard_normal(3) * 2
        xi = rng.standard_normal(3) * 2
        t = rng.uniform(0.2, 0.9)
        assert transport_identity_residual(t, eta, xi, 1 / 32) < 1e-6


def test_psi_monotone_and_lipschitz():
    rng = np.random.default_rng(43)
    c0 = 1 / 32
    for _ in range(20):
        eta = rng.standard_normal(3) * 3
        xi = rng.standard_normal(3) * 3
        t = rng.uniform(0.1, 0.9)
        v0 = psi(t, eta, xi, c0)
        assert v0 >= 0.0
        assert psi(t + 0.05, eta, xi, c0) > v0
        h = rng.uniform(-0.5, 0.5)
        comp = rng.integers(0, 3)
        e = np.zeros(3)
        e[comp] = h
        v1 = psi(t, eta, xi + e, c0)
        assert abs(v1 - v0) <= c0 * t * abs(h) + 1e-12


def test_weight_F_at_zero_psi():
    p = params()
    val = weight_F(p, np.zeros(3), np.zeros(3), psi_val=0.0)
    assert abs(val - 1.0 / (1.0 + p.delta)) < 1e-14


def test_weight_F_large_delta_regime():
    # once e^Psi >> 1/delta, F * delta * (1 + delta' Psi)^r -> 1
    p = params()
    xi = np.array([4000.0, 0.0, 0.0])
    psi_val = psi(p.t, np.zeros(3), xi, p.c0)
    val = weight_F(p, np.zeros(3), xi, psi_val=psi_val)
    assert abs(val * p.delta * (1.0 + p.delta_prime * psi_val) ** p.r - 1.0) < 1e-6


def test_weight_F_range_and_monotonicity():
    rng = np.random.default_rng(44)
    for _ in range(30):
        eta = rng.standard_normal(3) * 5
        xi = rng.standard_normal(3) * 5
        p = params()
        val = weight_F(p, eta, xi)
        assert 0.0 < val <= 1.0 / p.delta
        assert weight_F(params(delta=0.9), eta, xi) < weight_F(params(delta=0.3), eta, xi)
        assert weight_F(params(delta_prime=0.4), eta, xi) < weight_F(
            params(delta_prime=0.1), eta, xi
        )


def test_weight_F_factor_split():
    rng = np.random.default_rng(45)
    p = params()
    for _ in range(25):
        eta = rng.standard_normal(3) * 4
        xi = rng.standard_normal(3) * 4
        f0, g, brk = weight_F_split(p, eta, xi)
        ref = weight_F(p, eta, xi)
        assert abs(f0 * g * brk - ref) <= 1e-12 * abs(ref)


def test_weight_derivative_identity_residual():
    rng = np.random.default_rng(46)
    p = params()
    for _ in range(10):
        eta = rng.standard_normal(3)
        xi = rng.standard_normal(3)
        direction = rng.standard_normal(7)
        assert weight_derivative_identity_residual(p, eta, xi, direction) < 1e-6


def test_bracket_bounded_by_one():
    p = params()
    for psi_val in (0.0, 0.3, 5.0, 80.0, 1e4):
        assert abs(bracket_factor(p, psi_val)) <= 1.0


def test_psi_derivative_bounds():
    rng = np.random.default_rng(47)
    p = params()
    eta = rng.standard_normal((40, 3)) * 3
    xi = rng.standard_normal((40, 3)) * 3
    rep = psi_derivative_bounds(p, eta, xi)
    assert rep["max_first_ratio"] <= 1.0 + 1e-9
    assert np.isfinite(rep["max_second_over_c0t"])


def test_time_integral_trivial_direction():
    # eta~ = 0 gives ratio exactly 1
    grid = SampleGrid(radii=log_radial_grid(n=4))
    res = time_integral_lower_ratio(1.0, grid)
    assert res.worst_ratio <= 1.0 + 1e-12


def test_time_integral_lower_floors():
    res1 = time_integral_lower_ratio(1.0)
    assert res1.worst_ratio >= 1.0 / 16.0
    res2 = time_integral_lower_ratio(2.0)
    assert res2.worst_ratio >= 1.0 / 32.0


def test_time_integral_upper_reports_finite_constants():
    res1 = time_integral_upper_ratio(1.0)
    res2 = time_integral_upper_ratio(2.0)
    assert np.isfinite(res1.worst_ratio) and res1.worst_ratio < 4.0
    assert np.isfinite(res2.worst_ratio) and res2.worst_ratio < 8.0
    # analytic bounds are sqrt(2) and 2; the sweep must not beat them
    assert res1.worst_ratio <= math.sqrt(2.0) + 1e-9
    assert res2.worst_ratio <= 2.0 + 1e-9


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
def test_time_integral_without_closed_form_raises(alpha):
    # only alpha = 1 and 2 have closed forms; the sweeps reach radii 1e6
    grid = SampleGrid(radii=log_radial_grid(n=3))
    with pytest.raises(ValueError, match="alpha must be 1 or 2"):
        time_integral_lower_ratio(alpha, grid)
    with pytest.raises(ValueError, match="alpha must be 1 or 2"):
        time_integral_upper_ratio(alpha, grid)


def test_quadrature_that_cannot_converge_raises():
    # an endpoint singularity: every panel doubling still moves the estimate
    from landau_hermite.landau_ops import QuadratureConvergenceError
    from landau_hermite.weights import _integrate_01

    with pytest.raises(QuadratureConvergenceError, match="8192 Gauss-Legendre panels"):
        _integrate_01(lambda u: u**-0.5)


def test_submultiplicativity_no_violations():
    res = submultiplicativity_check(0.37, n_samples=100_000, seed=5)
    assert res.worst_ratio <= 0.0


def test_weight_triangle_reports_bounded_constant():
    res = weight_triangle_check(params(), n_samples=2000, seed=6)
    assert np.isfinite(res.worst_ratio)
    assert res.worst_ratio > 0.0
