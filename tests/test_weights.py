"""Weight Psi, the regularized exponential F, and the sampled inequalities."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from landau_hermite import weights
from landau_hermite.weights import (
    WeightParams,
    psi,
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


def _quad_reference(t, eta, xi):
    # Psi, grad_xi Psi and grad_eta Psi at c0 = 1 by scipy's adaptive
    # quadrature, split at the ray's closest approach to xi = 0; each comes
    # with quad's own error estimate (full_output returns its roundoff notes
    # instead of warning them)
    from scipy.integrate import quad

    rho_min = -float(eta @ xi) / max(float(eta @ eta), 1e-300)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200, full_output=1)
    if 0.0 < rho_min < t:
        opts["points"] = [rho_min]

    def integrals(f, n):
        out = [quad(lambda rho: f(rho, xi + rho * eta, j), 0.0, t, **opts) for j in range(n)]
        return np.array([o[0] for o in out]), np.array([o[1] for o in out])

    def brk(x):
        return math.sqrt(1.0 + float(x @ x))

    return (
        integrals(lambda rho, x, j: brk(x), 1),
        integrals(lambda rho, x, j: x[j] / brk(x), 3),
        integrals(lambda rho, x, j: rho * x[j] / brk(x), 3),
    )


def test_closed_form_agrees_with_scipy_quad():
    # 48 rays at scales 1e-2 to 1e2; every third crosses near xi = 0 halfway
    # along, where a gradient component nearly cancels.  Bounds: Psi 1e-13
    # relative, each gradient 1e-12 of its largest component; quad's own
    # error estimate must sit inside them
    rng = np.random.default_rng(41)
    for i in range(48):
        scale = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
        eta = rng.standard_normal(3) * scale
        xi = rng.standard_normal(3) * scale
        t = rng.uniform(0.05, 1.0)
        if i % 3 == 0:
            xi = -rng.uniform(0.3, 0.7) * t * eta + 0.1 * xi
        refs = _quad_reference(t, eta, xi)
        for fn, (ref, err), rtol in zip(
            (psi, psi_gradient_xi, psi_gradient_eta), refs, (1e-13, 1e-12, 1e-12)
        ):
            bound = rtol * np.max(np.abs(ref))
            assert np.max(err) <= bound
            assert np.max(np.abs(fn(t, eta, xi, 1.0) - ref)) <= bound


def test_psi_at_vanishing_eta():
    # eta = 0 and eta = 1e-300 give the constant-integrand values; |eta| = 1e-9
    # gives the first-order expansion, with the Hessian H of <xi>, to O(|eta|^2)
    c0, t = 1 / 32, 0.8
    xi = np.array([1.5, -2.0, 0.5])
    b = math.sqrt(1.0 + float(xi @ xi))
    for eta in (np.zeros(3), np.array([1e-300, -2e-300, 0.5e-300])):
        assert abs(psi(t, eta, xi, c0) - c0 * t * b) <= 1e-15 * c0 * t * b
        np.testing.assert_allclose(
            psi_gradient_xi(t, eta, xi, c0), c0 * t * xi / b, rtol=1e-15, atol=0
        )
        np.testing.assert_allclose(
            psi_gradient_eta(t, eta, xi, c0), c0 * t**2 / 2 * xi / b, rtol=1e-15, atol=0
        )
    eta = 1e-9 * np.array([0.6, 0.0, -0.8])
    hess = (np.eye(3) - np.outer(xi, xi) / b**2) / b
    expected = c0 * (t * b + t**2 / 2 * float(xi @ eta) / b)
    assert abs(psi(t, eta, xi, c0) - expected) <= 1e-15 * expected
    np.testing.assert_allclose(
        psi_gradient_xi(t, eta, xi, c0),
        c0 * (t * xi / b + t**2 / 2 * hess @ eta), rtol=1e-15, atol=0,
    )
    np.testing.assert_allclose(
        psi_gradient_eta(t, eta, xi, c0),
        c0 * (t**2 / 2 * xi / b + t**3 / 3 * hess @ eta), rtol=1e-15, atol=0,
    )


def test_gradients_on_a_ray_through_zero_halfway():
    # the ray crosses xi = 0 at rho = t/2, so the x component of grad_xi Psi
    # is about 0 by symmetry (exactly -4.4e-17)
    ray = (0.7, np.array([1e4, 0.0, 0.0]), np.array([-3500.0, 0.3, -0.2]), 1.0)
    grad_xi = psi_gradient_xi(*ray)
    grad_eta = psi_gradient_eta(*ray)
    assert np.all(np.isfinite(grad_xi)) and np.all(np.isfinite(grad_eta))
    assert abs(grad_xi[0]) <= 1e-12 * np.max(np.abs(grad_xi))


def test_package_import_leaves_out_test_references():
    # scipy.integrate and mpmath are test-only references; importing them at
    # package load would cost every run their memory
    code = (
        "import sys, landau_hermite.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'mpmath') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_psi_gradients_match_central_differences_of_closed_form():
    # Central differences of step h err by h^2/6 |third derivative| <= h^2 t/2
    # (the third derivatives of <x> are at most 3, and rho <= t <= 1) plus
    # rounding of about eps |Psi| / h.  With h = 1e-5 and |Psi| <= 10 that is
    # about 5e-11 + 2e-10; 1e-8 leaves a wide margin, and a wrong integrand
    # misses by O(t).
    rng = np.random.default_rng(48)
    n, h = 20, 1e-5
    eta = rng.standard_normal((n, 3)) * 2
    xi = rng.standard_normal((n, 3)) * 2
    t = rng.uniform(0.2, 0.9, n)
    grad_xi = psi_gradient_xi(t, eta, xi, 1.0)
    grad_eta = psi_gradient_eta(t, eta, xi, 1.0)
    for j, e in enumerate(np.eye(3) * h):
        d_xi = (psi(t, eta, xi + e, 1.0) - psi(t, eta, xi - e, 1.0)) / (2 * h)
        d_eta = (psi(t, eta + e, xi, 1.0) - psi(t, eta - e, xi, 1.0)) / (2 * h)
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
    assert psi_derivative_bounds(p, eta, xi) <= 1.0 + 1e-9


def test_time_integral_trivial_direction():
    # eta~ = 0 gives ratio exactly 1
    res = time_integral_lower_ratio(1.0, log_radial_grid(n=4))
    assert res <= 1.0 + 1e-12


def test_time_integral_lower_floors():
    res1 = time_integral_lower_ratio(1.0)
    assert res1 >= 1.0 / 16.0
    res2 = time_integral_lower_ratio(2.0)
    assert res2 >= 1.0 / 32.0


def test_time_integral_upper_reports_finite_constants():
    res1 = time_integral_upper_ratio(1.0)
    res2 = time_integral_upper_ratio(2.0)
    assert np.isfinite(res1) and res1 < 4.0
    assert np.isfinite(res2) and res2 < 8.0
    # analytic bounds are sqrt(2) and 2; the sweep must not beat them
    assert res1 <= math.sqrt(2.0) + 1e-9
    assert res2 <= 2.0 + 1e-9


@pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
def test_time_integral_without_closed_form_raises(alpha):
    # only alpha = 1 and 2 have closed forms; the sweeps reach radii 1e6
    radii = log_radial_grid(n=3)
    with pytest.raises(ValueError, match="alpha must be 1 or 2"):
        time_integral_lower_ratio(alpha, radii)
    with pytest.raises(ValueError, match="alpha must be 1 or 2"):
        time_integral_upper_ratio(alpha, radii)


@pytest.mark.parametrize("fn", [psi, psi_gradient_xi, psi_gradient_eta])
def test_batch_agrees_with_one_ray_at_a_time(fn):
    # a ray whose bracket dips to about 1 over a width 1e-3 beside rays at
    # scales 1e-2 to 1e2: each ray's value depends on that ray alone
    rng = np.random.default_rng(49)
    n = 20
    scale = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), (n, 1)))
    eta = rng.standard_normal((n, 3)) * scale
    xi = rng.standard_normal((n, 3)) * scale
    t = rng.uniform(0.05, 1.0, n)
    d = np.array([2.0, -1.0, 0.5]) / math.sqrt(5.25)
    eta[0], xi[0], t[0] = 1e3 * d, -240.0 * d + np.array([0.1, 0.2, 0.1]), 0.8
    batch = fn(t, eta, xi, 1.0)
    single = np.array([fn(t[i], eta[i], xi[i], 1.0) for i in range(n)])
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0)


def test_submultiplicativity_no_violations():
    res = submultiplicativity_check(0.37, seed=5)
    assert res <= 0.0


def test_weight_triangle_reports_bounded_constant():
    res = weight_triangle_check(params(), seed=6)
    assert np.isfinite(res)
    assert res > 0.0


def test_weight_triangle_memory_is_per_ray():
    # 2000 rays in closed form hold O(rays) arrays; a lockstep quadrature
    # over 256 nodes held (2000, 256, 3) arrays, a 33.5 MiB peak
    weight_triangle_check(params(), seed=10)  # a warm-up call first
    tracemalloc.start()
    try:
        weight_triangle_check(params(), seed=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def transport_identity_residual_one_ray_at_a_time(t, eta, xi, c0):
    """The transport residual from eight lone `psi` calls, one per shifted
    ray, in the order of the batched function's sums."""
    step = 1e-5
    eta, xi = np.asarray(eta, dtype=np.float64), np.asarray(xi, dtype=np.float64)
    dt_term = (psi(t + step, eta, xi, c0) - psi(t - step, eta, xi, c0)) / (2 * step)
    adv = 0.0
    for comp in range(3):
        e = np.zeros(3)
        e[comp] = step
        adv += eta[comp] * (psi(t, eta, xi + e, c0) - psi(t, eta, xi - e, c0)) / (2 * step)
    return abs(float(dt_term) - float(adv) - c0 * math.sqrt(1.0 + float(np.sum(xi**2))))


def test_batched_transport_residual_equals_lone_rays():
    # the verify suite's ten rays (seed 104): one batched psi call per ray
    # keeps every bit of the eight lone calls
    rng = np.random.default_rng(104)
    for _ in range(10):
        eta, xi = rng.standard_normal(3) * 2, rng.standard_normal(3) * 2
        t = rng.uniform(0.2, 0.9)
        want = transport_identity_residual_one_ray_at_a_time(t, eta, xi, 1 / 32)
        assert transport_identity_residual(t, eta, xi, 1 / 32) == want


def test_shared_frame_gives_per_t_psi():
    # the upper sweep builds each pair's frame once for its four times; each
    # time's Psi must equal a lone psi call bit for bit
    pts = weights._sample_vectors(None)
    xi, eta = pts[:, None, :], pts[None, :, :]
    frame = weights._frame(eta, xi)
    for t in (0.1, 0.25, 0.5, 1.0):
        assert np.array_equal(weights._psi(t, frame, 1.0), psi(t, eta, xi, 1.0))


def test_time_integral_upper_ratios_are_pinned():
    """The shared frame and sums keep both sweep constants to the bit.  The
    values are the verify report's at commit 3d1bb1c, where every time
    built its own rays."""
    assert time_integral_upper_ratio(1.0) == 1.11803398874981
    assert time_integral_upper_ratio(2.0) == 1.2669444781478951
