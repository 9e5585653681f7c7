"""Exact kinetic-transport propagator and the splitting march against it."""

import math
import warnings

import numpy as np

from landau_hermite.kolmogorov import (
    FourierGridState,
    gaussian_state,
    flat_in_x_state,
    transport_dissipation_integral,
    exact_propagate,
    smoothing_norm,
    imex_reference_march,
)


def total_mass(state: FourierGridState) -> float:
    """L2 mass of the whole lattice state (Riemann measure on the xi lattice)."""
    return float(np.sum(np.abs(state.values) ** 2) * state.xi_step**state.dims)


def test_dissipation_integral_example():
    val = transport_dissipation_integral(
        1.0, np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])
    )
    assert abs(val - 4.0 / 3.0) < 1e-14


def test_propagate_t0_is_identity():
    s = gaussian_state()
    out = exact_propagate(s, 0.0)
    np.testing.assert_array_equal(out.values, s.values)
    assert out.time == s.time


def test_eta_zero_mode_is_pure_heat_decay():
    s = gaussian_state(dims=1, eta_max=4, xi_max=12.0, xi_points=97)
    t = 0.5
    out = exact_propagate(s, t)
    center = s.eta_max  # index of eta = 0
    xi = s.xi_axis
    expected = np.exp(-t * xi**2) * s.values[center]
    np.testing.assert_allclose(out.values[center], expected, atol=1e-15)


def test_group_property_on_aligned_shifts():
    # with t * eta lattice aligned the shift is exact, so one big step equals
    # two half steps
    s = gaussian_state(dims=1, eta_max=4, xi_max=12.0, xi_points=97)
    h = s.xi_step  # 0.25
    t = 8 * h
    once = exact_propagate(s, t)
    twice = exact_propagate(exact_propagate(s, t / 2), t / 2)
    np.testing.assert_allclose(once.values, twice.values, atol=1e-12)


def test_slice_mass_nonincreasing():
    s = gaussian_state(dims=1, eta_max=6, xi_max=12.0, xi_points=97)
    out = exact_propagate(s, 0.5)
    for mode in s.eta_modes():
        assert out.slice_mass(mode) <= s.slice_mass(mode) + 1e-14


def test_escape_flagging():
    # broad datum + large shift pushes mass out of the lattice
    s = gaussian_state(dims=1, eta_max=8, xi_max=6.0, xi_points=49, xi_width=4.0)
    out = exact_propagate(s, 1.0)
    assert out.escaped_mass > 1e-12
    assert any(abs(e[0]) >= 4 for e in out.flagged_modes)
    # small aligned shifts of a narrow datum stay clean
    s2 = gaussian_state(dims=1, eta_max=2, xi_max=12.0, xi_points=97, xi_width=0.5)
    out2 = exact_propagate(s2, 0.25)
    assert out2.flagged_modes == []


def test_smoothing_norm_limits():
    s = gaussian_state(dims=1, eta_max=4)
    assert abs(smoothing_norm(s, 0.7) - math.sqrt(total_mass(s))) < 1e-12
    out = exact_propagate(s, 0.3)
    assert abs(smoothing_norm(out, 0.0) - math.sqrt(total_mass(out))) < 1e-12


def test_smoothing_norm_warning_free_with_zero_amplitudes():
    s = gaussian_state(dims=1, eta_max=4)
    s.values[0] = 0.0  # exact zeros take the log(0) = -inf branch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = smoothing_norm(s, 0.7)
    assert abs(val - math.sqrt(total_mass(s))) < 1e-12


def test_smoothing_norm_finite_and_decreasing_at_half_floor():
    c = (1.0 / 32.0) / 2.0
    s = gaussian_state(dims=1, eta_max=8, xi_max=12.0, xi_points=97)
    prev = None
    for t in np.linspace(0.1, 1.0, 7):
        out = exact_propagate(s, float(t))
        val = smoothing_norm(out, c)
        assert math.isfinite(val)
        if prev is not None:
            assert val <= prev * (1.0 + 1e-10)
        prev = val


def test_smoothing_norm_overflow_reported_not_thrown():
    s = gaussian_state(dims=1, eta_max=8)
    out = exact_propagate(s, 1.0)
    val = smoothing_norm(out, 50.0)  # absurd weight must diverge gracefully
    assert val == math.inf


def test_imex_first_order_convergence():
    # lattice step 1/32 so that every dt below keeps t*eta lattice aligned
    # (the exactness path: splitting error is isolated from interpolation)
    s = gaussian_state(dims=1, eta_max=4, xi_max=12.0, xi_points=769)
    t = 0.5
    exact = exact_propagate(s, t)
    errs = []
    for dt in (1 / 8, 1 / 16, 1 / 32):
        approx = imex_reference_march(s, t, dt)
        errs.append(np.linalg.norm(approx.values - exact.values))
    for a, b in zip(errs, errs[1:]):
        ratio = a / b
        assert 1.6 <= ratio <= 2.4


def test_two_dimensional_smoke():
    s = gaussian_state(dims=2, eta_max=2, xi_max=8.0, xi_points=33)
    out = exact_propagate(s, 0.5)
    assert total_mass(out) <= total_mass(s)
    assert math.isfinite(smoothing_norm(out, 0.01))


def test_exponent_respects_time_integral_sandwich():
    # the closed-form decay exponent sits inside the two-sided comparison
    # with the alpha = 2 floors and ceilings measured by the weights module
    s = gaussian_state(dims=1, eta_max=6, xi_max=12.0, xi_points=49)
    floor, ceil = 1.0 / 32.0, 2.0
    for t in (0.1, 0.5, 1.0):
        for eta1 in s.eta_axis:
            eta = np.array([float(eta1), 0.0, 0.0])
            for xi1 in s.xi_axis[::6]:
                xi = np.array([float(xi1), 0.0, 0.0])
                integral = t + transport_dissipation_integral(t, eta, xi)
                scale = t * (1.0 + xi1**2 + t**2 * eta1**2)
                assert floor * scale <= integral <= ceil * scale


def export_smoothing_series(path, rows) -> None:
    """Write (t, c, smoothing_norm) rows as CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,c,smoothing_norm\n")
        for t, c, val in rows:
            fh.write(f"{t:.17g},{c:.17g},{val:.17g}\n")


def test_smoothing_series_csv(tmp_path):
    s = gaussian_state(dims=1, eta_max=4)
    rows = []
    c = 0.01
    for t in (0.25, 0.5):
        out = exact_propagate(s, t)
        rows.append((out.time, c, smoothing_norm(out, c)))
    path = tmp_path / "smoothing.csv"
    export_smoothing_series(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,c,smoothing_norm"
    assert len(lines) == 3
