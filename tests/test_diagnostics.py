"""Spectra, rate fitting, and the CSV round trips."""

import numpy as np
import pytest

from landau_hermite.solver import SolverConfig, h_r_norm, run
from landau_hermite.diagnostics import (
    DiagnosticsSeries,
    hermite_level_spectrum,
    fourier_shell_spectrum,
    fit_decay_rate,
    fit_rates,
    series_from_snapshots,
    write_spectra_csv,
    read_spectra_csv,
    write_rates_csv,
)


def small_run():
    cfg = SolverConfig(N=8, K=3, d_x=1, dt=5e-3, T=0.1, r=2.0, recipe="rough",
                       g0_norm=1e-3, seed=7, record_every=10)
    return run(cfg)


def test_level_spectrum_partitions_norm():
    # |sum_n S_n^2 - ||g||^2| must vanish: the levels partition the basis
    res = small_run()
    for _, state in res.snapshots:
        S = hermite_level_spectrum(state)
        defect = abs(float(np.sum(S**2)) - h_r_norm(state) ** 2)
        assert defect < 1e-10 * 1e-6 + 1e-18


def test_shell_spectrum_partitions_plain_norm():
    res = small_run()
    for _, state in res.snapshots:
        R = fourier_shell_spectrum(state)
        total = float(np.sum(np.abs(state.c) ** 2))
        assert abs(float(np.sum(R**2)) - total) < 1e-12 * max(total, 1e-12)


def test_planted_exponential_rate_recovered():
    # coefficients planted as exp(-a sqrt(2n+3)) must fit back to a within 1%
    a = 0.8
    n = np.arange(17)
    S = np.exp(-a * np.sqrt(2 * n + 3))
    fit = fit_decay_rate(np.sqrt(2 * n + 3), S, alt_abscissa=np.log(2 * n + 3))
    assert fit is not None
    assert abs(fit.rate - a) < 0.01 * a
    assert fit.exponential


def test_algebraic_profile_flagged_non_exponential():
    n = np.arange(17)
    S = (2.0 * n + 3.0) ** -3.0
    fit = fit_decay_rate(np.sqrt(2 * n + 3), S, alt_abscissa=np.log(2 * n + 3))
    assert fit is not None
    assert not fit.exponential


def test_under_resolved_fit_returns_none():
    vals = np.array([1.0, 0.5, 1e-16, 1e-16, 1e-16, 1e-16])
    assert fit_decay_rate(np.arange(6.0), vals) is None
    point = fit_rates(0.0, vals, vals)
    assert point.c_v is None and point.c_x is None


def test_kolmogorov_gaussian_rate_matches_exact_exponent():
    # datum concentrated at xi = 0, white over eta; after the exact propagator
    # the shell profile is exp(-t^3 m^2 / 3) at lattice-aligned times
    from landau_hermite.kolmogorov import flat_in_x_state, exact_propagate

    s = flat_in_x_state(dims=1, eta_max=8, xi_max=12.0, xi_points=97)
    t = 1.0  # multiple of the lattice step, shift exact
    out = exact_propagate(s, t)
    # shell amplitudes over eta
    n = s.eta_max
    R = np.zeros(n + 1)
    for mode in out.eta_modes():
        eta = out.eta_of(mode)
        m = abs(int(eta[0]))
        R[m] += np.sum(np.abs(out.values[mode]) ** 2)
    R = np.sqrt(R)
    m = np.arange(1, n + 1)  # skip the double-counted shell 0 normalization
    fit = fit_decay_rate(m.astype(float) ** 2, R[1:], min_points=5)
    assert fit is not None
    assert abs(fit.rate - t**3 / 3.0) <= 0.05 * (t**3 / 3.0)


def test_series_csv_round_trip():
    res = small_run()
    series = series_from_snapshots(res.snapshots)
    text = write_spectra_csv(series)
    back = read_spectra_csv(text)
    assert back.times == series.times
    for a, b in zip(series.hermite, back.hermite):
        np.testing.assert_allclose(a, b, rtol=1e-15)
    for a, b in zip(series.fourier, back.fourier):
        np.testing.assert_allclose(a, b, rtol=1e-15)


def test_rates_csv_shape():
    res = small_run()
    series = series_from_snapshots(res.snapshots)
    pts = series.rate_points()
    text = write_rates_csv(pts)
    lines = text.strip().splitlines()
    assert lines[0] == "t,c_v,c_x,resid_v,resid_x"
    assert len(lines) == len(series.times) + 1


def test_scaling_signature_x_side(nonlinear_run):
    # the spatial rate, normalized by min(1,t)^2, stays within a factor 3 of
    # constant across [0.25, 1]: the discrete echo of the quadratic growth of
    # the spatial analyticity radius
    _, _, points, _ = nonlinear_run
    ratios = [
        p.c_x / min(1.0, p.t) ** 2
        for p in points
        if p.t >= 0.25 - 1e-9 and p.c_x is not None
    ]
    assert min(ratios) > 0
    assert max(ratios) / min(ratios) <= 3.0


@pytest.mark.xfail(
    strict=False,
    reason="the Hermite cap bounds the representable velocity frequencies, so "
    "the fitted velocity rate saturates early instead of growing linearly in "
    "t; the normalized ratio then varies by more than 3 on [0.25, 1]",
)
def test_scaling_signature_v_side(nonlinear_run):
    _, _, points, _ = nonlinear_run
    ratios = [
        p.c_v / min(1.0, p.t)
        for p in points
        if p.t >= 0.25 - 1e-9 and p.c_v is not None
    ]
    assert min(ratios) > 0
    assert max(ratios) / min(ratios) <= 3.0
