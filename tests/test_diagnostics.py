"""Spectra, rate fitting, and the CSV round trips."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from landau_hermite.kolmogorov import FourierGridState, exact_propagate


def flat_in_x_state(dims=1, eta_max=8, xi_max=12.0, xi_points=97):
    """Unit mass concentrated at xi = 0, identical on every eta mode: rough in
    x, flat in the velocity-frequency variable."""
    shape = (2 * eta_max + 1,) * dims + (xi_points,) * dims
    vals = np.zeros(shape, dtype=np.complex128)
    center = (xi_points - 1) // 2
    vals[(slice(None),) * dims + (center,) * dims] = 1.0
    return FourierGridState(dims, eta_max, xi_max, xi_points, vals)


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
    fit = fit_decay_rate(m.astype(float) ** 2, R[1:])
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


_SPECTRA = "t,kind,index,value\n0,hermite,0,1.0\n0,fourier,0,2.0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_SPECTRA + "0.1,hermite,0\n", "line 4: expected 4 fields"),
        (_SPECTRA + "0,hermit,1,1.0\n", "line 4: unknown kind 'hermit'"),
        (_SPECTRA + "0,hermite,-1,1.0\n", "line 4: index '-1'"),
        (_SPECTRA + "0,fourier,1.5,1.0\n", "line 4: index '1.5'"),
        (_SPECTRA + "0,fourier,0,3.0\n", r"line 4: repeated \(0, fourier, 0\)"),
        (_SPECTRA + "0.1,hermite,0,1.0\n", "line 4: time 0.1 has no fourier rows"),
        (_SPECTRA + "0,hermite,1,x\n", "line 4: t or value is not a number"),
        (_SPECTRA + "0,hermite,1,inf\n", "line 4: value 'inf' is not finite"),
        (_SPECTRA + "0,hermite,1,nan\n", "line 4: value 'nan' is not finite"),
        (_SPECTRA + "0,fourier,1,-1e-3\n", "line 4: value '-1e-3' is not finite and >= 0"),
        (_SPECTRA + "inf,hermite,0,1.0\n", "line 4: time 'inf' is not finite"),
        (_SPECTRA + "nan,fourier,0,1.0\n", "line 4: time 'nan' is not finite"),
        (_SPECTRA + "0,hermite,1,0.5\n0,hermite,5,0.1\n",
         "line 5: hermite index 5 at time 0.0 follows a gap: index 2 is missing"),
    ],
    ids=["fields", "kind", "negative-index", "fractional-index", "repeat",
         "missing-kind", "value", "inf-value", "nan-value", "negative-value",
         "inf-time", "nan-time", "gap"],
)
def test_read_spectra_csv_names_the_bad_line(text, message):
    read_spectra_csv(_SPECTRA)  # the base file is valid
    with pytest.raises(ValueError, match=message):
        read_spectra_csv(text)


_TIMES = ["0", "0.5", "1"]
_KINDS = ["hermite", "fourier"]
_VALUES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_SPECTRA_ROW = st.tuples(
    st.sampled_from(_TIMES), st.sampled_from(_KINDS), st.integers(0, 20), _VALUES
)


@st.composite
def spectra_rows(draw):
    """Rows that tile indices 0..n of each kind at a few times, shuffled, with
    up to two rows dropped and up to two random rows added: files that parse
    and files that break each rule."""
    rows = [
        (t, kind, i, draw(_VALUES))
        for t in sorted(draw(st.sets(st.sampled_from(_TIMES), max_size=3)))
        for kind in _KINDS
        for i in range(draw(st.integers(1, 21)))
    ]
    rows = draw(st.permutations(rows))
    drop = draw(st.sets(st.integers(0, max(len(rows) - 1, 0)), max_size=2))
    kept = [row for j, row in enumerate(rows) if j not in drop]
    return kept + draw(st.lists(_SPECTRA_ROW, max_size=2))


@settings(max_examples=100, deadline=None)
@given(spectra_rows())
def test_read_spectra_csv_reads_the_rows_or_refuses(rows):
    # a file parses exactly when no (t, kind, index) repeats, every time has
    # both kinds and each time's indices of each kind run 0..n; then every
    # array entry is the value of exactly one row, with no filler
    text = "t,kind,index,value\n" + "".join(f"{t},{k},{i},{v!r}\n" for t, k, i, v in rows)
    value = {(float(t), k, i): v for t, k, i, v in rows}
    count = Counter((t, k) for t, k, _ in value)
    times = sorted({t for t, _ in count})
    valid = len(value) == len(rows) and all(
        (t, k) in count and all((t, k, i) in value for i in range(count[t, k]))
        for t in times for k in _KINDS
    )
    try:
        series = read_spectra_csv(text)
    except ValueError as exc:
        assert not valid, exc
        assert str(exc).startswith("line "), exc
        return
    assert valid
    assert series.times == times
    for t, S, R in zip(series.times, series.hermite, series.fourier):
        for kind, arr in (("hermite", S), ("fourier", R)):
            assert list(arr) == [value[t, kind, i] for i in range(count[t, kind])]


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
    reason="the Fourier cutoff together with the <eta>^(2r) weight, not the "
    "Hermite cap: the weighted level spectrum follows the outer Fourier modes, "
    "where transport keeps refilling the high Hermite levels.  On this run "
    "(seed 2) max/min of c_v/t on [0.25, 1] is 3.894 with the bilinear term "
    "on and off alike; from the eta = 0 row alone it is 1.376 (1.335 off)",
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
