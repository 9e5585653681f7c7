"""Spectral diagnostics: per-level Hermite spectra, per-shell Fourier
spectra, and fitted coefficient-decay rates.

The smoothing signature is measured on two abscissas:

* velocity side: log S_n against sqrt(2n+3), the square root of the
  harmonic-oscillator scale of level n.  Exponential decay on this axis is
  a surrogate for the paper's analyticity gauge in v (its half-Laplacian
  functional is not diagonal on Hermite levels); it is not the decay the
  march shows.  Every eigenvalue of L at level n >= 3 is 2n + l(l+1) >= 2n
  (`landau_ops.closed_form_level_spectrum`), so at eta = 0 without the
  bilinear term each implicit step, (I + dt L)^-1, divides the norm of
  level n by at least 1 + 2n dt: S_n(k dt) <= (1 + 2n dt)^-k S_n(0), about
  exp(-2n t) for small dt (`tests/test_diagnostics.py` asserts it on a
  rough datum).  On the level abscissa n that decay is linear; on
  sqrt(2n+3) it is curved, so a rate fitted there depends on the levels
  fitted, and c_v / t is not constant in t.
* space side: log R_m against the shell radius m (analytic gauge).  A
  Gaussian profile, such as the exact kinetic-transport oracle's, is fitted
  on m^2 by passing that abscissa to `fit_decay_rate`.

A fit on fewer than five resolved points is under-resolved: flagged, no
values.  Each fit also runs an algebraic competitor (log-abscissa) and flags
profiles that the competitor explains better, so rough algebraic data are
reported as non-exponential rather than given a meaningless rate.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .solver import PhaseState

__all__ = [
    "RESOLVED_FLOOR",
    "FitResult",
    "RatePoint",
    "DiagnosticsSeries",
    "hermite_level_spectrum",
    "fourier_shell_spectrum",
    "fit_line",
    "fit_decay_rate",
    "fit_rates",
    "series_from_snapshots",
    "write_spectra_csv",
    "read_spectra_csv",
    "write_rates_csv",
]

RESOLVED_FLOOR = 1e-13
MIN_RESOLVED = 5


def hermite_level_spectrum(state: PhaseState) -> np.ndarray:
    """S_n = sqrt(sum over |alpha| = n and all modes of <eta>^(2r) |c|^2)."""
    ws = state.workspace
    weighted = ws.h_weight[:, None] * np.abs(state.c) ** 2
    per_level = np.zeros(state.config.N + 1)
    for n, sl in enumerate(ws.basis.level_slices):
        per_level[n] = np.sum(weighted[:, sl])
    return np.sqrt(per_level)


def fourier_shell_spectrum(state: PhaseState) -> np.ndarray:
    """R_m = sqrt(sum over round(|eta|) = m and all alpha of |c|^2)."""
    ws = state.workspace
    shells = np.rint(np.sqrt(ws.eta_sq)).astype(np.int64)
    m_max = int(shells.max())
    out = np.zeros(m_max + 1)
    amp = np.sum(np.abs(state.c) ** 2, axis=1)
    for m in range(m_max + 1):
        out[m] = np.sum(amp[shells == m])
    return np.sqrt(out)


@dataclass
class FitResult:
    rate: float
    intercept: float
    resid_rms: float
    n_points: int
    exponential: bool


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = a + b x; returns (b, a, resid_rms)."""
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return float(coef[1]), float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def fit_decay_rate(
    abscissa: np.ndarray,
    values: np.ndarray,
    alt_abscissa: np.ndarray | None = None,
) -> FitResult | None:
    """Fit log(values) = intercept - rate * abscissa over resolved entries.

    Returns None when fewer than MIN_RESOLVED entries clear RESOLVED_FLOOR.  When
    alt_abscissa is given, the same data are fitted against it and
    `exponential` records whether the primary (linear-in-abscissa) model wins.
    """
    abscissa = np.asarray(abscissa, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    mask = values > RESOLVED_FLOOR
    if int(np.sum(mask)) < MIN_RESOLVED:
        return None
    x = abscissa[mask]
    y = np.log(values[mask])
    slope, intercept, resid = fit_line(x, y)
    exponential = True
    if alt_abscissa is not None:
        _, _, resid_alt = fit_line(np.asarray(alt_abscissa)[mask], y)
        exponential = resid <= resid_alt
    return FitResult(
        rate=-slope,
        intercept=intercept,
        resid_rms=resid,
        n_points=int(np.sum(mask)),
        exponential=exponential,
    )


@dataclass
class RatePoint:
    """Fitted rates at one time; None rate means under-resolved."""

    t: float
    c_v: float | None
    c_x: float | None
    resid_v: float
    resid_x: float
    v_exponential: bool
    x_exponential: bool


def fit_rates(t: float, hermite: np.ndarray, fourier: np.ndarray) -> RatePoint:
    """Fit both spectra at one time.

    hermite: S_n for n = 0..N, fitted on sqrt(2n+3) with the algebraic
    competitor log(2n+3).  fourier: R_m for m = 0..M, fitted on m with
    competitor log(1+m).
    """
    n = np.arange(len(hermite))
    uv = np.sqrt(2.0 * n + 3.0)
    fit_v = fit_decay_rate(uv, hermite, alt_abscissa=np.log(2.0 * n + 3.0))
    m = np.arange(len(fourier))
    fit_x = fit_decay_rate(m.astype(np.float64), fourier, alt_abscissa=np.log(1.0 + m))
    return RatePoint(
        t=t,
        c_v=None if fit_v is None else fit_v.rate,
        c_x=None if fit_x is None else fit_x.rate,
        resid_v=math.nan if fit_v is None else fit_v.resid_rms,
        resid_x=math.nan if fit_x is None else fit_x.resid_rms,
        v_exponential=False if fit_v is None else fit_v.exponential,
        x_exponential=False if fit_x is None else fit_x.exponential,
    )


@dataclass
class DiagnosticsSeries:
    """Recorded spectra over time plus the fitted rates."""

    times: list
    hermite: list  # arrays S_n per time
    fourier: list  # arrays R_m per time

    def rate_points(self) -> list[RatePoint]:
        return [
            fit_rates(t, S, R) for t, S, R in zip(self.times, self.hermite, self.fourier)
        ]


def series_from_snapshots(snapshots) -> DiagnosticsSeries:
    """Build the series from (t, PhaseState) pairs (e.g. a run's records)."""
    times, hermites, fouriers = [], [], []
    for t, state in snapshots:
        times.append(t)
        hermites.append(hermite_level_spectrum(state))
        fouriers.append(fourier_shell_spectrum(state))
    return DiagnosticsSeries(times, hermites, fouriers)


def write_spectra_csv(series: DiagnosticsSeries) -> str:
    buf = io.StringIO()
    buf.write("t,kind,index,value\n")
    for t, S, R in zip(series.times, series.hermite, series.fourier):
        for i, v in enumerate(S):
            buf.write(f"{t:.17g},hermite,{i},{v:.17g}\n")
        for i, v in enumerate(R):
            buf.write(f"{t:.17g},fourier,{i},{v:.17g}\n")
    return buf.getvalue()


def read_spectra_csv(text: str) -> DiagnosticsSeries:
    """Parse a spectra CSV as `write_spectra_csv` writes it.

    Raises ValueError naming the line for a row without 4 fields, a time or
    value that is not a number, a time that is not finite, a value that is
    not finite or is negative, an unknown kind, an index that is not a
    non-negative integer, a repeated (t, kind, index), a time that lacks
    one of the two kinds (named at its first row), and a gap in the indices
    of one (t, kind), named at the first index past it before its array is
    allocated: nothing is zero-filled, a huge index allocates nothing.
    """
    rows = text.strip().splitlines()
    if not rows or rows[0] != "t,kind,index,value":
        raise ValueError("not a spectra CSV")
    data: dict = {}
    first_row: dict = {}
    for lineno, line in enumerate(rows[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        t_s, kind, idx_s, val_s = fields
        if kind not in ("hermite", "fourier"):
            raise ValueError(f"line {lineno}: unknown kind {kind!r}")
        if not idx_s.isdecimal():
            raise ValueError(
                f"line {lineno}: index {idx_s!r} is not a non-negative integer"
            )
        idx = int(idx_s)
        try:
            t, val = float(t_s), float(val_s)
        except ValueError:
            raise ValueError(f"line {lineno}: t or value is not a number") from None
        if not math.isfinite(t):
            raise ValueError(f"line {lineno}: time {t_s!r} is not finite")
        if not 0.0 <= val < math.inf:
            raise ValueError(f"line {lineno}: value {val_s!r} is not finite and >= 0")
        entries = data.setdefault(t, {"hermite": {}, "fourier": {}})[kind]
        first_row.setdefault(t, lineno)
        if idx in entries:
            raise ValueError(f"line {lineno}: repeated ({t_s}, {kind}, {idx})")
        entries[idx] = (val, lineno)
    times = sorted(data)
    hermites, fouriers = [], []
    for t in times:
        for kind, dest in (("hermite", hermites), ("fourier", fouriers)):
            entries = data[t][kind]
            if not entries:
                raise ValueError(f"line {first_row[t]}: time {t!r} has no {kind} rows")
            n = len(entries)
            if max(entries) >= n:  # distinct indices >= 0 fill 0..n-1, or skip one
                gap = min(set(range(n)) - entries.keys())
                past = min(i for i in entries if i > gap)
                raise ValueError(f"line {entries[past][1]}: {kind} index {past} at "
                                 f"time {t!r} follows a gap: index {gap} is missing")
            dest.append(np.array([entries[i][0] for i in range(n)]))
    return DiagnosticsSeries(times, hermites, fouriers)


def write_rates_csv(points: list[RatePoint]) -> str:
    buf = io.StringIO()
    buf.write("t,c_v,c_x,resid_v,resid_x\n")
    for p in points:
        cv = "nan" if p.c_v is None else f"{p.c_v:.17g}"
        cx = "nan" if p.c_x is None else f"{p.c_x:.17g}"
        buf.write(f"{p.t:.17g},{cv},{cx},{p.resid_v:.17g},{p.resid_x:.17g}\n")
    return buf.getvalue()
