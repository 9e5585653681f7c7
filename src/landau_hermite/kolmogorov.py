"""Exact Fourier propagator for the kinetic transport-diffusion model

    df/dt + v . grad_x f - Laplace_v f = 0

used as an ultra-analytic smoothing oracle and as a convergence target for
time steppers.  In double Fourier variables (x <-> eta, v <-> xi) the
solution is explicit:

    fhat(t, eta, xi) = exp(-I(t, eta, xi)) * fhat(0, eta, xi + t eta),
    I = integral_0^t |xi + rho eta|^2 d rho
      = t |xi|^2 + t^2 (xi . eta) + t^3 |eta|^2 / 3.

States live on an integer eta lattice crossed with a uniform real xi lattice;
the argument shift xi + t eta is evaluated by linear interpolation (exact
when t * eta is lattice aligned), with absorbing truncation at the xi cutoff.
One rule (`_stencil`) gives the interpolation of every shift; the reference
march shifts each mode by the same dt * eta at every step, so it builds each
mode's stencils once and skips the lost-mass sum it would discard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FourierGridState",
    "gaussian_state",
    "transport_dissipation_integral",
    "exact_propagate",
    "exact_propagate_times",
    "smoothing_norm",
    "imex_reference_march",
]

_OVERFLOW_LOG = 700.0


@dataclass
class FourierGridState:
    """Double-Fourier lattice state fhat(eta, xi).

    dims: spatial dimension d in {1, 2, 3}; eta runs over the integer lattice
    {-eta_max..eta_max}^d and xi over a uniform grid of xi_points per axis on
    [-xi_max, xi_max]^d.  values has shape (2*eta_max+1,)*d + (xi_points,)*d.
    A ValueError names the field unless eta_max >= 0, xi_points >= 2 and
    xi_max is finite and > 0.
    """

    dims: int
    eta_max: int
    xi_max: float
    xi_points: int
    values: np.ndarray
    time: float = 0.0
    escaped_mass: float = 0.0
    flagged_modes: list = field(default_factory=list)

    def __post_init__(self):
        if self.dims not in (1, 2, 3):
            raise ValueError("dims must be 1, 2 or 3")
        _check_grid(self.eta_max, self.xi_max, self.xi_points)
        shape = (2 * self.eta_max + 1,) * self.dims + (self.xi_points,) * self.dims
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}")

    @property
    def eta_axis(self) -> np.ndarray:
        return np.arange(-self.eta_max, self.eta_max + 1)

    @property
    def xi_axis(self) -> np.ndarray:
        return np.linspace(-self.xi_max, self.xi_max, self.xi_points)

    @property
    def xi_step(self) -> float:
        return 2.0 * self.xi_max / (self.xi_points - 1)

    def eta_modes(self):
        return itertools.product(range(2 * self.eta_max + 1), repeat=self.dims)

    def eta_of(self, mode: tuple) -> np.ndarray:
        return np.array(mode) - self.eta_max

    def slice_mass(self, mode: tuple) -> float:
        """L2 mass of one eta slice (Riemann measure on the xi lattice)."""
        sl = self.values[mode]
        return float(np.sum(np.abs(sl) ** 2) * self.xi_step**self.dims)

    def copy(self) -> "FourierGridState":
        return FourierGridState(
            self.dims,
            self.eta_max,
            self.xi_max,
            self.xi_points,
            self.values.copy(),
            self.time,
            self.escaped_mass,
            list(self.flagged_modes),
        )


def _check_grid(eta_max: int, xi_max: float, xi_points: int) -> None:
    """ValueError naming the field unless eta_max >= 0, xi_points >= 2 and
    xi_max is finite and > 0."""
    if eta_max < 0:
        raise ValueError(f"eta_max must be >= 0, got {eta_max!r}")
    if xi_points < 2:
        raise ValueError(f"xi_points must be at least 2, got {xi_points!r}")
    _check_finite("xi_max", xi_max, positive=True)


def gaussian_state(
    dims: int = 1,
    eta_max: int = 8,
    xi_max: float = 12.0,
    xi_points: int = 97,
    xi_width: float = 1.0,
) -> FourierGridState:
    """Gaussian profile of width xi_width in xi times a Gaussian envelope of
    width 4 over the eta lattice."""
    _check_grid(eta_max, xi_max, xi_points)
    shape_eta = (2 * eta_max + 1,) * dims
    shape_xi = (xi_points,) * dims
    eta = np.arange(-eta_max, eta_max + 1)
    xi = np.linspace(-xi_max, xi_max, xi_points)
    env = np.ones(shape_eta)
    prof = np.ones(shape_xi)
    for ax in range(dims):
        sh = [1] * dims
        sh[ax] = -1
        env = env * np.exp(-(eta.reshape(sh) ** 2) / (2 * 4.0**2))
        prof = prof * np.exp(-(xi.reshape(sh) ** 2) / (2 * xi_width**2))
    vals = env.reshape(shape_eta + (1,) * dims) * prof.reshape((1,) * dims + shape_xi)
    return FourierGridState(dims, eta_max, xi_max, xi_points, vals)


def transport_dissipation_integral(t: float, eta, xi):
    """integral_0^t |xi + rho eta|^2 d rho in closed form."""
    return _dissipation_integral(t, _square_sums(eta, xi))


def _square_sums(eta, xi) -> tuple:
    """|xi|^2, xi . eta and |eta|^2 over the last axis, shared by every t."""
    eta = np.asarray(eta, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    return np.sum(xi**2, axis=-1), np.sum(xi * eta, axis=-1), np.sum(eta**2, axis=-1)


def _dissipation_integral(t: float, sums: tuple):
    """t |xi|^2 + t^2 (xi . eta) + t^3 |eta|^2 / 3 from `_square_sums`."""
    xi2, cross, eta2 = sums
    return t * xi2 + t**2 * cross + t**3 * eta2 / 3.0


def _stencil(shift: float, xi_axis: np.ndarray) -> tuple:
    """Linear interpolation at (xi + shift) along one axis, zero outside
    the lattice: per target point the clipped source indices i0 and i0 + 1,
    their weights 1 - frac and frac and whether each is on the lattice,
    then the mask of the source points no target point reads."""
    n = xi_axis.size
    h = xi_axis[1] - xi_axis[0]
    pos = np.arange(n) + shift / h  # fractional source index per target point
    i0 = np.floor(pos).astype(np.int64)
    frac = pos - i0
    valid0 = (i0 >= 0) & (i0 <= n - 1)
    valid1 = (i0 + 1 >= 0) & (i0 + 1 <= n - 1)
    src_lo = max(0, int(math.ceil(pos[0])))
    src_hi = min(n - 1, int(math.floor(pos[-1])))
    unread = np.ones(n, dtype=bool)
    if src_lo <= src_hi:
        unread[src_lo : src_hi + 1] = False
    return (np.clip(i0, 0, n - 1), np.clip(i0 + 1, 0, n - 1), 1.0 - frac, frac,
            valid0, valid1, unread)


def _interpolate(arr: np.ndarray, axis: int, stencil: tuple) -> np.ndarray:
    """arr sampled along axis by a `_stencil`."""
    i0, i1, w0, w1, valid0, valid1, _ = stencil
    moved = np.moveaxis(arr, axis, -1)
    return np.moveaxis(w0 * moved[..., i0] * valid0 + w1 * moved[..., i1] * valid1, -1, axis)


def _shift_axis_linear(arr: np.ndarray, axis: int, shift: float, xi_axis: np.ndarray):
    """Values of arr sampled at (xi + shift) along one axis, linear
    interpolation, zero outside the lattice.  Returns (shifted, lost_mass_sq)
    where lost_mass_sq is the squared content whose source lies outside."""
    stencil = _stencil(shift, xi_axis)
    unread = stencil[-1]
    lost = float(np.sum(np.abs(np.moveaxis(arr, axis, -1)[..., unread]) ** 2))
    return _interpolate(arr, axis, stencil), lost


def _transport_shift(sl: np.ndarray, eta: np.ndarray, t: float, xi_axis: np.ndarray):
    """The eta slice sl sampled at xi + t eta: `_shift_axis_linear` along
    each axis of nonzero eta in turn.  Returns (shifted, lost_mass_sq), the
    squared content lost over all axes."""
    lost_sq = 0.0
    for ax in range(len(eta)):
        if eta[ax] != 0:
            sl, lost = _shift_axis_linear(sl, ax, t * float(eta[ax]), xi_axis)
            lost_sq += lost
    return sl, lost_sq


def _check_finite(name: str, value: float, positive: bool) -> None:
    """ValueError naming the argument unless value is finite and > 0 (or
    >= 0 where positive is False)."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def exact_propagate(state: FourierGridState, t: float) -> FourierGridState:
    """Advance the state by time t >= 0 with the explicit solution formula.

    The shifted argument is linearly interpolated on the xi lattice; modes
    whose shift pushes more than 1e-12 of slice mass outside the lattice are
    flagged on the returned state.
    """
    return exact_propagate_times(state, (t,))[0]


def exact_propagate_times(state: FourierGridState, times) -> list[FourierGridState]:
    """`exact_propagate(state, t)` for each t of times, in order.  The sums
    |xi|^2, xi . eta and |eta|^2 of every mode do not depend on t: they are
    built once (`_square_sums`), and each t adds its shift and its
    `_dissipation_integral`."""
    for t in times:
        _check_finite("t", t, positive=False)
    xi = np.stack(np.meshgrid(*([state.xi_axis] * state.dims), indexing="ij"), axis=-1)
    etas = [state.eta_of(mode) for mode in state.eta_modes()]
    sums = [_square_sums(eta, xi) for eta in etas]
    return [_propagate(state, t, etas, sums) for t in times]


def _propagate(state: FourierGridState, t: float, etas: list, sums: list) -> FourierGridState:
    """The body of `exact_propagate` at one t, given every mode's eta and
    `_square_sums` in `eta_modes` order."""
    out = state.copy()
    if t == 0.0:
        return out
    xi_axis = state.xi_axis
    measure = state.xi_step**state.dims
    for mode, eta, mode_sums in zip(state.eta_modes(), etas, sums):
        sl, lost_sq = _transport_shift(state.values[mode], eta, t, xi_axis)
        out.values[mode] = np.exp(-_dissipation_integral(t, mode_sums)) * sl
        lost_mass = lost_sq * measure
        if lost_mass > 1e-12:
            out.flagged_modes.append(tuple(int(e) for e in eta))
        out.escaped_mass += lost_mass
    out.time = state.time + t
    return out


def smoothing_norm(state: FourierGridState, c: float) -> float:
    """Lattice norm weighted by exp(c (t |xi|^2 + t^3 |eta|^2)).

    Divergence (weight beating the available decay) is reported by returning
    inf rather than raising; the overflow guard works in log space.
    """
    t = state.time
    d = state.dims
    xi_axis = state.xi_axis
    eta_axis = state.eta_axis
    w = np.zeros(state.values.shape)
    for ax in range(d):
        sh = [1] * (2 * d)
        sh[ax] = -1
        w = w + t**3 * (eta_axis.reshape(sh) ** 2)
        sh = [1] * (2 * d)
        sh[d + ax] = -1
        w = w + t * (xi_axis.reshape(sh) ** 2)
    amp2 = np.abs(state.values) ** 2
    log_amp2 = np.log(amp2, out=np.full_like(amp2, -np.inf), where=amp2 > 0)
    log_terms = log_amp2 + 2.0 * c * w
    if np.max(log_terms) > _OVERFLOW_LOG:
        return math.inf
    total = np.sum(np.exp(log_terms)) * state.xi_step**d
    return math.sqrt(total)


def imex_reference_march(
    state0: FourierGridState, t: float, dt: float
) -> FourierGridState:
    """First-order splitting march to time state0.time + t: exact transport
    shift per step, velocity diffusion implicit (diagonal in xi).

    Against exact_propagate the error is O(dt): halving dt halves it.
    """
    _check_finite("t", t, positive=False)
    _check_finite("dt", dt, positive=True)
    if not math.isfinite(t / dt):
        raise ValueError(f"dt = {dt!r} is too small: t / dt overflows")
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-12 * max(t, 1.0):
        raise ValueError("t must be an integer multiple of dt")
    state = state0.copy()
    xi_axis = state.xi_axis
    d = state.dims
    grids = np.meshgrid(*([xi_axis] * d), indexing="ij")
    xi_sq = sum(g**2 for g in grids)
    damp = 1.0 / (1.0 + dt * xi_sq)
    # each mode's shift is dt * eta at every step: its stencils, built once
    modes = list(state.eta_modes())
    stencils = [
        [(ax, _stencil(dt * float(e), xi_axis))
         for ax, e in enumerate(state.eta_of(mode)) if e != 0]
        for mode in modes
    ]
    for _ in range(n_steps):
        for mode, mode_stencils in zip(modes, stencils):
            sl = state.values[mode]
            for ax, stencil in mode_stencils:
                sl = _interpolate(sl, ax, stencil)
            state.values[mode] = damp * sl
        state.time += dt
    return state
