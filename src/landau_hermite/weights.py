"""Time-integrated Fourier weight, its regularized exponential, and
brute-force checks of the inequalities behind the smoothing mechanism.

The central object is

    Psi(t, eta, xi) = c0 * integral_0^t <xi + rho*eta> d rho,
    <x> = sqrt(1 + |x|^2),

a transported analyticity radius: it satisfies the exact transport identity
(d/dt - eta . grad_xi) Psi = c0 <xi>, and is comparable, uniformly, to
c0 * t * {1 + |xi|^2 + t^2 |eta|^2}^(1/2) (two-sided "sandwich" bounds that
this module measures by brute force).  The doubly regularized weight

    F[delta, delta'](t, eta, xi) = e^Psi / ((1 + delta e^Psi)(1 + delta' Psi)^r)

is bounded by 1/delta, and every first-order derivative of F is the
corresponding derivative of Psi times F times a factor of modulus <= 1.

The transported-bracket integral has one quadrature path,
`_transported_integral`, behind `psi` and its two gradients, and two closed
forms, `psi_closed` (alpha = 1) and `kolmogorov.transport_dissipation_integral`
(the |xi + rho eta|^2 part of alpha = 2).  Each sweep returns a
CheckResult (worst_point, worst_ratio); nothing here is a proof - the sweeps
estimate constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .kolmogorov import transport_dissipation_integral
from .landau_ops import QuadratureConvergenceError

__all__ = [
    "WeightParams",
    "SampleGrid",
    "CheckResult",
    "psi",
    "psi_closed",
    "psi_gradient_xi",
    "psi_gradient_eta",
    "weight_F",
    "log_weight_F",
    "weight_F_split",
    "bracket_factor",
    "weight_derivative_identity_residual",
    "transport_identity_residual",
    "psi_derivative_bounds",
    "time_integral_lower_ratio",
    "time_integral_upper_ratio",
    "submultiplicativity_check",
    "weight_triangle_check",
    "icosahedral_directions",
    "log_radial_grid",
]


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the regularized weight; ranges enforced on construction.

    c0 > 0, 0 < delta <= 1, r > 3/2, 0 < r * delta_prime <= 1, 0 < t <= 1.
    """

    c0: float
    delta: float
    delta_prime: float
    r: float
    t: float

    def __post_init__(self):
        if not self.c0 > 0:
            raise ValueError("c0 must be positive")
        if not (0 < self.delta <= 1):
            raise ValueError("delta must lie in (0, 1]")
        if not self.r > 1.5:
            raise ValueError("r must exceed 3/2")
        if not (0 < self.r * self.delta_prime <= 1):
            raise ValueError("need 0 < r * delta_prime <= 1")
        if not (0 < self.t <= 1):
            raise ValueError("t must lie in (0, 1]")


@lru_cache(maxsize=None)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _integrate_01(fn, rtol: float = 1e-12) -> np.ndarray:
    """Composite 16-point Gauss-Legendre quadrature of fn(u) over u in [0, 1].

    fn maps an array of nodes (m,) to values of shape batch + (m,).  Panels
    double, from 1 up to 2^13, until the estimate stabilizes to relative
    tolerance rtol; QuadratureConvergenceError if it never does.
    """
    order = 16
    nodes, wts = _leggauss(order)
    prev = None
    panels = 1
    for _ in range(14):
        edges = np.linspace(0.0, 1.0, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 / panels
        u = (mids[:, None] + half * nodes[None, :]).reshape(-1)
        w = np.broadcast_to(half * wts[None, :], (panels, order)).reshape(-1)
        vals = fn(u)
        est = vals @ w
        if prev is not None:
            err = np.max(np.abs(est - prev) / np.maximum(np.abs(est), 1e-300))
            if err <= rtol:
                return est
        prev = est
        panels *= 2
    raise QuadratureConvergenceError(
        f"{panels // 2} Gauss-Legendre panels still move the estimate by "
        f"{err:.3e} relative (tolerance {rtol:g})"
    )


def _brk(v):
    """<v> = sqrt(1 + |v|^2) over the last axis."""
    return np.sqrt(1.0 + np.sum(v**2, axis=-1))


def _transported_integral(t, eta, xi, integrand):
    """The one quadrature of integral_0^1 integrand(rho, xi + rho eta) du at
    rho = t u, by adaptive Gauss-Legendre.

    eta and xi broadcast over a common batch of 3-vectors; t is a scalar or a
    batch of the same shape.  integrand(rho, arg) gets rho of shape
    batch + (m, 1) and arg of shape batch + (m, 3) and returns batch + (m,).
    Returns (t, integral) with t broadcast to the batch, so that
    c0 * t * integral is c0 times the integral over rho in [0, t].
    """
    eta, xi = np.broadcast_arrays(
        np.asarray(eta, dtype=np.float64), np.asarray(xi, dtype=np.float64)
    )
    t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), eta.shape[:-1])

    def fn(u):
        rho = t_arr[..., None, None] * u[:, None]
        return integrand(rho, xi[..., None, :] + rho * eta[..., None, :])

    return t_arr, _integrate_01(fn)


def psi(t, eta, xi, c0: float) -> np.ndarray | float:
    """c0 * integral_0^t <xi + rho eta> d rho by adaptive Gauss-Legendre.

    eta and xi broadcast over a common batch of 3-vectors; t is a scalar or a
    batch of the same shape.  Returns the batch of values (scalar for scalar
    input).
    """
    t_arr, integral = _transported_integral(t, eta, xi, lambda rho, arg: _brk(arg))
    val = c0 * t_arr * integral
    if val.shape == ():
        return float(val)
    return val


def psi_closed(t, eta, xi, c0: float) -> np.ndarray | float:
    """Closed-form antiderivative of sqrt(a rho^2 + b rho + c); degenerates as
    |eta| -> 0, where the constant-integrand value c0 t <xi> is returned."""
    eta, xi = np.broadcast_arrays(
        np.asarray(eta, dtype=np.float64), np.asarray(xi, dtype=np.float64)
    )
    batch = eta.shape[:-1]
    t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), batch).astype(np.float64)
    a = np.sum(eta**2, axis=-1)
    b = 2.0 * np.sum(eta * xi, axis=-1)
    c = 1.0 + np.sum(xi**2, axis=-1)
    small = a < 1e-14
    a_safe = np.where(small, 1.0, a)

    def antideriv(rho):
        q = np.sqrt(np.maximum(a_safe * rho**2 + b * rho + c, 0.0))
        disc = np.maximum(4.0 * a_safe * c - b**2, 0.0)
        lin = 2.0 * a_safe * rho + b
        main = lin * q / (4.0 * a_safe)
        arc = disc / (8.0 * a_safe**1.5) * np.arcsinh(
            lin / np.sqrt(np.maximum(disc, 1e-300))
        )
        return main + arc

    val = c0 * (antideriv(t_arr) - antideriv(np.zeros_like(t_arr)))
    flat = c0 * t_arr * np.sqrt(c)
    val = np.where(small, flat, val)
    if val.shape == ():
        return float(val)
    return val


def psi_gradient_xi(t, eta, xi, c0: float) -> np.ndarray:
    """grad_xi Psi = c0 * integral_0^t (xi + rho eta)/<xi + rho eta> d rho.

    Each component is its own quadrature, so each converges on its own."""
    parts = []
    for j in range(3):
        t_arr, integral = _transported_integral(
            t, eta, xi, lambda rho, arg, j=j: arg[..., j] / _brk(arg)
        )
        parts.append(c0 * t_arr * integral)
    return np.stack(parts, axis=-1)


def psi_gradient_eta(t, eta, xi, c0: float) -> np.ndarray:
    """grad_eta Psi = c0 * integral_0^t rho (xi + rho eta)/<xi + rho eta> d rho.

    Each component is its own quadrature, so each converges on its own."""
    parts = []
    for j in range(3):
        t_arr, integral = _transported_integral(
            t, eta, xi, lambda rho, arg, j=j: rho[..., 0] * arg[..., j] / _brk(arg)
        )
        parts.append(c0 * t_arr * integral)
    return np.stack(parts, axis=-1)


def log_weight_F(params: WeightParams, eta, xi, psi_val=None) -> np.ndarray | float:
    """log F[delta, delta'], computed without overflow for any Psi."""
    if psi_val is None:
        psi_val = psi(params.t, eta, xi, params.c0)
    psi_val = np.asarray(psi_val, dtype=np.float64)
    log_den1 = np.logaddexp(0.0, np.log(params.delta) + psi_val)
    out = psi_val - log_den1 - params.r * np.log1p(params.delta_prime * psi_val)
    if out.shape == ():
        return float(out)
    return out


def weight_F(params: WeightParams, eta, xi, psi_val=None) -> np.ndarray | float:
    """F[delta, delta'] = e^Psi / ((1 + delta e^Psi)(1 + delta' Psi)^r).

    Always in (0, 1/delta]; decreasing in delta and delta' pointwise.
    """
    lf = log_weight_F(params, eta, xi, psi_val=psi_val)
    return np.exp(lf)


def weight_F_split(params: WeightParams, eta, xi) -> tuple:
    """The two-factor split F[delta,0] * G[delta'] * <eta>^(-r).

    Returns (F_delta0, G, eta_bracket_pow) whose product equals weight_F.
    """
    psi_val = psi(params.t, eta, xi, params.c0)
    f_d0 = 1.0 / (np.exp(-np.asarray(psi_val)) + params.delta)
    eta_brk = _brk(np.asarray(eta, dtype=np.float64))
    g = (eta_brk / (1.0 + params.delta_prime * np.asarray(psi_val))) ** params.r
    return f_d0, g, eta_brk ** (-params.r)


def bracket_factor(params: WeightParams, psi_val) -> np.ndarray | float:
    """1/(1 + delta e^Psi) - r delta'/(1 + delta' Psi); modulus <= 1."""
    psi_val = np.asarray(psi_val, dtype=np.float64)
    a = np.exp(-np.logaddexp(0.0, np.log(params.delta) + psi_val))
    b = params.r * params.delta_prime / (1.0 + params.delta_prime * psi_val)
    out = a - b
    if out.shape == ():
        return float(out)
    return out


@dataclass
class CheckResult:
    """Outcome of one sampled sweep: the worst ratio and where it occurs."""

    worst_point: dict
    worst_ratio: float


def transport_identity_residual(t, eta, xi, c0: float) -> float:
    """|(d/dt - eta.grad_xi) Psi - c0 <xi>| by central differences."""
    step = 1e-5
    eta = np.asarray(eta, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    dt_term = (psi(t + step, eta, xi, c0) - psi(t - step, eta, xi, c0)) / (2 * step)
    adv = 0.0
    for comp in range(3):
        e = np.zeros(3)
        e[comp] = step
        adv += eta[comp] * (psi(t, eta, xi + e, c0) - psi(t, eta, xi - e, c0)) / (
            2 * step
        )
    target = c0 * math.sqrt(1.0 + float(np.sum(xi**2)))
    return abs(float(dt_term) - float(adv) - target)


def weight_derivative_identity_residual(params: WeightParams, eta, xi, direction) -> float:
    """Relative residual of the first-order derivative identity for F.

    `direction` is a 7-vector (dt, d eta, d xi).  The directional derivative
    of F, computed by central differences, is compared with
    bracket * (A Psi) * F where A Psi uses the exact t-derivative and
    quadrature for the gradients.  Also asserts |bracket| <= 1.
    """
    step = 1e-6
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    eta = np.asarray(eta, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    at, aeta, axi = direction[0], direction[1:4], direction[4:7]

    def F_at(s):
        return weight_F(
            params, eta + s * aeta, xi + s * axi,
            psi_val=psi(params.t + s * at, eta + s * aeta, xi + s * axi, params.c0),
        )

    dF = (F_at(step) - F_at(-step)) / (2 * step)

    psi_val = psi(params.t, eta, xi, params.c0)
    dpsi = (
        at * params.c0 * math.sqrt(1.0 + float(np.sum((xi + params.t * eta) ** 2)))
        + float(aeta @ psi_gradient_eta(params.t, eta, xi, params.c0))
        + float(axi @ psi_gradient_xi(params.t, eta, xi, params.c0))
    )
    br = bracket_factor(params, psi_val)
    assert abs(br) <= 1.0 + 1e-12
    F0 = weight_F(params, eta, xi, psi_val=psi_val)
    scale = max(abs(F0) * (1.0 + abs(dpsi)), 1e-300)
    return abs(dF - br * dpsi * F0) / scale


def psi_derivative_bounds(params: WeightParams, eta, xi) -> dict:
    """Sampled first- and second-derivative bounds of Psi in xi.

    Returns max |d Psi / d xi_j| / (c0 t)  (must be <= 1) and the largest
    second central difference over the sample, normalized by c0 t.
    """
    step = 1e-4
    eta = np.atleast_2d(np.asarray(eta, dtype=np.float64))
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    grad = psi_gradient_xi(params.t, eta, xi, params.c0)
    first_ratio = float(np.max(np.abs(grad))) / (params.c0 * params.t)
    worst_second = 0.0
    base = psi(params.t, eta, xi, params.c0)
    for comp in range(3):
        e = np.zeros(3)
        e[comp] = step
        plus = psi(params.t, eta, xi + e, params.c0)
        minus = psi(params.t, eta, xi - e, params.c0)
        second = np.abs(plus + minus - 2.0 * np.asarray(base)) / step**2
        worst_second = max(worst_second, float(np.max(second)))
    return {
        "max_first_ratio": first_ratio,
        "max_second_over_c0t": worst_second / (params.c0 * params.t),
    }


def icosahedral_directions() -> np.ndarray:
    """The 12 icosahedron vertex directions (unit vectors)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            verts.append((0.0, s1 * 1.0, s2 * phi))
            verts.append((s1 * 1.0, s2 * phi, 0.0))
            verts.append((s1 * phi, 0.0, s2 * 1.0))
    arr = np.array(verts)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def log_radial_grid(rmin: float = 1e-2, rmax: float = 100.0, n: int = 14) -> np.ndarray:
    return np.geomspace(rmin, rmax, n)


@dataclass
class SampleGrid:
    """Log-radial x icosahedral sampling of pairs of 3-vectors, plus the
    origin and far asymptotic rays (inequalities are scale-invariant at
    infinity, so log grids expose the worst constants)."""

    radii: np.ndarray = field(default_factory=log_radial_grid)
    directions: np.ndarray = field(default_factory=icosahedral_directions)
    ray_radius: float = 1e6

    def vectors(self) -> np.ndarray:
        radii = np.concatenate(([0.0], self.radii, [self.ray_radius]))
        pts = radii[:, None, None] * self.directions[None, :, :]
        pts = pts.reshape(-1, 3)
        # the zero radius collapses all directions; keep a single origin
        return np.unique(np.round(pts, 12), axis=0)


def _integral_bracket_power(alpha: float, t, eta, xi):
    """integral_0^t <xi + rho eta>^alpha d rho in closed form: psi_closed for
    alpha = 1, t + transport_dissipation_integral for alpha = 2.  The sweeps
    visit radii up to 1e6, where uniform panel refinement would be hopeless,
    so any other alpha raises ValueError.
    """
    if alpha == 1:
        return np.asarray(psi_closed(t, eta, xi, 1.0))
    if alpha == 2:
        return t + transport_dissipation_integral(t, eta, xi)
    raise ValueError(f"alpha must be 1 or 2 (closed forms only), got {alpha:g}")


def time_integral_lower_ratio(alpha: float, grid: SampleGrid | None = None) -> CheckResult:
    """Brute-force minimum of

        integral_0^1 <xi - tau eta~>^alpha d tau / (1 + |xi|^2 + |eta~|^2)^(alpha/2)

    over the sample grid.  For alpha = 1 the minimum must clear 1/16 and for
    alpha = 2 it must clear 1/32 (floors assembled from the two-sided
    comparison chain; the true minima are larger).
    """
    grid = grid or SampleGrid()
    pts = grid.vectors()
    xi = np.repeat(pts, len(pts), axis=0)
    eta = np.tile(pts, (len(pts), 1))
    num = _integral_bracket_power(alpha, 1.0, -eta, xi)
    den = (1.0 + np.sum(xi**2, axis=-1) + np.sum(eta**2, axis=-1)) ** (alpha / 2.0)
    ratio = num / den
    k = int(np.argmin(ratio))
    return CheckResult(
        worst_point={"xi": xi[k].tolist(), "eta_tilde": eta[k].tolist()},
        worst_ratio=float(ratio[k]),
    )


def time_integral_upper_ratio(alpha: float, grid: SampleGrid | None = None) -> CheckResult:
    """Empirical constant C_alpha in

        integral_0^t <xi + rho eta>^alpha d rho
            <= C_alpha * t * (1 + |xi|^2 + t^2 |eta|^2)^(alpha/2),

    the worst ratio over the sample grid at t = 0.1, 0.25, 0.5 and 1.
    """
    grid = grid or SampleGrid()
    pts = grid.vectors()
    xi = np.repeat(pts, len(pts), axis=0)
    eta = np.tile(pts, (len(pts), 1))
    worst = -np.inf
    worst_pt: dict = {}
    for t in (0.1, 0.25, 0.5, 1.0):
        num = _integral_bracket_power(alpha, t, eta, xi)
        den = t * (
            1.0 + np.sum(xi**2, axis=-1) + t**2 * np.sum(eta**2, axis=-1)
        ) ** (alpha / 2.0)
        ratio = num / den
        k = int(np.argmax(ratio))
        if ratio[k] > worst:
            worst = float(ratio[k])
            worst_pt = {"t": t, "xi": xi[k].tolist(), "eta": eta[k].tolist()}
    return CheckResult(
        worst_point=worst_pt,
        worst_ratio=worst,
    )


def submultiplicativity_check(
    delta: float, n_samples: int = 100_000, seed: int = 0
) -> CheckResult:
    """Max violation of Ftilde(X+Y) <= 3 Ftilde(X) Ftilde(Y) on random
    X, Y >= 0, where Ftilde(X) = e^X/(1 + delta e^X).  Violation is the
    amount by which the ratio exceeds 3 (so <= 0 means the bound holds)."""
    rng = np.random.default_rng(seed)
    X = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), n_samples))
    Y = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), n_samples))

    def ftilde(z):
        return 1.0 / (np.exp(-z) + delta)

    ratio = ftilde(X + Y) / (ftilde(X) * ftilde(Y))
    k = int(np.argmax(ratio))
    return CheckResult(
        worst_point={"X": float(X[k]), "Y": float(Y[k])},
        worst_ratio=float(ratio[k] - 3.0),
    )


def weight_triangle_check(
    params: WeightParams, n_samples: int = 2000, seed: int = 1
) -> CheckResult:
    """Empirical constant in the convolution triangle bound

        F[d,d'](t,eta,xi) <eta>^r <= C (<eta-eta~>^r + <eta~>^r)
            * F[d,0](t, eta-eta~, xi*) * F[d,d'](t, eta~, xi) * e^(c0 t <xi*>).

    Evaluated in log space so large Psi cannot overflow.
    """
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(np.log(0.1), np.log(30.0), (n_samples, 1)))
    eta = rng.standard_normal((n_samples, 3)) * scale
    eta_t = rng.standard_normal((n_samples, 3)) * scale
    xi = rng.standard_normal((n_samples, 3)) * scale
    xi_s = rng.standard_normal((n_samples, 3)) * scale
    t = params.t

    log_lhs = log_weight_F(params, eta, xi) + params.r * np.log(_brk(eta))
    psi_rest = psi(t, eta_t, xi, params.c0)
    log_f_rest = log_weight_F(params, eta_t, xi, psi_val=psi_rest)
    psi_diff = psi(t, eta - eta_t, xi_s, params.c0)
    log_f_d0 = psi_diff - np.logaddexp(0.0, np.log(params.delta) + psi_diff)
    log_rhs = (
        np.log(_brk(eta - eta_t) ** params.r + _brk(eta_t) ** params.r)
        + log_f_d0
        + log_f_rest
        + params.c0 * t * _brk(xi_s)
    )
    log_ratio = log_lhs - log_rhs
    k = int(np.argmax(log_ratio))
    return CheckResult(
        worst_point={
            "eta": eta[k].tolist(),
            "eta_tilde": eta_t[k].tolist(),
            "xi": xi[k].tolist(),
            "xi_star": xi_s[k].tolist(),
        },
        worst_ratio=float(np.exp(log_ratio[k])),
    )
