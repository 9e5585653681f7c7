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

`psi` and its two gradients share one closed form, O(1) per ray and free of
cancellation: `_frame` splits each (eta, xi) pair along eta once, and `_ray`
adds what depends on t, so a sweep over several t builds each frame once.
Against a 40-digit reference over 300 rays at scales 1e-6 to 1e4, Psi errs
by at most 5e-16 relative, and each gradient by at most 6e-16 of its largest
component where |xi| <= 10 |xi_perp|.  The split of xi along and across eta
errs by about eps |xi|, so across a nearly parallel ray a gradient errs by
up to about eps |xi| / |xi_perp| (5e-14 at |xi| = 1e3 |xi_perp|): the
inputs' own conditioning, not cancellation.  The alpha = 2 time integral is
`kolmogorov.transport_dissipation_integral` plus t, whose sums |xi|^2,
xi . eta and |eta|^2 a sweep also builds once.  Each sweep returns its worst
value as a float; nothing here is a proof - the sweeps estimate constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kolmogorov import _dissipation_integral, _square_sums

__all__ = [
    "WeightParams",
    "psi",
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


def _brk(v, axis=-1):
    """<v> = sqrt(1 + |v|^2), the components of v along axis."""
    return np.sqrt(1.0 + np.sum(v**2, axis=axis))


def _ratio(num, den, limit):
    """num / den, and limit where den == 0; no division by zero is evaluated."""
    nonzero = den != 0
    return np.where(nonzero, num / np.where(nonzero, den, 1.0), limit)


def _scalar(out: np.ndarray) -> np.ndarray | float:
    """out, as a float when it is 0-d (the result of scalar inputs)."""
    return float(out) if out.shape == () else out


def _sinh_excess(x):
    """(sinh x - x) / x^3: below |x| = 1 its Taylor series, sum over n of
    x^(2n) / (2n+3)!, to rounding (n <= 8); above, the formula."""
    small = np.abs(x) < 1.0
    x2 = x * x
    series = np.zeros_like(x2)
    for n in range(8, -1, -1):
        series = series * x2 + 1.0 / math.factorial(2 * n + 3)
    x_big = np.where(small, 1.0, x)
    return np.where(small, series, (np.sinh(x_big) - x_big) / x_big**3)


class _Frame(NamedTuple):
    """What `_ray` needs of a batch of (eta, xi) pairs before it knows t."""

    size: np.ndarray  # |eta|
    e: np.ndarray  # eta / |eta|, batch + (3,); the zero vector where eta = 0
    y0: np.ndarray  # xi . e
    perp: np.ndarray  # xi - y0 e, batch + (3,)
    k: np.ndarray  # 1 + |perp|^2
    q0: np.ndarray  # sqrt(k + y0^2) = <xi>
    s0: np.ndarray  # asinh(y0 / sqrt k)


class _Ray(NamedTuple):
    t: np.ndarray
    e: np.ndarray
    perp: np.ndarray
    k: np.ndarray
    a: np.ndarray  # [asinh(y / sqrt k)] / (y1 - y0)
    b: np.ndarray  # [y q] / (y1 - y0), q = sqrt(k + y^2)
    c: np.ndarray  # [q] / (y1 - y0) = (y1 + y0) / (q1 + q0)
    d: np.ndarray  # (s1 - s0) / 2, where y = sqrt(k) sinh s
    s_mid: np.ndarray  # (s0 + s1) / 2


def _frame(eta, xi) -> _Frame:
    """xi = y0 e + perp along e = eta / |eta| (|eta| by `np.hypot`, so
    eta = 1e-300 does not underflow); eta and xi broadcast over a batch."""
    eta, xi = np.asarray(eta, dtype=np.float64), np.asarray(xi, dtype=np.float64)
    size = np.hypot(np.hypot(eta[..., 0], eta[..., 1]), eta[..., 2])
    e = eta / np.where(size > 0, size, 1.0)[..., None]
    y0 = np.sum(xi * e, axis=-1)
    perp = xi - y0[..., None] * e
    k = 1.0 + np.sum(perp**2, axis=-1)
    return _Frame(size, e, y0, perp, k, np.sqrt(k + y0**2), np.arcsinh(y0 / np.sqrt(k)))


def _ray(t, frame: _Frame) -> _Ray:
    """The ray xi + rho eta, 0 <= rho <= t, as y e + perp with y from y0 to
    y1 = y0 + t |eta|, so <xi + rho eta> = q.  Where y0 and y1 share a sign
    the differences [.] are rationalised, asinh a - asinh b =
    asinh(a sqrt(1 + b^2) - b sqrt(1 + a^2)) and y1 q1 - y0 q0 =
    (y1 - y0)(y1 + y0)(k + y1^2 + y0^2)/(y1 q1 + y0 q0), so t |eta| divides
    out exactly (eta = 0 is the limit); where the ray crosses y = 0 they are
    sums of terms of one sign.  t is a scalar or a batch of the frame's
    shape; one frame serves every t."""
    y0, k, q0, s0 = frame.y0, frame.k, frame.q0, frame.s0
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), k.shape)
    span = t * frame.size
    y1 = y0 + span
    q1 = np.sqrt(k + y1**2)
    s1 = np.arcsinh(y1 / np.sqrt(k))
    same = np.sign(y0) * np.sign(y1) > 0
    u = _ratio(y1 + y0, y1 * q0 + y0 * q1, 0.0)
    ds = np.where(same, np.arcsinh(span * u), s1 - s0)
    a = _ratio(ds, span, 1.0 / q0)
    b_num = np.where(same, (y1 + y0) * (k + y1**2 + y0**2), y1 * q1 - y0 * q0)
    b = _ratio(b_num, np.where(same, y1 * q1 + y0 * q0, span), q0)
    c = (y1 + y0) / (q1 + q0)
    return _Ray(t, frame.e, frame.perp, k, a, b, c, 0.5 * ds, 0.5 * (s0 + s1))


def _psi(t, frame: _Frame, c0: float) -> np.ndarray:
    """Psi over a frame's batch, as an array."""
    r = _ray(t, frame)
    return 0.5 * c0 * r.t * (r.b + r.k * r.a)


def psi(t, eta, xi, c0: float) -> np.ndarray | float:
    """Psi = c0 * integral_0^t <xi + rho eta> d rho = c0 t (b + k a) / 2 in
    the frame of `_ray`.

    eta and xi broadcast over a common batch of 3-vectors; t is a scalar or a
    batch of the same shape.  Returns the batch of values (scalar for scalar
    input).
    """
    return _scalar(_psi(t, _frame(eta, xi), c0))


def psi_gradient_xi(t, eta, xi, c0: float) -> np.ndarray:
    """grad_xi Psi = c0 * integral_0^t (xi + rho eta)/<xi + rho eta> d rho
    = c0 t (perp a + e c) in the frame of `_ray`; batch + (3,).  Both
    gradients are backward stable; the module docstring gives their accuracy."""
    r = _ray(t, _frame(eta, xi))
    return c0 * r.t[..., None] * (r.perp * r.a[..., None] + r.e * r.c[..., None])


def psi_gradient_eta(t, eta, xi, c0: float) -> np.ndarray:
    """grad_eta Psi = c0 * integral_0^t rho (xi + rho eta)/<xi + rho eta> d rho;
    batch + (3,).

    With y = sqrt(k) sinh s about the midpoint m of s0..s1 and the half-width
    d, the perp and e parts are integrals of (sinh s - sinh s0) and
    (sinh s - sinh s0) sinh s, each d^2 times a form in g = (sinh d - d)/d^3,
    sinh d / d = 1 + d^2 g and (cosh d - 1)/d^2 = (sinh d / d)^2/(1 + cosh d)
    without second-order cancellation."""
    r = _ray(t, _frame(eta, xi))
    d, m = r.d, r.s_mid
    g = _sinh_excess(d)
    sinhc = 1.0 + d * d * g
    cosh_excess = sinhc**2 / (1.0 + np.cosh(d))
    ch, sh = np.cosh(m), np.sinh(m)
    w = c0 * r.t**2 / (2.0 * ch**2 * sinhc**2)
    across = w * (ch * sinhc - d * sh * (cosh_excess - g)) / np.sqrt(r.k)
    along = w * (0.5 * d * (g + sinhc * cosh_excess) + sh * ch * sinhc**2)
    return r.perp * across[..., None] + r.e * along[..., None]


def log_weight_F(params: WeightParams, eta, xi, psi_val=None) -> np.ndarray | float:
    """log F[delta, delta'], computed without overflow for any Psi."""
    if psi_val is None:
        psi_val = psi(params.t, eta, xi, params.c0)
    psi_val = np.asarray(psi_val, dtype=np.float64)
    log_den1 = np.logaddexp(0.0, np.log(params.delta) + psi_val)
    return _scalar(psi_val - log_den1 - params.r * np.log1p(params.delta_prime * psi_val))


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
    return _scalar(a - b)


def transport_identity_residual(t, eta, xi, c0: float) -> float:
    """|(d/dt - eta.grad_xi) Psi - c0 <xi>| by central differences, from
    one batched `psi` call over the eight shifted rays."""
    step = 1e-5
    eta = np.asarray(eta, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    shifts = np.zeros((8, 3))  # rows: t +- step, then xi +- step e_comp
    shifts[2:] = np.kron(np.eye(3), [[step], [-step]])
    times = np.full(8, t, dtype=np.float64)
    times[:2] += (step, -step)
    vals = psi(times, eta, xi + shifts, c0)
    dt_term = (vals[0] - vals[1]) / (2 * step)
    adv = 0.0
    for comp in range(3):
        adv += eta[comp] * (vals[2 + 2 * comp] - vals[3 + 2 * comp]) / (2 * step)
    target = c0 * math.sqrt(1.0 + float(np.sum(xi**2)))
    return abs(float(dt_term) - float(adv) - target)


def weight_derivative_identity_residual(params: WeightParams, eta, xi, direction) -> float:
    """Relative residual of the first-order derivative identity for F.

    `direction` is a 7-vector (dt, d eta, d xi).  The directional derivative
    of F, computed by central differences, is compared with
    bracket * (A Psi) * F where A Psi uses the exact t-derivative and
    the closed-form gradients.  Also asserts |bracket| <= 1.
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


def psi_derivative_bounds(params: WeightParams, eta, xi) -> float:
    """Sampled first-derivative bound of Psi in xi: max |d Psi / d xi_j| /
    (c0 t) over the sample (must be <= 1)."""
    eta = np.atleast_2d(np.asarray(eta, dtype=np.float64))
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    grad = psi_gradient_xi(params.t, eta, xi, params.c0)
    return float(np.max(np.abs(grad))) / (params.c0 * params.t)


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


def log_radial_grid(n: int = 14) -> np.ndarray:
    """n radii spaced geometrically from 1e-2 to 100."""
    return np.geomspace(1e-2, 100.0, n)


def _sample_vectors(radii: np.ndarray | None) -> np.ndarray:
    """Log-radial x icosahedral sampling of 3-vectors, plus the origin and the
    far asymptotic ray at radius 1e6 (inequalities are scale-invariant at
    infinity, so log grids expose the worst constants).  radii defaults to
    log_radial_grid()."""
    if radii is None:
        radii = log_radial_grid()
    radii = np.concatenate(([0.0], radii, [1e6]))
    pts = radii[:, None, None] * icosahedral_directions()[None, :, :]
    pts = pts.reshape(-1, 3)
    # the zero radius collapses all directions; keep a single origin
    return np.unique(np.round(pts, 12), axis=0)


def _integral_bracket_power(alpha: float, times, eta, xi):
    """integral_0^t <xi + rho eta>^alpha d rho in closed form at each t of
    times in turn, from one frame (alpha = 1, psi) or one set of sums
    (alpha = 2, t + transport_dissipation_integral).  Other alpha have no
    closed form here and raise ValueError.
    """
    if alpha == 1:
        frame = _frame(eta, xi)
        return (_psi(t, frame, 1.0) for t in times)
    if alpha == 2:
        sums = _square_sums(eta, xi)
        return (t + _dissipation_integral(t, sums) for t in times)
    raise ValueError(f"alpha must be 1 or 2 (closed forms only), got {alpha:g}")


def time_integral_lower_ratio(alpha: float, radii: np.ndarray | None = None) -> float:
    """Brute-force minimum of

        integral_0^1 <xi - tau eta~>^alpha d tau / (1 + |xi|^2 + |eta~|^2)^(alpha/2)

    over all pairs of sample vectors.  For alpha = 1 the minimum must clear
    1/16 and for alpha = 2 it must clear 1/32 (floors assembled from the
    two-sided comparison chain; the true minima are larger).
    """
    pts = _sample_vectors(radii)
    xi, eta = pts[:, None, :], pts[None, :, :]  # every pair, by broadcasting
    (num,) = _integral_bracket_power(alpha, (1.0,), -eta, xi)
    den = (1.0 + np.sum(xi**2, axis=-1) + np.sum(eta**2, axis=-1)) ** (alpha / 2.0)
    return float(np.min(num / den))


def time_integral_upper_ratio(alpha: float, radii: np.ndarray | None = None) -> float:
    """Empirical constant C_alpha in

        integral_0^t <xi + rho eta>^alpha d rho
            <= C_alpha * t * (1 + |xi|^2 + t^2 |eta|^2)^(alpha/2),

    the worst ratio over all pairs of sample vectors at t = 0.1, 0.25, 0.5
    and 1, which share each pair's frame or sums.
    """
    pts = _sample_vectors(radii)
    xi, eta = pts[:, None, :], pts[None, :, :]  # every pair, by broadcasting
    times = (0.1, 0.25, 0.5, 1.0)
    xi2, eta2 = np.sum(xi**2, axis=-1), np.sum(eta**2, axis=-1)
    worst = []
    for t, num in zip(times, _integral_bracket_power(alpha, times, eta, xi)):
        den = t * (1.0 + xi2 + t**2 * eta2) ** (alpha / 2.0)
        worst.append(np.max(num / den))
    return float(np.max(worst))


def submultiplicativity_check(delta: float, seed: int = 0) -> float:
    """Max violation of Ftilde(X+Y) <= 3 Ftilde(X) Ftilde(Y) over 100 000
    random X, Y >= 0, where Ftilde(X) = e^X/(1 + delta e^X).  Violation is the
    amount by which the ratio exceeds 3 (so <= 0 means the bound holds)."""
    n = 100_000
    rng = np.random.default_rng(seed)
    X = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), n))
    Y = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), n))

    def ftilde(z):
        return 1.0 / (np.exp(-z) + delta)

    ratio = ftilde(X + Y) / (ftilde(X) * ftilde(Y))
    return float(np.max(ratio) - 3.0)


def weight_triangle_check(params: WeightParams, seed: int = 1) -> float:
    """Empirical constant, the worst over 2000 random samples, in the
    convolution triangle bound

        F[d,d'](t,eta,xi) <eta>^r <= C (<eta-eta~>^r + <eta~>^r)
            * F[d,0](t, eta-eta~, xi*) * F[d,d'](t, eta~, xi) * e^(c0 t <xi*>).

    Evaluated in log space so large Psi cannot overflow.
    """
    n = 2000
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(np.log(0.1), np.log(30.0), (n, 1)))
    eta = rng.standard_normal((n, 3)) * scale
    eta_t = rng.standard_normal((n, 3)) * scale
    xi = rng.standard_normal((n, 3)) * scale
    xi_s = rng.standard_normal((n, 3)) * scale
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
    return float(np.exp(np.max(log_lhs - log_rhs)))
