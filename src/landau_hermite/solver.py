"""Time integration of the perturbation equation on a Fourier x Hermite grid.

The state is the double spectrum c[eta, alpha] of the perturbation g:
integer Fourier modes eta in {-K..K}^d_x for the periodic spatial variable
(d_x = 0 collapses to the homogeneous problem) and Hermite multi-indices
|alpha| <= N for velocity.  The evolution

    dg/dt + v . grad_x g + L g = B(g, g)

is marched with a first-order IMEX scheme: the stiff symmetric part L goes
implicitly (it is level preserving, so the solve splits into small dense
blocks shared by all Fourier modes), transport and the bilinear term go
explicitly.  The bilinear term touches its first argument only through ten
moments; `_bilinear` evaluates its mode convolutions pseudo-spectrally on a
dealiased grid, in O(n_modes * M) memory for M Hermite coefficients per mode.

A Picard mode mirrors the linearization sequence: each iterate solves the
linear equation with the bilinear term frozen on the previous iterate, and
the sup-in-time distance between successive iterates gives an empirical
contraction factor.

External formats owned by this module: flat key=value config files, the
"LNSP" binary snapshot, and the energy-ledger CSV.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from .hermite_core import get_basis
from .landau_ops import get_operators

__all__ = [
    "SolverConfig",
    "PhaseState",
    "EnergyLedger",
    "SolverDivergenceError",
    "PicardReport",
    "load_config",
    "parse_config_text",
    "build_initial_state",
    "h_r_norm",
    "triple_norm",
    "apply_transport",
    "gamma_conv",
    "step_imex",
    "run",
    "record_states",
    "picard_solve",
    "write_snapshot",
    "read_snapshot",
    "hermitian_defect",
]

SCHEMES = ("imex_euler", "picard")
RECIPES = ("zero", "rough", "gaussian", "kernel")


class SolverDivergenceError(RuntimeError):
    """The marched norm doubled from its initial value: the run left the
    perturbative regime."""


@dataclass
class SolverConfig:
    N: int = 16
    K: int = 8
    d_x: int = 1
    dt: float = 2e-3
    T: float = 1.0
    r: float = 2.0
    scheme: str = "imex_euler"
    picard_tol: float = 1e-9
    picard_max_iter: int = 25
    c0: float = 1.0 / 32.0
    seed: int = 0
    recipe: str = "rough"
    g0_norm: float = 1e-3
    record_every: int = 25
    snapshot_every: int = 0

    def __post_init__(self):
        for name in ("dt", "T", "r", "picard_tol", "c0", "g0_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.r <= 1.5:
            raise ValueError("r must exceed 3/2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if not (
            math.isfinite(self.T / self.dt)  # inf when dt is tiny against T
            and abs(self.n_steps * self.dt - self.T) <= 1e-12 * max(self.T, 1.0)
        ):
            raise ValueError("T must be an integer multiple of dt")
        if self.picard_tol < 0:
            raise ValueError("picard_tol must be >= 0")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")
        if self.g0_norm < 0:
            raise ValueError("g0_norm must be >= 0")
        if self.record_every < 0 or self.snapshot_every < 0:
            raise ValueError("record_every and snapshot_every must be >= 0")
        if self.snapshot_every and (
            not self.record_every or self.snapshot_every % self.record_every
        ):
            # snapshots are written from the recorded states only
            raise ValueError("snapshot_every must be a multiple of record_every > 0")
        if self.N < 4:
            raise ValueError("N must be at least 4")
        if self.d_x not in (0, 1, 2, 3):
            raise ValueError("d_x must be 0..3")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.recipe not in RECIPES:
            raise ValueError(f"recipe must be one of {RECIPES}")

    @property
    def n_steps(self) -> int:
        """Steps of size dt from 0 to T (T is a multiple of dt)."""
        return round(self.T / self.dt)


_CONVERTERS = {"int": int, "float": float, "str": str}  # annotations are strings
_CONFIG_TYPES = {f.name: _CONVERTERS[f.type] for f in fields(SolverConfig)}


def parse_config_text(text: str) -> SolverConfig:
    """Flat key=value lines, UTF-8, '#' comments; keys are the SolverConfig
    field names."""
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(
                f"line {lineno}: duplicate config key {key!r} "
                f"(first set on line {first_line[key]})"
            )
        first_line[key] = lineno
        convert = _CONFIG_TYPES[key]
        try:
            values[key] = convert(val)
        except ValueError:
            raise ValueError(
                f"line {lineno}: key {key!r} expects {convert.__name__}, got {val!r}"
            ) from None
    return SolverConfig(**values)


def load_config(path) -> SolverConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


class _Workspace:
    """Mode tables and operator matrices shared by every state of one
    (N, K, d_x, r) configuration; read-only after construction."""

    _cache: dict = {}

    def __init__(self, N: int, K: int, d_x: int, r: float):
        self.N, self.K, self.d_x, self.r = N, K, d_x, r
        self.basis = get_basis(N)
        self.ops = get_operators(N)
        self.modes = sorted(itertools.product(range(-K, K + 1), repeat=d_x))  # d_x=0: [()]
        self.n_modes = len(self.modes)
        self.mode_index = {m: i for i, m in enumerate(self.modes)}
        self.eta = np.array(self.modes, dtype=np.float64).reshape(self.n_modes, d_x)
        self.eta_sq = np.sum(self.eta**2, axis=1)
        self.h_weight = (1.0 + self.eta_sq) ** r  # <eta>^(2r)
        self.neg_index = np.arange(self.n_modes)[::-1]  # eta -> -eta reverses the order
        # the grid of _bilinear, L >= 3K+1 points per axis: mode eta sits at
        # the flat index of (eta mod L)
        L = _fast_len(3 * K + 1)
        self.grid_shape, self.grid_axes = (L,) * d_x, tuple(range(1, d_x + 1))
        axis = np.arange(-K, K + 1) % L
        self.grid_index = np.zeros(1, dtype=np.int64)
        for _ in range(d_x):
            self.grid_index = (self.grid_index[:, None] * L + axis).ravel()
        self.moment_stack = sp.hstack(self.ops.moment_operators, format="csr")
        b = self.basis
        self.V = [b.coordinate(ax) for ax in range(3)]
        self.D = [b.derivative(ax) for ax in range(3)]
        self.rot_pairs = [
            b.rotation(k, j) for k in range(3) for j in range(3) if k != j
        ]
        self._solve_cache: dict = {}

    @classmethod
    def for_config(cls, cfg: SolverConfig) -> "_Workspace":
        key = (cfg.N, cfg.K, cfg.d_x, cfg.r)
        if key not in cls._cache:
            cls._cache[key] = cls(*key)
        return cls._cache[key]

    def implicit_inverses(self, dt: float) -> list[np.ndarray]:
        """Dense inverses of (I + dt * L_block) per Hermite level."""
        key = round(dt, 15)
        if key not in self._solve_cache:
            inv = []
            for block in self.ops.level_blocks():
                inv.append(np.linalg.inv(np.eye(block.shape[0]) + dt * block))
            self._solve_cache[key] = inv
        return self._solve_cache[key]

    @functools.cached_property
    def dissipation_form(self) -> sp.csr_matrix:
        """Quadratic form Q of the dissipation seminorm of `triple_norm`, as
        the operator sum (exact at the cap)."""
        Q = sp.csr_matrix((self.basis.size, self.basis.size))
        for ax in range(3):
            D, V = self.D[ax], self.V[ax]
            Q = Q + 2.0 * (D.T @ D) + 0.5 * (V.T @ V)
        for A in self.rot_pairs:
            Q = Q + 0.5 * (A.T @ A)
        return Q.tocsr()

    @functools.cached_property
    def moment_stack_adjoint(self) -> sp.csr_matrix:
        """[G_0^T | ... | G_9^T], the stack of the g-slot adjoint."""
        return sp.hstack([G.T for G in self.ops.moment_operators], format="csr")

    @functools.cached_property
    def dissipation_metric_inverses(self) -> list[np.ndarray]:
        """Per-level inverses of (Q + I), Q the dissipation quadratic form."""
        Q = self.dissipation_form
        return [
            np.linalg.inv(Q[sl, sl].toarray() + np.eye(sl.stop - sl.start))
            for sl in self.basis.level_slices
        ]

    def dissipation_sq(self, c: np.ndarray) -> float:
        """Squared dissipation seminorm: sum_eta <eta>^(2r) Re <c_eta, Q c_eta>."""
        qc = _sparse_right(c, self.dissipation_form)
        return float(np.dot(self.h_weight, np.sum((np.conj(c) * qc).real, axis=1)))

    def trilinear_constant(self) -> float:
        """Empirical constant C0 in the trilinear bound

            |(B(f,g), h)_weighted| <= C0 ||f|| (|||g||| + ||g||)(|||h||| + ||h||),

        found by alternating maximization from two seeded random starts, 30
        sweeps each (the f slot has a closed-form optimum because f enters
        through its ten moments per mode).  The value is a certified lower
        bound on the true constant: it is the exact ratio at an explicit
        triple.  Cached per workspace.
        """
        if hasattr(self, "_c0_hat"):
            return self._c0_hat
        rng = np.random.default_rng(12345)
        w = self.h_weight
        slots = self.ops.moment_slots

        def ascent(x):  # metric-preconditioned direction, normalized
            out = np.empty_like(x)
            for sl, inv in zip(self.basis.level_slices, self.dissipation_metric_inverses):
                out[:, sl] = x[:, sl] @ inv
            out = out / w[:, None]
            return out / np.linalg.norm(out)

        def weighted_norm(c):
            return math.sqrt(float(np.sum(w[:, None] * np.abs(c) ** 2)))

        def seminorm_plus_norm(c):
            return math.sqrt(self.dissipation_sq(c)) + weighted_norm(c)

        def f_optimum(gc, hc):
            fc = np.zeros_like(gc)
            W = _bilinear_adjoint_f(self, gc, w[:, None] * hc)
            fc[:, slots] = np.conj(W) / w[:, None]
            n = np.linalg.norm(fc)
            return fc / n if n > 0 else fc

        best = 0.0
        mask = (self.basis.levels <= min(4, self.N))[None, :]
        shape = (self.n_modes, self.basis.size)

        def draw():
            c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask
            return c / np.linalg.norm(c)

        for _ in range(2):
            gc = draw()
            hc = draw()
            fc = f_optimum(gc, hc)
            for _ in range(30):
                mom = fc[:, slots]
                # h-gradient of the pairing
                hc = ascent(w[:, None] * _bilinear(self, mom, gc))
                # g-gradient
                gc = ascent(_bilinear_adjoint_g(self, mom, w[:, None] * hc))
                fc = f_optimum(gc, hc)
            pairing = np.sum(w[:, None] * _bilinear(self, fc[:, slots], gc) * np.conj(hc))
            val = abs(pairing) / (
                weighted_norm(fc) * seminorm_plus_norm(gc) * seminorm_plus_norm(hc)
            )
            best = max(best, float(val))
        self._c0_hat = best
        return best


@dataclass
class PhaseState:
    """Coefficients c[mode, alpha] at one time, tied to a config."""

    config: SolverConfig
    c: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        ws = _Workspace.for_config(self.config)
        self.c = np.ascontiguousarray(self.c, dtype=np.complex128)
        if self.c.shape != (ws.n_modes, ws.basis.size):
            raise ValueError(
                f"coefficients must have shape ({ws.n_modes}, {ws.basis.size})"
            )

    @property
    def workspace(self) -> _Workspace:
        return _Workspace.for_config(self.config)

    def copy(self) -> "PhaseState":
        return PhaseState(self.config, self.c.copy(), self.time)


def h_r_norm(state: PhaseState) -> float:
    """Weighted norm: sqrt(sum <eta>^(2r) |c|^2)."""
    ws = state.workspace
    return math.sqrt(float(np.sum(ws.h_weight[:, None] * np.abs(state.c) ** 2)))


def hermitian_defect(state: PhaseState) -> float:
    """How far the state is from representing a real function:
    max |c(-eta) - conj(c(eta))|."""
    ws = state.workspace
    return float(np.max(np.abs(state.c[ws.neg_index] - np.conj(state.c))))


def _sparse_right(c: np.ndarray, M: sp.csr_matrix) -> np.ndarray:
    """Apply the operator M to every mode row of c: rows become (M @ row)."""
    return (M @ c.T).T


def _add_transport(ws: _Workspace, c: np.ndarray, out: np.ndarray, scale: complex) -> np.ndarray:
    """out += scale * sum_j eta_j * (v_j on the slice) for the modes of c;
    returns out."""
    for j in range(ws.d_x):
        out += scale * ws.eta[:, j : j + 1] * _sparse_right(c, ws.V[j])
    return out


def apply_transport(state: PhaseState) -> PhaseState:
    """The term v . grad_x in Fourier: i * sum_j eta_j * (v_j on the slice).

    Skew-Hermitian in the weighted pairing, so it moves no norm.
    """
    out = _add_transport(state.workspace, state.c, np.zeros_like(state.c), 1j)
    return PhaseState(state.config, out, state.time)


def _fast_len(n: int) -> int:
    """Smallest 2,3,5-smooth integer >= n: an FFT-friendly grid length."""
    k = n
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return n if k == 1 else _fast_len(n + 1)


def _to_grid(ws: _Workspace, c: np.ndarray) -> np.ndarray:
    """Grid values (P, L**d_x) of the lattice polynomials whose mode
    coefficients are the columns of c (n_modes, P)."""
    grid = np.zeros((c.shape[1],) + ws.grid_shape, dtype=np.complex128)
    grid.reshape(c.shape[1], -1)[:, ws.grid_index] = c.T
    return np.fft.ifftn(grid, axes=ws.grid_axes, norm="forward").reshape(c.shape[1], -1)


def _from_grid(ws: _Workspace, x: np.ndarray) -> np.ndarray:
    """Lattice coefficients (n_modes, P) of grid values x (P, L**d_x); modes
    off the lattice are dropped."""
    P = x.shape[0]
    x = np.fft.fftn(x.reshape((P,) + ws.grid_shape), axes=ws.grid_axes, norm="forward")
    return np.ascontiguousarray(x.reshape(P, -1)[:, ws.grid_index].T)


# bytes of the work array of _grid_product, two blocks at the desk grid
# (d_x = 1, N = 16): larger blocks save little time but add their size to RSS
_BLOCK_BYTES = 2 << 20


def _grid_product(stack: sp.csr_matrix, ax: np.ndarray, bx: np.ndarray) -> np.ndarray:
    """sum_m A_m (ax[m] * bx) for stack = [A_0 | ... | A_9] real (M, 10 M) and
    grid values ax (10, n), bx (M, n); overwrites and returns bx.  Works on
    blocks of grid points; the stack acts on each block's float64 view."""
    M, n = bx.shape
    width = min(n, max(1, _BLOCK_BYTES // (160 * M)))
    work = np.empty(10 * M * width, dtype=np.complex128)
    for start in range(0, n, width):
        s = slice(start, min(start + width, n))
        prod = work[: 10 * M * (s.stop - s.start)].reshape(10, M, -1)
        np.multiply(ax[:, None, s], bx[None, :, s], out=prod)
        bx[:, s] = (stack @ prod.reshape(10 * M, -1).view(np.float64)).view(np.complex128)
    return bx


def _bilinear(ws: _Workspace, mom: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_m G_m (mom[:, m] * g), * the mode convolution truncated to the
    lattice: the bilinear term with its first argument given by its ten
    moment fields mom (n_modes, 10).

    Both factors are multiplied on a grid of L >= 3K+1 points per axis; the
    product's modes in [-2K, 2K] do not alias onto the lattice [-K, K]
    there, so the truncated convolution is exact (Orszag's 3/2 rule).
    """
    product = _grid_product(ws.moment_stack, _to_grid(ws, mom), _to_grid(ws, g))
    return _from_grid(ws, product)


def _bilinear_adjoint_g(ws: _Workspace, mom: np.ndarray, h: np.ndarray) -> np.ndarray:
    """U with sum(conj(h) * _bilinear(ws, mom, g)) == vdot(U, g) for every g:
    the transposed stack's grid product with the conjugated moment fields."""
    mx = np.conj(_to_grid(ws, mom))
    return _from_grid(ws, _grid_product(ws.moment_stack_adjoint, mx, _to_grid(ws, h)))


def _bilinear_adjoint_f(ws: _Workspace, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """W (n_modes, 10) with sum(conj(h) * _bilinear(ws, mom, g)) ==
    sum(mom * W) for every mom: W[c, m] is the coefficient at mode -c of
    sum_alpha conj(h) (G_m g) on the grid."""
    gx = _to_grid(ws, g).view(np.float64)
    hx = np.conj(_to_grid(ws, h))
    out = np.empty((10, hx.shape[1]), dtype=np.complex128)
    for m, G in enumerate(ws.ops.moment_operators):
        out[m] = np.einsum("ax,ax->x", hx, (G @ gx).view(np.complex128))
    return _from_grid(ws, out)[ws.neg_index]


def gamma_conv(f_state: PhaseState, g_state: PhaseState) -> PhaseState:
    """Bilinear collision term lifted to x-dependence: per output mode the
    sum over mode pairs of the velocity-space bilinear term, with the
    f-dependence entering only through per-mode moments.

    Out-of-lattice terms are dropped; `_bilinear` evaluates it on a grid of
    >= 3K+1 points per axis, in O(n_modes M) memory.
    """
    if f_state.config is not g_state.config and f_state.config != g_state.config:
        raise ValueError("states must share a config")
    ws = f_state.workspace
    out = _bilinear(ws, f_state.c[:, ws.ops.moment_slots], g_state.c)
    return PhaseState(f_state.config, out, g_state.time)


def step_imex(
    state: PhaseState,
    dt: float,
    gamma_on: bool = True,
    frozen_moment_fields: np.ndarray | None = None,
) -> PhaseState:
    """One IMEX Euler step: transport and the bilinear term explicit, L
    implicit through per-level dense solves shared by all modes.

    `frozen_moment_fields` (shape (n_modes, 10)) substitutes the moments of a
    frozen first argument in the bilinear term (Picard mode).
    """
    ws = state.workspace
    rhs = _add_transport(ws, state.c, state.c.copy(), -1j * dt)
    if gamma_on:
        mom = frozen_moment_fields
        if mom is None:
            mom = state.c[:, ws.ops.moment_slots]
        rhs += dt * _bilinear(ws, mom, state.c)
    out = np.empty_like(rhs)
    for n, inv in enumerate(ws.implicit_inverses(dt)):
        sl = ws.basis.level_slices[n]
        out[:, sl] = rhs[:, sl] @ inv  # inv is symmetric
    return PhaseState(state.config, out, state.time + dt)


def triple_norm(state: PhaseState) -> float:
    """Dissipation seminorm: per mode
    2 sum_j (|d_j g|^2 + |v_j g|^2 / 4) + (1/2) sum_{j!=k} |L_{k,j} g|^2,
    weighted by <eta>^(2r) and summed over modes, square-rooted.  Evaluated
    as the single quadratic form Re <g, Q g> of `_Workspace.dissipation_form`.

    For states of degree <= N-1 this satisfies
    triple_norm^2 = Re(L1 g, g) + 3 ||g||^2 per mode.
    """
    return math.sqrt(state.workspace.dissipation_sq(state.c))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _hermitize(ws: _Workspace, c: np.ndarray) -> np.ndarray:
    """Project onto the real-field symmetry c(-eta) = conj(c(eta))."""
    return 0.5 * (c + np.conj(c[ws.neg_index]))


def build_initial_state(config: SolverConfig) -> PhaseState:
    """Initial datum from the configured recipe, seeded, normalized to
    g0_norm in the weighted norm (except the zero recipe).

    rough     algebraic coefficient decay across Hermite levels, white across
              spatial modes, random phases, real field
    gaussian  exponentially decaying smooth datum, real field
    kernel    collision invariants on the eta = 0 mode only
    zero      zeros
    """
    ws = _Workspace.for_config(config)
    rng = np.random.default_rng(config.seed)
    c = np.zeros((ws.n_modes, ws.basis.size), dtype=np.complex128)
    if config.recipe == "zero":
        return PhaseState(config, c, 0.0)
    if config.recipe == "kernel":
        zero_mode = ws.mode_index[tuple([0] * config.d_x)] if config.d_x else 0
        ix = ws.basis.index_of
        c[zero_mode, ix[(0, 0, 0)]] = 1.0
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            c[zero_mode, ix[e]] = 0.5
        for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
            c[zero_mode, ix[e]] = 0.3
    else:
        levels = ws.basis.levels
        noise = rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)
        if config.recipe == "rough":
            # algebraic coefficient decay across Hermite levels, white across
            # the spatial modes: rough in both variables
            level_fac = (1.0 + levels) ** -1.0
            mode_fac = np.ones(ws.n_modes)
        else:  # gaussian
            level_fac = np.exp(-0.5 * levels)
            mode_fac = np.exp(-0.25 * ws.eta_sq)
        c = noise * level_fac[None, :] * mode_fac[:, None]
        c = _hermitize(ws, c)
    state = PhaseState(config, c, 0.0)
    norm = h_r_norm(state)
    if norm > 0:
        state.c *= config.g0_norm / norm
    return state


# ---------------------------------------------------------------------------
# marches
# ---------------------------------------------------------------------------


@dataclass
class EnergyLedger:
    """Per-step records of the weighted norm, dissipation seminorm, and the
    running dissipation integral."""

    t: list = field(default_factory=list)
    h_r_norm: list = field(default_factory=list)
    triple_norm: list = field(default_factory=list)
    dissipation_integral: list = field(default_factory=list)

    def append(self, t: float, norm: float, triple: float, dissipation: float):
        if self.t and t <= self.t[-1]:
            raise ValueError("ledger times must be strictly increasing")
        if not all(map(math.isfinite, (t, norm, triple, dissipation))):
            raise ValueError("ledger entries must be finite")
        self.t.append(t)
        self.h_r_norm.append(norm)
        self.triple_norm.append(triple)
        self.dissipation_integral.append(dissipation)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,h_r_norm,triple_norm,dissipation_integral\n")
        for row in zip(self.t, self.h_r_norm, self.triple_norm, self.dissipation_integral):
            buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return buf.getvalue()

    def energy_constant(self) -> float:
        """Empirical C in sup ||g||^2 + (1/2) int |||g|||^2 ds <= C ||g0||^2;
        nan for a zero datum, where the ratio is undefined."""
        if self.h_r_norm[0] == 0:
            return math.nan
        sup_sq = max(n**2 for n in self.h_r_norm)
        total = sup_sq + 0.5 * self.dissipation_integral[-1]
        return total / self.h_r_norm[0] ** 2


@dataclass
class RunResult:
    ledger: EnergyLedger
    snapshots: list  # (t, PhaseState) at record_every cadence
    energy_constant: float


def _march(g0: PhaseState, gamma_on: bool, frozen: np.ndarray | None):
    """The IMEX march of g0's config from g0: yields (state, h_r_norm(state))
    for k = 0..n_steps, the k-th state at time g0.time + k*dt.  The step
    leaving state k freezes the bilinear term's first argument on the moment
    fields frozen[k] unless frozen is None.

    Each state's norm is taken once.  A datum of non-finite norm raises
    ValueError; a state whose norm is not at most twice the datum's (NaN
    included) raises SolverDivergenceError.
    """
    config = g0.config
    norm0 = h_r_norm(g0)
    if not math.isfinite(norm0):
        raise ValueError(f"initial datum has non-finite weighted norm {norm0}")
    yield g0, norm0
    state = g0
    for k in range(1, config.n_steps + 1):
        mom = None if frozen is None else frozen[k - 1]
        state = step_imex(state, config.dt, gamma_on, mom)
        state.time = g0.time + k * config.dt
        norm = h_r_norm(state)
        if not norm <= 2.0 * norm0:
            raise SolverDivergenceError(
                f"weighted norm doubled at t = {state.time:.6g}; the datum left "
                "the perturbative regime"
            )
        yield state, norm


def record_states(march, dt: float, record_every: int) -> RunResult:
    """Energy ledger and snapshots of a march given as its (state,
    h_r_norm(state)) pairs, one per step of size dt: the ledger gets every
    state, the snapshots every record_every-th one plus the first and the
    last (only those two when record_every is 0).  The states are kept, not
    copied."""
    ledger = EnergyLedger()
    snapshots = []
    dissipation = 0.0
    for k, (state, norm) in enumerate(march):
        if k:
            dissipation += dt * tn**2
        tn = triple_norm(state)
        ledger.append(state.time, norm, tn, dissipation)
        if k == 0 or (record_every and k % record_every == 0):
            snapshots.append((state.time, state))
    if snapshots[-1][1] is not state:
        snapshots.append((state.time, state))
    return RunResult(ledger, snapshots, ledger.energy_constant())


def run(config: SolverConfig, initial: PhaseState | None = None, gamma_on: bool = True) -> RunResult:
    """March the configured scheme from the recipe (or the coefficients and
    time of a provided datum) to time T, recording the energy ledger every
    step and state snapshots at the record_every cadence."""
    if initial is None:
        g0 = build_initial_state(config)
    else:
        g0 = PhaseState(config, initial.c.copy(), initial.time)
    return record_states(_march(g0, gamma_on, None), config.dt, config.record_every)


@dataclass
class PicardReport:
    distances: list
    lambdas: list
    iterations: int
    # None when converged, else "lambda" | "smallness" | "divergence" | "max_iter"
    reason: str | None = None
    c0_estimate: float = math.nan
    smallness_product: float = math.nan

    @property
    def converged(self) -> bool:
        return self.reason is None

    @property
    def non_contraction(self) -> bool:
        return self.reason in ("lambda", "smallness", "divergence")

    @property
    def failed_iterate(self) -> int | None:
        return self.iterations if self.non_contraction else None

    @property
    def contraction_factor(self) -> float:
        finite = [x for x in self.lambdas if math.isfinite(x)]
        return max(finite) if finite else math.inf


def _march_linear(g0: PhaseState, traj: np.ndarray, frozen: np.ndarray | None) -> tuple[float, float]:
    """March the linear equation with a frozen bilinear argument (the step
    leaving time step k uses the moment fields frozen[k]; None drops the
    bilinear term) from g0, whose coefficients traj[0] holds, overwriting
    traj[1:] step by step.

    Returns the sup-in-time weighted distance between the new trajectory and
    the one it overwrote, and the new trajectory's sup-in-time weighted norm.
    If a step trips the divergence guard, the steps before it are already
    overwritten.
    """
    weights = np.sqrt(g0.workspace.h_weight)[:, None]
    sup_distance, sup_norm = 0.0, 0.0
    for k, (state, norm) in enumerate(_march(g0, frozen is not None, frozen)):
        if k:
            diff = np.abs(state.c - traj[k]) * weights
            sup_distance = max(sup_distance, math.sqrt(float(np.sum(diff**2))))
            traj[k] = state.c
        sup_norm = max(sup_norm, norm)
    return sup_distance, sup_norm


def picard_solve(g0: PhaseState) -> tuple[list[PhaseState], PicardReport]:
    """Linearization sequence: iterate n+1 solves the linear equation whose
    bilinear term freezes the first argument on iterate n; the seed iterate
    is the free linear flow of the datum.  The horizon T, the tolerance
    picard_tol and the iterate cap picard_max_iter come from g0's config.

    Returns the final iterate's trajectory (states at every step) and a
    contraction report with the sup-in-time distances of successive
    iterates.  A sequence that uses up picard_max_iter iterates without a
    distance <= picard_tol and without a guard firing reports reason
    "max_iter".  The non-contraction guard fires (data too large) when

    * an observed distance ratio reaches 1, or
    * the smallness condition 16 * sup_t ||iterate|| * C0 < 1 is violated,
      with C0 the workspace's measured trilinear constant (the contraction
      argument carries no warrant beyond it), or
    * an iterate trips the norm-doubling divergence guard.

    Memory: one complex trajectory buffer of (n_steps+1) * n_modes * M
    coefficients, which each iterate overwrites step by step while its
    distance and norm are taken, plus the frozen moment fields of two
    iterates, O(n_steps * n_modes) each.  The returned states are views of
    that buffer.
    """
    config = g0.config
    ws = g0.workspace
    # zeros, not empty: the seed march's distance (discarded) reads the buffer
    traj = np.zeros((config.n_steps + 1,) + g0.c.shape, dtype=np.complex128)
    traj[0] = g0.c
    frozen = None  # the moment fields that produced the iterate in traj
    _, sup_norm = _march_linear(g0, traj, frozen)
    c0_hat = ws.trilinear_constant()
    distances: list = []
    lambdas: list = []
    reason = None
    smallness = 16.0 * sup_norm * c0_hat
    for it in range(1, config.picard_max_iter + 1):
        smallness = max(smallness, 16.0 * sup_norm * c0_hat)
        if smallness >= 1.0:
            reason = "smallness"
            break
        prev_frozen, frozen = frozen, traj[:, :, ws.ops.moment_slots]
        try:
            d, sup_norm = _march_linear(g0, traj, frozen)
        except SolverDivergenceError:
            # traj is partly overwritten; the march is deterministic, so
            # marching again from the frozen fields that produced the
            # previous iterate restores it bit for bit
            _march_linear(g0, traj, prev_frozen)
            reason = "divergence"
            lambdas.append(math.inf)
            break
        distances.append(d)
        if len(distances) >= 2 and distances[-2] > 0:
            lambdas.append(distances[-1] / distances[-2])
            if lambdas[-1] >= 1.0:
                reason = "lambda"
                break
        if d <= config.picard_tol:
            break
    else:
        reason = "max_iter"
    trajectory = [
        PhaseState(config, traj[k], g0.time + k * config.dt)
        for k in range(config.n_steps + 1)
    ]
    return trajectory, PicardReport(distances, lambdas, it, reason, c0_hat, smallness)


# ---------------------------------------------------------------------------
# snapshot format
# ---------------------------------------------------------------------------

_MAGIC = b"LNSP"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdd")  # magic, version, d_x, K, N, r, time


def write_snapshot(path, state: PhaseState) -> None:
    """Binary snapshot: magic "LNSP", then little-endian uint32 version, d_x,
    K, N, float64 r and time, then the coefficient tensor as interleaved
    float64 (re, im) pairs in (eta-lexicographic, alpha-canonical) order."""
    cfg = state.config
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, cfg.d_x, cfg.K, cfg.N, cfg.r, state.time))
        inter = np.empty(state.c.size * 2, dtype="<f8")
        flat = state.c.reshape(-1)
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        fh.write(inter.tobytes())


def read_snapshot(path, config: SolverConfig | None = None) -> PhaseState:
    """Read a snapshot; a config is rebuilt from the header when none is
    supplied (march parameters take their defaults).  The header is checked
    against the file size before any workspace is built: a file whose
    payload is not the (2K+1)^d_x * comb(N+3, 3) coefficients the header
    claims is rejected."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if header[:4] != _MAGIC:
            raise ValueError("not a LNSP snapshot")
        if len(header) < _HEADER.size:
            raise ValueError(f"snapshot header truncated at {len(header)} bytes")
        _, version, d_x, K, N, r, time = _HEADER.unpack(header)
        if version != _VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        if config is None:
            config = SolverConfig(N=N, K=K, d_x=d_x, r=r)
        elif (config.N, config.K, config.d_x, config.r) != (N, K, d_x, r):
            raise ValueError("snapshot header does not match the given config")
        expected = (2 * K + 1) ** d_x * math.comb(N + 3, 3) * 16
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise ValueError(f"snapshot payload is {size} bytes, its header needs {expected}")
        ws = _Workspace.for_config(config)
        raw = np.frombuffer(fh.read(), dtype="<f8")
        c = (raw[0::2] + 1j * raw[1::2]).reshape(ws.n_modes, ws.basis.size)
        return PhaseState(config, c, time)
