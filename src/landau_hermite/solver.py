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
The perturbation is a real field, c(-eta) = conj(c(eta)), and the kernel
acts on real fields only: it reads the eta_1 >= 0 half of the lattice and
maps it to one real (M, L**d_x) grid and back by per-axis DFT matrices,
applied as BLAS products on row blocks of at most 2 MiB of intermediates,
and returns that half; a caller that needs the whole lattice fills the rest
by conjugation.  The step computes only the modes from eta = 0 on and
fills the mirror of its new state once.  A step's working set is that
grid, those blocks, the work block of `_grid_product` (at most 3 MiB),
half-size temporaries and the new state.  The march and `gamma_conv`
therefore reject a state that is not a real field.

Layout: c is stored Hermite-major (Fortran order), so c.T is a C-contiguous
(M, n_modes) array and its float64 view (M, 2 n_modes) interleaves the real
and imaginary parts mode by mode.  Every velocity-side operator is real and
acts on the Hermite index alone, the same way on every mode: L's per-level
implicit solve, the dissipation form Q, the ten moment operators and the
v_j of transport.  Each is therefore one real product on that view, with no
transposed copy and no complex upcast, and the norms are one real reduction
per mode on it.  The kernel's grid transforms read the eta_1 >= 0 tail
of the same view in place and write the tail they return in the same
layout.  The snapshot format stores the logical (eta, alpha) order and
does not depend on the layout.

A Picard mode mirrors the linearization sequence: each iterate solves the
linear equation with the bilinear term frozen on the previous iterate, and
the sup-in-time distance between successive iterates gives an empirical
contraction factor.

External formats owned by this module: flat key=value config files, the
"LNSP" binary snapshot, and the energy-ledger CSV.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .hermite_core import get_basis
from .landau_ops import LandauOperators, get_operators

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
    seed: int = 0
    recipe: str = "rough"
    g0_norm: float = 1e-3
    record_every: int = 25
    snapshot_every: int = 0

    def __post_init__(self):
        for name in ("dt", "T", "r", "picard_tol", "g0_norm"):
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.N < 4:
            raise ValueError("N must be at least 4")
        if self.d_x not in (0, 1, 2, 3):
            raise ValueError("d_x must be 0..3")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        try:  # the largest weight <eta>^(2r), at the lattice corner
            (1.0 + self.K**2 * self.d_x) ** self.r
        except OverflowError:  # r * ln(1 + K^2 d_x) above about 709.8
            raise ValueError(
                f"r = {self.r:g} overflows the weight (1 + K^2 d_x)^r at "
                f"K = {self.K}, d_x = {self.d_x}"
            ) from None
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
    """The Fourier lattice and grid layout of one (N, K, d_x, r)
    configuration, and its weight <eta>^(2r); read-only after construction
    apart from caches filled on first use.

    The lattice is sorted lexicographically, which fixes three facts used
    throughout: eta -> -eta reverses the order (the mirror of a state c is
    c[::-1]), eta = 0 is row `centre` = n_modes // 2, and the modes with
    eta_1 >= 0 are the tail modes[half_start:], the half of a real field
    that the kernel reads and returns.  Every velocity-side matrix depends
    on N alone and lives in the per-cap `basis` and `ops`, the implicit
    step's per-level inverses included, so building a workspace assembles
    no operator; the kernel's DFT matrices, one table for both directions,
    are built on its first use, so a snapshot read or a norm builds none.
    """

    _cache: dict = {}

    def __init__(self, N: int, K: int, d_x: int, r: float):
        self.N, self.K, self.d_x, self.r = N, K, d_x, r
        self.modes = sorted(itertools.product(range(-K, K + 1), repeat=d_x))  # d_x=0: [()]
        self.n_modes = len(self.modes)
        self.centre = self.n_modes // 2  # the row of eta = 0
        self.eta = np.array(self.modes, dtype=np.float64).reshape(self.n_modes, d_x)
        self.eta_sq = np.sum(self.eta**2, axis=1)
        self.h_weight = (1.0 + self.eta_sq) ** r  # <eta>^(2r)
        # the real grid of _bilinear: L = 3K+1 points per axis, the fewest at
        # which the 3/2 rule holds; the kernel reads the tail modes[half_start:]
        # (eta_1 >= 0), a (K+1, 2K+1, ..., 2K+1) block in C order
        self.grid_shape = (3 * K + 1,) * d_x
        self.half_start = self.n_modes // (2 * K + 1) * K  # the modes with eta_1 < 0

    @cached_property
    def mode_index(self) -> dict:
        return {m: i for i, m in enumerate(self.modes)}

    @cached_property
    def dft_matrices(self) -> tuple[np.ndarray, ...]:
        """The real, read-only DFT matrices of the kernel's grid transforms,
        built on first kernel use: (first, trailing) of `_to_grid`, then
        those of `_from_grid`.

        `_to_grid`: first (2(K+1), L), the rows w cos(eta_1 x) and
        -w sin(eta_1 x) of each half mode eta_1 = 0..K, w = 1 at eta_1 = 0
        and 2 elsewhere (the conjugate half), takes its (re, im) pair to
        real values at the L points x.  trailing (2(2K+1), 2L): e^{i eta x}
        for eta = -K..K, as a right factor from a row of (re, im) pairs to
        the split layout, L real parts then L imaginary parts; its
        transpose, as a left factor, does the same to columns.

        `_from_grid`: first (L, 2(K+1)), the forward first matrix without
        its w, transposed, over L, takes L real values to the (re, im) pair
        of each half mode; trailing (2L, 2(2K+1)), the forward trailing
        matrix transposed over L, takes the split layout back to (re, im)
        pairs.  The backward first matrix is stored C-contiguous: BLAS
        rounds a product differently on a transposed layout."""
        L, K = self.grid_shape[0], self.K
        cos, sin = _dft_angles(K, L, -K)
        half = np.stack((cos[K:], -sin[K:]), axis=1).reshape(-1, L)
        w = np.full((len(half), 1), 2.0)
        w[:2] = 1.0
        pairs = (np.concatenate((cos, sin), axis=1), np.concatenate((-sin, cos), axis=1))
        trailing = np.stack(pairs, axis=1).reshape(-1, 2 * L)
        out = (w * half, trailing, np.ascontiguousarray(half.T) / L, trailing.T / L)
        for m in out:
            m.flags.writeable = False
        return out

    @cached_property
    def basis(self):
        return get_basis(self.N)

    @cached_property
    def ops(self):
        return get_operators(self.N)

    @classmethod
    def for_config(cls, cfg: SolverConfig) -> "_Workspace":
        key = (cfg.N, cfg.K, cfg.d_x, cfg.r)
        if key not in cls._cache:
            cls._cache[key] = cls(*key)
        return cls._cache[key]

    def implicit_inverses(self, dt: float) -> list[np.ndarray]:
        """Per-level inverses of (I + dt L): `LandauOperators.implicit_inverses`."""
        return self.ops.implicit_inverses(dt)

    def norm_sq(self, c: np.ndarray) -> float:
        """Squared weighted norm: sum_eta <eta>^(2r) |c_eta|^2."""
        x = _real_view(c)
        return float(np.dot(self.h_weight, _mode_dots(x, x)))

    def dissipation_sq(self, c: np.ndarray) -> float:
        """Squared dissipation seminorm: sum_eta <eta>^(2r) Re <c_eta, Q c_eta>."""
        x = _real_view(c)
        return float(np.dot(self.h_weight, _mode_dots(x, self.ops.dissipation_form @ x)))

    def trilinear_constant(self) -> float:
        """Empirical constant C0 in the trilinear bound

            |(B(f,g), h)_weighted| <= C0 ||f|| (|||g||| + ||g||)(|||h||| + ||h||),

        over real fields, the paper's setting and the kernel's domain.  It
        is found by alternating maximization from two seeded random starts,
        hermitized, 30 sweeps each.  f enters only through its ten moment
        fields mom (n_modes, 10), so the search carries f as mom, whose
        weighted norm is f's, and the f slot has a closed-form optimum;
        every sweep maps real fields to real fields.  The value is a
        certified lower bound on the true constant over real fields: it is
        the exact ratio at an explicit real triple.  Thirty sweeps do not
        converge everywhere: at the desk grid (N=16, K=8, d_x=1, r=2) the
        value is 2.0600, against about 2.0798 after 60 sweeps.

        A sweep updates h, then g, then mom, and transforms each new
        iterate to the grid once (w h, g, mom); the grids of g and mom are
        carried to the next step that reads them.  The h step takes
        B(mom, g) from `_grid_product`, which overwrites g's grid, unread
        after it.  The g and f steps are the two contractions of
        Y = stack^T (w h) (`_grid_adjoint`): when the grid fits in one
        block of `_adjoint_blocks`, Y is computed once and both read it,
        otherwise each computes it block by block, so one block is held
        at a time.  Per-mode weights multiply float64 views (a division by
        w as the product with 1/w, which is how numpy divides a complex by
        a real, so the bits are kept); the ascent's level product and the
        weights of B and W act on the modes from eta = 0 on, and `_unfold`
        fills the mirror before a norm is taken.

        Cached per workspace, with the search's diagnostic in `_c0_search`:
        per start, its sweeps and the relative change of its ratio in the
        last sweep.  The ratio before that sweep is taken from the
        B(mom, g) the sweep computes first, so it costs no kernel call.
        """
        if hasattr(self, "_c0_hat"):
            return self._c0_hat
        rng = np.random.default_rng(12345)
        w = self.h_weight
        basis, ops = self.basis, self.ops
        stack_t = ops.moment_stack.T
        centre, n_modes = self.centre, self.n_modes
        tc = centre - self.half_start  # eta = 0 in a tail of `_from_grid`
        w2 = np.repeat(w, 2)  # per column of a real view
        w2_half, inv_w2_half = w2[2 * centre :], np.repeat(1.0 / w, 2)[2 * centre :]
        n = math.prod(self.grid_shape)
        shared = _adjoint_width(basis.size, n) == n
        # one work array per search: a new one per product left the heap
        # to be trimmed and faulted in again while the shared Y was held
        work = _product_work(basis.size, n)
        sweeps = 30

        def ascent(tail):  # metric-preconditioned direction, normalized
            out = np.empty((n_modes, tail.shape[1]), dtype=np.complex128, order="F")
            _level_product(basis, ops.dissipation_metric_inverses, tail[tc:], out[centre:])
            x = _real_view(out[centre:])
            x *= inv_w2_half
            _unfold(out.T[:, centre:], out.T)
            x = _real_view(out)
            x *= 1.0 / np.linalg.norm(out)
            return out

        def f_optimum(tail):  # the moment fields W / w, normalized
            x = _real_view(tail[tc:])
            x *= inv_w2_half
            mom = _whole(self, tail)
            norm = np.linalg.norm(mom)
            return mom / norm if norm > 0 else mom

        def weighted_grid(hc):  # the grid of w h
            return _to_grid(self, (_real_view(hc) * w2).view(np.complex128).T)

        def seminorm_plus_norm(c):
            return math.sqrt(self.dissipation_sq(c)) + math.sqrt(self.norm_sq(c))

        def ratio(b, mom, gc, hc):  # at the triple whose B(mom, g) has the tail b
            pairing = np.sum(w[:, None] * _whole(self, b) * np.conj(hc))
            return float(
                abs(pairing)
                / (math.sqrt(self.norm_sq(mom)) * seminorm_plus_norm(gc) * seminorm_plus_norm(hc))
            )

        best = 0.0
        mask = (basis.levels <= min(4, self.N))[None, :]
        shape = (n_modes, basis.size)

        def draw():
            c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask
            c = _hermitize(np.asfortranarray(c))
            return c / np.linalg.norm(c)

        starts = []
        for _ in range(2):
            gc = draw()
            hc = draw()
            hx = weighted_grid(hc)
            gx = _to_grid(self, gc)
            y = _adjoint_blocks(stack_t, hx)
            ratios = []
            for sweep in range(sweeps + 1):
                # f slot: the optimum for g and h, then B(mom, g) on g's grid
                mom = f_optimum(_from_grid(self, _grid_adjoint(y, gx, "ax,max->mx", np.empty((10, n)))))
                del hx, y
                momx = _to_grid(self, mom)
                b = _from_grid(self, _grid_product(ops, momx, gx, work))
                del gx
                if sweep >= sweeps - 1:
                    ratios.append(ratio(b, mom, gc, hc))
                if sweep == sweeps:
                    break
                # h-gradient of the pairing
                x = _real_view(b[tc:])
                x *= w2_half
                hc = ascent(b)
                del b, x, gc
                hx = weighted_grid(hc)
                y = _adjoint_blocks(stack_t, hx)
                if shared:
                    y = list(y)
                # g-gradient
                gc = ascent(_from_grid(self, _grid_adjoint(y, momx, "mx,max->ax", np.empty_like(hx))))
                gx = _to_grid(self, gc)
                if not shared:
                    y = _adjoint_blocks(stack_t, hx)
            before, val = ratios
            starts.append((sweeps, abs(val - before) / val))
            best = max(best, val)
        self._c0_hat, self._c0_search = best, tuple(starts)
        return best


@dataclass
class PhaseState:
    """Coefficients c[mode, alpha] at one time, tied to a config.  c is
    stored in Fortran order (see the module docstring): coerced here, kept
    by `copy`."""

    config: SolverConfig
    c: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        ws = _Workspace.for_config(self.config)
        self.c = np.asfortranarray(self.c, dtype=np.complex128)
        if self.c.shape != (ws.n_modes, ws.basis.size):
            raise ValueError(
                f"coefficients must have shape ({ws.n_modes}, {ws.basis.size})"
            )

    @property
    def workspace(self) -> _Workspace:
        return _Workspace.for_config(self.config)

    def copy(self) -> "PhaseState":
        return PhaseState(self.config, self.c.copy(order="F"), self.time)


def h_r_norm(state: PhaseState) -> float:
    """Weighted norm: sqrt(sum <eta>^(2r) |c|^2)."""
    return math.sqrt(state.workspace.norm_sq(state.c))


def hermitian_defect(state: PhaseState) -> float:
    """How far the state is from representing a real function:
    max |c(-eta) - conj(c(eta))|.  The pairs (eta, -eta) and (-eta, eta)
    give the same float, so each pair is read once, from eta = 0 on."""
    centre = state.workspace.centre
    return float(np.max(np.abs(state.c[centre::-1] - np.conj(state.c[centre:]))))


def _require_real_field(state: PhaseState, name: str, norm: float) -> None:
    """Raise ValueError unless the state, of weighted norm `norm`, is a real
    field: the bilinear kernel reads only half of the lattice, so its
    Hermitian defect may not exceed rounding, 1e-12 of its norm."""
    defect = hermitian_defect(state)
    if defect > 1e-12 * norm:
        raise ValueError(
            f"{name} is not a real field: Hermitian defect {defect:.3g} "
            f"exceeds 1e-12 of its weighted norm {norm:.3g}"
        )


def _real_view(c: np.ndarray) -> np.ndarray:
    """The float64 view (M, 2 n_modes) of c.T for a Fortran-ordered
    (n_modes, M) coefficient array c: row alpha interleaves the real and
    imaginary parts of c[:, alpha] mode by mode.  A real operator on the
    Hermite index multiplies it from the left."""
    return c.T.view(np.float64)


def _mode_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per mode sum_alpha Re(conj(a) b) of the arrays a, b whose real views
    are x, y: one real reduction over alpha, then the re/im pair summed."""
    return np.einsum("ak,ak->k", x, y).reshape(-1, 2).sum(axis=1)


def _level_product(
    basis, mats: list[np.ndarray], c: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The rows c[:, sl] @ m for the real (w, w) matrix m of each Hermite
    level sl, written into out (a new Fortran-ordered array if None) and
    returned: per level one real product m.T @ (a contiguous row block of
    the real view of c)."""
    if out is None:
        out = np.empty_like(c, order="F")
    x, y = _real_view(c), _real_view(out)
    for sl, m in zip(basis.level_slices, mats):
        np.matmul(m.T, x[sl], out=y[sl])
    return out


def _sparse_right(c: np.ndarray, M: sp.csr_matrix) -> np.ndarray:
    """Apply the real operator M to every mode row of c: rows become
    (M @ row).  M acts on the real view of c, so its data is never upcast
    to complex."""
    return (M @ _real_view(c)).view(np.complex128).T


def _add_transport(
    basis, eta: np.ndarray, c: np.ndarray, out: np.ndarray, scale: complex
) -> np.ndarray:
    """out += scale * sum_j eta_j * (v_j on the slice) for the rows of c,
    the modes whose coordinates are the rows of eta; returns out.  Every
    axis's term is scaled in place and added into out."""
    for j in range(eta.shape[1]):
        vc = _sparse_right(c, basis.coordinate(j))
        vc *= scale * eta[:, j, None]
        out += vc
        del vc  # freed before the next axis allocates its product
    return out


def apply_transport(state: PhaseState) -> PhaseState:
    """The term v . grad_x in Fourier: i * sum_j eta_j * (v_j on the slice).

    Skew-Hermitian in the weighted pairing, so it moves no norm.
    """
    ws = state.workspace
    out = _add_transport(ws.basis, ws.eta, state.c, np.zeros_like(state.c), 1j)
    return PhaseState(state.config, out, state.time)


def _dft_angles(K: int, L: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of eta * x at the L grid points x = 2 pi j / L, for the
    modes eta = first..K (rows) and j = 0..L-1 (columns); eta * j is reduced
    mod L in integers before it is scaled."""
    theta = 2.0 * np.pi / L * (np.outer(np.arange(first, K + 1), np.arange(L)) % L)
    return np.cos(theta), np.sin(theta)


# bytes of the intermediates of the grid transforms and of the work blocks of
# _grid_product and _adjoint_blocks (_grid_product covers the desk grid, d_x = 1,
# N = 16, in two blocks): larger blocks save little time but add their size
# to RSS
_BLOCK_BYTES = 2 << 20


def _transform_rows(ws: _Workspace, P: int) -> int:
    """Rows of a block of the grid transforms of P fields: at most
    _BLOCK_BYTES of intermediates and at least one row.  Per row these are
    (K+1)(2K+1)^(d_x-2) rows of 2L split values next to the last axis and,
    at d_x = 3, 2(K+1) L^2 values next to the first one."""
    L, K = ws.grid_shape[0], ws.K
    row = (K + 1) * (2 * K + 1) ** (ws.d_x - 2) * 2 * L
    if ws.d_x == 3:
        row += 2 * (K + 1) * L * L
    return min(P, max(1, _BLOCK_BYTES // (8 * row)))


def _to_grid(ws: _Workspace, c: np.ndarray) -> np.ndarray:
    """Real grid values (P, L**d_x) of the real fields whose mode
    coefficients are the columns of c (n_modes, P); c is left unchanged.
    Only the tail modes[half_start:] (eta_1 >= 0) is read, as the float64
    view of c.T, which interleaves real and imaginary parts.  Row blocks of
    it are multiplied by the DFT matrices of `_Workspace.dft_matrices`:
    the last axis to the split layout, the middle one at d_x = 3, then the
    first axis to real values, each product written into its destination.
    At d_x = 1 this is one product on the view itself."""
    P = c.shape[1]
    if not ws.d_x:  # the one-point grid: a real field has real coefficients
        return c.real.T.copy()
    first, trailing = ws.dft_matrices[:2]
    L = ws.grid_shape[0]
    tail = np.asfortranarray(c).T[:, ws.half_start :].view(np.float64)
    grid = np.empty((P, L**ws.d_x))
    if ws.d_x == 1:
        return np.matmul(tail, first, out=grid)
    tail = tail.reshape(P, -1, len(trailing))  # the last axis's pairs per row
    rows = _transform_rows(ws, P)
    split = np.empty((rows, tail.shape[1], 2 * L))
    if ws.d_x == 3:
        middle = np.empty((rows, ws.K + 1, 2 * L, L))
    for start in range(0, P, rows):
        s = slice(start, min(start + rows, P))
        n = s.stop - s.start
        t = np.matmul(tail[s], trailing, out=split[:n])
        if ws.d_x == 3:  # per (field, eta_1): the (eta_2, re/im) rows
            t2 = middle[:n].reshape(-1, 2 * L, L)
            t = np.matmul(trailing.T, t.reshape(len(t2), -1, L), out=t2)
        np.matmul(first.T, t.reshape(n, len(first), -1), out=grid[s].reshape(n, L, -1))
    return grid


def _from_grid(ws: _Workspace, x: np.ndarray) -> np.ndarray:
    """The tail modes[half_start:] (eta_1 >= 0) of the lattice coefficients
    of real grid values x (P, L**d_x), as a Fortran-ordered (n_modes -
    half_start, P) array; modes off the lattice are dropped.  The rest of a
    real field's lattice is the conjugated mirror of this tail (`_whole`).
    Row blocks of x are multiplied by the DFT matrices of
    `_Workspace.dft_matrices`: the first axis to the half modes
    eta_1 = 0..K in the split layout, the middle one at d_x = 3, then the
    last axis to interleaved pairs written straight into the result.  x is
    left unchanged."""
    P = x.shape[0]
    if not ws.d_x:
        return x.T.astype(np.complex128)
    first, trailing = ws.dft_matrices[2:]
    L = ws.grid_shape[0]
    out = np.empty((ws.n_modes - ws.half_start, P), dtype=np.complex128, order="F")
    tail = out.T.view(np.float64)
    if ws.d_x == 1:
        np.matmul(x, first, out=tail)
    else:
        tail = tail.reshape(P, -1, trailing.shape[1])  # the last axis's pairs per row
        grid = x.reshape(P, L, -1)
        rows = _transform_rows(ws, P)
        half = np.empty((rows, first.shape[1], grid.shape[2]))
        if ws.d_x == 3:
            middle = np.empty((rows, tail.shape[1], 2 * L))
        for start in range(0, P, rows):
            s = slice(start, min(start + rows, P))
            n = s.stop - s.start
            t = np.matmul(first.T, grid[s], out=half[:n])
            if ws.d_x == 3:  # per (field, eta_1): the (re/im, x_2) rows
                t2 = middle[:n].reshape(-1, trailing.shape[1], L)
                t = np.matmul(trailing.T, t.reshape(len(t2), -1, L), out=t2)
            np.matmul(t.reshape(n, -1, 2 * L), trailing, out=tail[s])
    out[ws.centre - ws.half_start].imag = 0.0  # a real field's mean is real: drop rounding
    return out


def _whole(ws: _Workspace, tail: np.ndarray) -> np.ndarray:
    """The whole lattice (n_modes, P), Fortran-ordered, of the real fields
    whose tail modes[half_start:] `_from_grid` returned: the modes from
    eta = 0 on are copied and the rest filled by `_unfold`."""
    out = np.empty((ws.n_modes, tail.shape[1]), dtype=np.complex128, order="F")
    _unfold(tail[ws.centre - ws.half_start :].T, out.T)
    return out


def _product_blocks(M: int, n: int) -> int:
    """Blocks of `_grid_product` for M Hermite rows and n grid points:
    round(n / cap), cap the width whose work array is _BLOCK_BYTES, so no
    block is narrower than cap / 2 and the work array stays within
    1.5 _BLOCK_BYTES."""
    return max(1, round(n / max(1, _BLOCK_BYTES // (88 * M))))


def _product_work(M: int, n: int) -> np.ndarray:
    """An uninitialised work array of `_grid_product` for M Hermite rows and
    n grid points."""
    return np.empty(11 * M * -(-n // _product_blocks(M, n)))


def _grid_product(
    ops: LandauOperators, ax: np.ndarray, bx: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """sum_m A_m (ax[m] * bx) for ops.moment_stack = [A_0 | ... | A_9] real
    (M, 10 M) and real grid values ax (10, n), bx (M, n); overwrites and
    returns bx.  Works on `_product_blocks` near-equal blocks of grid
    points: each block of bx is copied once into contiguous work memory
    (`_product_work`, a new one if work is None), and A_m's factor is
    formed only on the rows :ops.moment_widths[m] that A_m reads; the rows
    past it hold whatever the work array held and the sparse product never
    reads them."""
    M, n = bx.shape
    blocks = _product_blocks(M, n)
    if work is None:
        work = _product_work(M, n)
    for k in range(blocks):
        s = slice(n * k // blocks, n * (k + 1) // blocks)
        w = s.stop - s.start
        b = work[: M * w].reshape(M, w)
        b[...] = bx[:, s]
        prod = work[M * w : 11 * M * w].reshape(10, M, w)
        for m, rows in enumerate(ops.moment_widths):
            np.multiply(ax[m, s], b[:rows], out=prod[m, :rows])
        bx[:, s] = ops.moment_stack @ prod.reshape(10 * M, w)
    return bx


def _bilinear(ws: _Workspace, mom: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_m G_m (mom[:, m] * g), * the mode convolution truncated to the
    lattice: the bilinear term with its first argument given by its ten
    moment fields mom (n_modes, 10).  Both arguments are real fields, and so
    is the result, returned as its tail modes[half_start:] (`_from_grid`;
    `_whole` completes it).

    Both factors are multiplied on a grid of L = 3K+1 points per axis; the
    product's modes in [-2K, 2K] do not alias onto the lattice [-K, K]
    there, so the truncated convolution is exact (Orszag's 3/2 rule).
    """
    product = _grid_product(ws.ops, _to_grid(ws, mom), _to_grid(ws, g))
    return _from_grid(ws, product)


def _adjoint_width(M: int, n: int) -> int:
    """Grid points per block of `_adjoint_blocks` for M Hermite rows and n
    points: a (10 M, width) product block of at most _BLOCK_BYTES, and at
    least one point."""
    return min(n, max(1, _BLOCK_BYTES // (80 * M)))


def _adjoint_blocks(stack_t: sp.csc_matrix, hx: np.ndarray):
    """Y = stack_t @ hx for the transpose stack_t (10 M, M) of the real stack
    [A_0 | ... | A_9] (M, 10 M) and real grid values hx (M, n), viewed as
    (10, M, width) so Y[m] = A_m^T hx, block by block: yields
    (s, Y[:, :, s]) for blocks s of `_adjoint_width` grid points, each
    computed when it is read."""
    M, n = hx.shape
    width = _adjoint_width(M, n)
    for start in range(0, n, width):
        s = slice(start, min(start + width, n))
        yield s, (stack_t @ hx[:, s]).reshape(10, M, -1)


def _grid_adjoint(blocks, bx: np.ndarray, subscripts: str, out: np.ndarray) -> np.ndarray:
    """Contract each block (s, y) of `_adjoint_blocks` with the real grid
    values bx[:, s] by the einsum `subscripts` into out[:, s]; returns out.

    These are the two adjoints of the kernel on the grid of Y from a real
    field h, since a real grid scalar commutes with each G_m.  With the
    grid of the moment fields mom, "mx,max->ax" gives the grid of
    U = sum_m mom_m (G_m^T h), and sum(conj(h) * B) == vdot(U, g) for
    B = _whole(ws, _bilinear(ws, mom, g)) and every real field g.  With
    the grid of g, "ax,max->mx" gives the grid of the real moment fields
    W_m = sum_alpha g (G_m^T h), and the same pairing is vdot(W, mom)."""
    for s, y in blocks:
        np.einsum(subscripts, bx[:, s], y, out=out[:, s])
    return out


def gamma_conv(f_state: PhaseState, g_state: PhaseState) -> PhaseState:
    """Bilinear collision term lifted to x-dependence: per output mode the
    sum over mode pairs of the velocity-space bilinear term, with the
    f-dependence entering only through per-mode moments.

    Out-of-lattice terms are dropped; `_bilinear` evaluates it on a real
    grid of 3K+1 points per axis, in O(n_modes M) memory.  Both states
    must be real fields (`_require_real_field`), the kernel's domain.
    """
    if f_state.config is not g_state.config and f_state.config != g_state.config:
        raise ValueError("states must share a config")
    for name, state in (("f", f_state), ("g", g_state)):
        _require_real_field(state, name, h_r_norm(state))
    ws = f_state.workspace
    out = _whole(ws, _bilinear(ws, f_state.c[:, ws.ops.moment_slots], g_state.c))
    return PhaseState(f_state.config, out, g_state.time)


def step_imex(
    state: PhaseState,
    dt: float,
    gamma_on: bool = True,
    frozen_moment_fields: np.ndarray | None = None,
) -> PhaseState:
    """One IMEX Euler step: transport and the bilinear term explicit, L
    implicit through per-level dense solves shared by all modes.

    The state must be a real field, as the march and `gamma_conv` require
    of theirs: the step computes transport, the bilinear term, their sum
    and the level solves only on the modes from eta = 0 on, and fills the
    rest of the new state once as their conjugated mirror (`_unfold`), so
    the result is a real field exactly.  Its temporaries are half-size.

    `frozen_moment_fields` (shape (n_modes, 10)) substitutes the moments of a
    frozen first argument in the bilinear term (Picard mode).
    """
    ws = state.workspace
    centre = ws.centre
    rhs = state.c[centre:].copy(order="F")
    # transport reads one contiguous copy of the half, freed after it:
    # scipy would copy the strided rows of state.c once per axis
    _add_transport(ws.basis, ws.eta[centre:], rhs.copy(order="F"), rhs, -1j * dt)
    if gamma_on:
        mom = frozen_moment_fields
        if mom is None:
            mom = state.c[:, ws.ops.moment_slots]
        term = _bilinear(ws, mom, state.c)[centre - ws.half_start :]
        term *= dt
        rhs += term
    out = np.empty_like(state.c, order="F")
    _level_product(ws.basis, ws.implicit_inverses(dt), rhs, out[centre:])
    _unfold(out.T[:, centre:], out.T)  # the half is in place: no copy
    return PhaseState(state.config, out, state.time + dt)


def triple_norm(state: PhaseState) -> float:
    """Dissipation seminorm: per mode
    2 sum_j (|d_j g|^2 + |v_j g|^2 / 4) + (1/2) sum_{j!=k} |L_{k,j} g|^2,
    weighted by <eta>^(2r) and summed over modes, square-rooted.  Evaluated
    as the single quadratic form Re <g, Q g> of
    `LandauOperators.dissipation_form`, assembled once per degree cap.

    For states of degree <= N-1 this satisfies
    triple_norm^2 = Re(L1 g, g) + 3 ||g||^2 per mode.
    """
    return math.sqrt(state.workspace.dissipation_sq(state.c))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def _hermitize(c: np.ndarray) -> np.ndarray:
    """Project onto the real-field symmetry c(-eta) = conj(c(eta)); returns
    a new array, built in place from the one conjugated mirror of c."""
    out = np.conjugate(c[::-1])
    out += c
    out *= 0.5
    return out


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
    c = np.zeros((ws.n_modes, ws.basis.size), dtype=np.complex128, order="F")
    if config.recipe == "zero":
        return PhaseState(config, c, 0.0)
    if config.recipe == "kernel":
        c[ws.centre] = (1.0, 0.5, 0.5, 0.5, 0.3) @ ws.ops.collision_invariants
    else:
        levels = ws.basis.levels
        # the noise: real parts drawn first, then imaginary parts, into c
        c.real = rng.standard_normal(c.shape)
        c.imag = rng.standard_normal(c.shape)
        if config.recipe == "rough":
            # algebraic coefficient decay across Hermite levels, white across
            # the spatial modes: rough in both variables
            level_fac = (1.0 + levels) ** -1.0
            mode_fac = np.ones(ws.n_modes)
        else:  # gaussian
            level_fac = np.exp(-0.5 * levels)
            mode_fac = np.exp(-0.25 * ws.eta_sq)
        c *= level_fac[None, :]
        c *= mode_fac[:, None]
        c = _hermitize(c)
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
    ValueError, and so does a datum that is not a real field
    (`_require_real_field`).  A state whose norm is not at most twice the
    datum's (NaN included) raises SolverDivergenceError.
    """
    config = g0.config
    norm0 = h_r_norm(g0)
    if not math.isfinite(norm0):
        raise ValueError(f"initial datum has non-finite weighted norm {norm0}")
    _require_real_field(g0, "initial datum", norm0)
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
    """March the IMEX scheme from the recipe (or the coefficients and time of
    a provided datum) to time T, recording the energy ledger every step and
    state snapshots at the record_every cadence.  A picard config raises
    ValueError: `picard_solve` marches that scheme."""
    if config.scheme != "imex_euler":
        raise ValueError(
            f"run marches imex_euler, not {config.scheme!r}; use picard_solve"
        )
    if initial is None:
        g0 = build_initial_state(config)
    else:
        g0 = PhaseState(config, initial.c.copy(order="F"), initial.time)
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
    # per start of the C0 search: (sweeps, relative change of its ratio in
    # the last sweep), the search's convergence (`trilinear_constant`)
    c0_search: tuple = ()

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


def _unfold(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (..., n_modes), the coefficients of real fields along its
    last axis, from half (..., n_modes - n_modes // 2), their modes from
    eta = 0 on; returns out.  The lower half is the conjugated mirror, with
    imaginary parts 0.0 - y rather than -y: a zero becomes +0.0, not -0.0.
    half may be the upper half of out itself; numpy then skips the copy."""
    centre = out.shape[-1] // 2
    out[..., centre:] = half
    mirror, lower = half[..., :0:-1], out[..., :centre]
    lower.real = mirror.real
    np.subtract(0.0, mirror.imag, out=lower.imag)
    return out


class _Trajectory(Sequence):
    """The states of a march from g0, read-only: state k is rebuilt on
    access, as a new Fortran-ordered PhaseState at time g0.time + k dt, from
    half[k], the real-field half of its c.T that `_unfold` completes."""

    def __init__(self, g0: PhaseState, half: np.ndarray):
        self._config, self._t0, self._half = g0.config, g0.time, half

    def __len__(self) -> int:
        return len(self._half)

    def __getitem__(self, k) -> PhaseState:
        k = range(len(self._half))[operator.index(k)]
        ws = _Workspace.for_config(self._config)
        c = np.empty((ws.n_modes, ws.basis.size), dtype=np.complex128, order="F")
        _unfold(self._half[k], c.T)
        return PhaseState(self._config, c, self._t0 + k * self._config.dt)


def _march_linear(g0: PhaseState, traj: np.ndarray, frozen: np.ndarray | None) -> tuple[float, float]:
    """March the linear equation with a frozen bilinear argument (the step
    leaving time step k uses the moment fields frozen[k]; None drops the
    bilinear term) from g0, whose half traj[0] holds, overwriting traj[1:]
    step by step; traj[k] (M, n_modes - n_modes // 2) holds the modes from
    eta = 0 on of step k's c.T, the half of a real field that `_unfold`
    completes.

    Returns the sup-in-time weighted distance between the new trajectory and
    the one it overwrote, and the new trajectory's sup-in-time weighted norm.
    The old step is rebuilt into one full-size work array, so the distance
    is taken on whole states.  If a step trips the divergence guard, the
    steps before it are already overwritten.
    """
    ws = g0.workspace
    old = np.empty(g0.c.T.shape, dtype=np.complex128)
    sup_distance, sup_norm = 0.0, 0.0
    for k, (state, norm) in enumerate(_march(g0, frozen is not None, frozen)):
        if k:
            _unfold(traj[k], old)
            old -= state.c.T
            sup_distance = max(sup_distance, math.sqrt(ws.norm_sq(old.T)))
            traj[k] = state.c.T[:, ws.centre :]
        sup_norm = max(sup_norm, norm)
    return sup_distance, sup_norm


def picard_solve(g0: PhaseState) -> tuple[Sequence[PhaseState], PicardReport]:
    """Linearization sequence: iterate n+1 solves the linear equation whose
    bilinear term freezes the first argument on iterate n; the seed iterate
    is the free linear flow of the datum.  The horizon T, the tolerance
    picard_tol and the iterate cap picard_max_iter come from g0's config.

    Returns the final iterate's trajectory (a read-only Sequence of the
    states at every step) and a contraction report with the sup-in-time
    distances of successive iterates.  A sequence that uses up
    picard_max_iter iterates without a distance <= picard_tol and without a
    guard firing reports reason "max_iter".  The non-contraction guard fires
    (data too large) when

    * an observed distance ratio reaches 1, or
    * the smallness condition 16 * sup_t ||iterate|| * C0 < 1 is violated,
      with C0 the workspace's measured trilinear constant (the contraction
      argument carries no warrant beyond it), or
    * an iterate trips the norm-doubling divergence guard.

    The smallness test is independent of the resolution only above the
    algebra threshold r > d_x/2.  At or below it C0 grows with K, so a finer
    lattice can fail the test on the same datum.  On the d_x=1, N=6 ladder
    K = 2, 4, 8, 16, 32, C0 at r=0.5 grows from 1.59 to 3.07, by 0.34-0.39
    per doubling, while at r=2 it rises from 1.40 to 1.656 and is flat from
    K=16.  These are the values of the 30-sweep search, which need not have
    converged (`c0_search` reports its last change).  C0 comes from a
    search over explicit triples, so it is a certified lower bound: the
    growth is proven, the saturation only evidence.  The config keeps the
    paper's rule r > 3/2, which covers d_x <= 3.

    Memory: one complex trajectory buffer of (n_steps+1) * M *
    (n_modes - n_modes // 2) coefficients, the real-field half of each
    step's c.T (the modes from eta = 0 on), which each iterate overwrites
    step by step while its distance and norm are taken; one full-size work
    array per iterate; and the frozen moment fields of two iterates,
    (n_steps+1) * n_modes * 10 each.  The returned trajectory is a read-only
    Sequence over that buffer that rebuilds state k on access, so reading
    it once holds one full state at a time.  A datum whose Hermitian defect
    is nonzero (the march allows up to 1e-12 of its norm) is marched as
    given but stored, and returned as state 0, as its real-field half.
    """
    config = g0.config
    ws = g0.workspace
    centre = ws.centre
    # zeros, not empty: the seed march's distance (discarded) reads the buffer
    traj = np.zeros(
        (config.n_steps + 1, ws.basis.size, ws.n_modes - centre), dtype=np.complex128
    )
    traj[0] = g0.c.T[:, centre:]
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
        prev_frozen = frozen  # frees the fields before it
        moments = np.empty((len(traj), 10, ws.n_modes), dtype=np.complex128)
        frozen = _unfold(traj[:, ws.ops.moment_slots], moments).transpose(0, 2, 1)
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
    report = PicardReport(distances, lambdas, it, reason, c0_hat, smallness, ws._c0_search)
    return _Trajectory(g0, traj), report


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
        fh.write(state.c.astype("<c16").tobytes())


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
        if not math.isfinite(time):
            raise ValueError(f"snapshot time must be finite, got {time}")
        if config is None:
            config = SolverConfig(N=N, K=K, d_x=d_x, r=r)
        elif (config.N, config.K, config.d_x, config.r) != (N, K, d_x, r):
            raise ValueError("snapshot header does not match the given config")
        expected = (2 * K + 1) ** d_x * math.comb(N + 3, 3) * 16
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != expected:
            raise ValueError(f"snapshot payload is {size} bytes, its header needs {expected}")
        ws = _Workspace.for_config(config)
        raw = np.frombuffer(fh.read(), dtype="<c16").reshape(ws.n_modes, ws.basis.size)
        # one copy of the read-only buffer into a writable native array
        c = np.array(raw, dtype=np.complex128, order="F")
        return PhaseState(config, c, time)
