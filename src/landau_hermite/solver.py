"""Time integration of the perturbation equation on a Fourier x Hermite grid.

The state is the double spectrum c[eta, alpha] of the perturbation g:
integer Fourier modes eta in {-K..K}^d_x for the periodic spatial variable
(d_x = 0 collapses to the homogeneous problem) and Hermite multi-indices
|alpha| <= N for velocity, stored Hermite-major (Fortran order, see
`kernel`).  The evolution

    dg/dt + v . grad_x g + L g = B(g, g)

is marched with a first-order IMEX scheme: the stiff symmetric part L goes
implicitly (it is level preserving, so the solve splits into small dense
blocks shared by all Fourier modes), transport and the bilinear term go
explicitly, the bilinear term through the real-field kernel of `kernel`.
The perturbation is a real field, c(-eta) = conj(c(eta)), so its modes from
eta = 0 on fix it: the step computes only those, the march carries each
state as that half (`PhaseState`), and the norms read the half with each
mode's mirror counted in its weight.  The whole lattice is built only where
a state's c is read: snapshots, spectra, a caller.  The march and
`gamma_conv` reject a datum that is not a real field.  A step's working set
is the kernel's real grid and blocks and half-size temporaries, the new
state among them.

A Picard mode mirrors the linearization sequence: each iterate solves the
linear equation with the bilinear term frozen on the previous iterate, and
the sup-in-time distance between successive iterates gives an empirical
contraction factor.

External formats owned by this module: the "LNSP" binary snapshot, which
stores the logical (eta, alpha) order whatever the memory layout, and the
energy-ledger CSV; the config file is `config`'s.
"""

from __future__ import annotations

import io
import math
import operator
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .config import SolverConfig, load_config, parse_config_text
from .kernel import _Workspace, _bilinear, _hermitize, _level_product, _real_view, _unfold

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


class SolverDivergenceError(RuntimeError):
    """The marched norm doubled from its initial value: the run left the
    perturbative regime."""


class PhaseState:
    """Coefficients c[mode, alpha] at one time, tied to a config.  c is
    stored in Fortran order (see the module docstring): coerced by the
    constructor and on assignment, kept by `copy`.

    A state made by the march (`step_imex`, `gamma_conv`, a Picard
    trajectory) holds only its modes from eta = 0 on, the half of a real
    field, as an (n_modes - n_modes // 2, M) Fortran-ordered array; norms
    and steps read that half.  Its `c` is built from it by `_unfold` on
    first read and kept, and from then on c is the state: every later read
    sees a caller's changes to it."""

    def __init__(self, config: SolverConfig, c: np.ndarray, time: float = 0.0):
        self.config, self.time = config, time
        self.c = c

    @classmethod
    def _of_half(cls, config: SolverConfig, half: np.ndarray, time: float) -> "PhaseState":
        """The real field whose modes from eta = 0 on are half (kept, not
        copied, unless it is not Fortran-contiguous)."""
        state = cls.__new__(cls)
        state.config, state.time = config, time
        state._c, state._half = None, np.asfortranarray(half)
        return state

    @property
    def c(self) -> np.ndarray:
        if self._c is None:
            ws = self.workspace
            c = np.empty((ws.n_modes, ws.basis.size), dtype=np.complex128, order="F")
            _unfold(self._half.T, c.T)
            self._c, self._half = c, None
        return self._c

    @c.setter
    def c(self, value: np.ndarray) -> None:
        ws = self.workspace
        value = np.asfortranarray(value, dtype=np.complex128)
        if value.shape != (ws.n_modes, ws.basis.size):
            raise ValueError(
                f"coefficients must have shape ({ws.n_modes}, {ws.basis.size})"
            )
        self._c, self._half = value, None

    @property
    def _stored(self) -> np.ndarray:
        """What the state holds: its half while it holds one, else c."""
        return self._c if self._half is None else self._half

    @property
    def workspace(self) -> _Workspace:
        return _Workspace.for_config(self.config)

    def copy(self) -> "PhaseState":
        return PhaseState(self.config, self.c.copy(order="F"), self.time)


def h_r_norm(state: PhaseState) -> float:
    """Weighted norm: sqrt(sum <eta>^(2r) |c|^2)."""
    return math.sqrt(state.workspace.norm_sq(state._stored))


def hermitian_defect(state: PhaseState) -> float:
    """How far the state is from representing a real function:
    max |c(-eta) - conj(c(eta))|.  The pairs (eta, -eta) and (-eta, eta)
    give the same float, so each pair is read once, from eta = 0 on."""
    centre = state.workspace.centre
    return float(np.max(np.abs(state.c[centre::-1] - np.conj(state.c[centre:]))))


def _require_real_field(state: PhaseState, name: str, norm: float) -> None:
    """Raise ValueError unless the state, of weighted norm `norm`, is a real
    field: the bilinear kernel reads only half of the lattice, so its
    Hermitian defect may not exceed rounding, 1e-12 of its norm.  A state
    that holds its half is a real field by construction."""
    if state._half is not None:
        return
    defect = hermitian_defect(state)
    if defect > 1e-12 * norm:
        raise ValueError(
            f"{name} is not a real field: Hermitian defect {defect:.3g} "
            f"exceeds 1e-12 of its weighted norm {norm:.3g}"
        )


def _half_of(state: PhaseState) -> np.ndarray:
    """The modes from eta = 0 on of a real field, Fortran-contiguous: the
    half the state holds, or a copy of the upper half of its c."""
    if state._half is not None:
        return state._half
    return state.c[state.workspace.centre :].copy(order="F")


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
    mom = f_state._stored[:, ws.ops.moment_slots]
    out = _bilinear(ws, mom, g_state._stored)
    return PhaseState._of_half(f_state.config, out, g_state.time)


def step_imex(
    state: PhaseState,
    dt: float,
    gamma_on: bool = True,
    frozen_moment_fields: np.ndarray | None = None,
) -> PhaseState:
    """One IMEX Euler step: transport and the bilinear term explicit, L
    implicit through per-level dense solves shared by all modes.

    The state must be a real field, as the march and `gamma_conv` require
    of theirs: the step reads its modes from eta = 0 on and computes
    transport, the bilinear term, their sum and the level solves only on
    those, and returns a state that holds the new half (`PhaseState`), a
    real field exactly.  Its temporaries are half-size.

    `frozen_moment_fields` (shape (n_modes, 10), or its modes from eta = 0
    on) substitutes the moments of a frozen first argument in the bilinear
    term (Picard mode).
    """
    ws = state.workspace
    half = _half_of(state)
    rhs = half.copy(order="F")
    _add_transport(ws.basis, ws.eta[ws.centre :], half, rhs, -1j * dt)
    del half  # if copied out of a whole lattice, freed before the kernel runs
    if gamma_on:
        g = state._stored  # the kernel reads a whole lattice in place
        mom = frozen_moment_fields
        if mom is None:
            mom = g[:, ws.ops.moment_slots]
        term = _bilinear(ws, mom, g)
        term *= dt
        rhs += term
    out = _level_product(ws.basis, ws.implicit_inverses(dt), rhs)
    return PhaseState._of_half(state.config, out, state.time + dt)


def triple_norm(state: PhaseState) -> float:
    """Dissipation seminorm: per mode
    2 sum_j (|d_j g|^2 + |v_j g|^2 / 4) + (1/2) sum_{j!=k} |L_{k,j} g|^2,
    weighted by <eta>^(2r) and summed over modes, square-rooted.  Evaluated
    as the single quadratic form Re <g, Q g> of
    `LandauOperators.dissipation_form`, assembled once per degree cap.

    For states of degree <= N-1 this satisfies
    triple_norm^2 = Re(L1 g, g) + 3 ||g||^2 per mode.
    """
    return math.sqrt(state.workspace.dissipation_sq(state._stored))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


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



class _Trajectory(Sequence):
    """The states of a march from g0, read-only: state k is made on access
    as a PhaseState at time g0.time + k dt that holds half[k].T, the
    real-field half of its c (a view: `PhaseState` builds c from it on
    first read)."""

    def __init__(self, g0: PhaseState, half: np.ndarray):
        self._config, self._t0, self._half = g0.config, g0.time, half

    def __len__(self) -> int:
        return len(self._half)

    def __getitem__(self, k) -> PhaseState:
        k = range(len(self._half))[operator.index(k)]
        return PhaseState._of_half(self._config, self._half[k].T, self._t0 + k * self._config.dt)


def _march_linear(g0: PhaseState, traj: np.ndarray, frozen: np.ndarray | None) -> tuple[float, float]:
    """March the linear equation with a frozen bilinear argument (the step
    leaving time step k uses the moment fields frozen[k]; None drops the
    bilinear term) from g0, whose half traj[0] holds, overwriting traj[1:]
    step by step; traj[k] (M, n_modes - n_modes // 2) holds the modes from
    eta = 0 on of step k's c.T, the half of a real field that `_unfold`
    completes.

    Returns the sup-in-time weighted distance between the new trajectory and
    the one it overwrote, and the new trajectory's sup-in-time weighted norm.
    Each distance is taken on the halves, in place in traj[k], before the
    new half is copied there.  If a step trips the divergence guard, the
    steps before it are already overwritten.
    """
    ws = g0.workspace
    sup_distance, sup_norm = 0.0, 0.0
    for k, (state, norm) in enumerate(_march(g0, frozen is not None, frozen)):
        if k:
            new = _half_of(state).T
            traj[k] -= new
            sup_distance = max(sup_distance, math.sqrt(ws.norm_sq(traj[k].T)))
            traj[k] = new
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
    lattice can fail the test on the same datum.  C0 is a certified lower
    bound from a search that need not have converged (`c0_search` reports
    its last change).  The config keeps the paper's rule r > 3/2, which
    covers d_x <= 3.

    Memory: one complex trajectory buffer of (n_steps+1) * M *
    (n_modes - n_modes // 2) coefficients, the real-field half of each
    step's c.T (the modes from eta = 0 on), which each iterate overwrites
    step by step while its distance and norm are taken; and the frozen
    moment fields of two iterates, their modes from eta = 0 on,
    (n_steps+1) * (n_modes - n_modes // 2) * 10 each.  The returned
    trajectory is a read-only Sequence over that buffer whose state k holds
    its half and builds its whole c only when read.  A datum whose
    Hermitian defect is nonzero (the march allows up to 1e-12 of its norm)
    is marched as given but stored, and returned as state 0, as its
    real-field half.
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
        frozen = traj[:, ws.ops.moment_slots].transpose(0, 2, 1)
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

