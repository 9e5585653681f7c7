"""The real-field kernel of the march: the Fourier lattice of one
configuration, the bilinear term on it, the adjoints of that term, the
trilinear constant C0 that they bound, and the per-level products of the
velocity-side operators.

The lattice holds the integer Fourier modes eta in {-K..K}^d_x (d_x = 0
collapses to one mode) and, per mode, the Hermite coefficients |alpha| <= N.
The bilinear term touches its first argument only through ten moments;
`_bilinear` evaluates its mode convolutions pseudo-spectrally on a dealiased
grid, in O(n_modes * M) memory for M Hermite coefficients per mode.  It acts
on real fields only, c(-eta) = conj(c(eta)), given as whole lattices or as
their modes from eta = 0 on: it reads the eta_1 >= 0 half of the lattice
(at d_x >= 2 filling the eta_1 = 0 rows below eta = 0 of a half from their
conjugated mirrors), maps it to one real (M, L**d_x) grid and back by
per-axis DFT matrices, applied as BLAS products on row blocks of at most
2 MiB of intermediates, and returns the modes from eta = 0 on; `_whole` or
`_unfold` fills the rest by conjugation.  Which rows the grid transforms
read and write is this module's business: its callers see only whole
lattices and the halves from eta = 0 on.  The norms take either: a half's
modes after eta = 0 weigh twice, for their mirrors.

Layout: c is stored Hermite-major (Fortran order), so c.T is a C-contiguous
(M, n_modes) array and its float64 view (M, 2 n_modes) interleaves the real
and imaginary parts mode by mode.  Every velocity-side operator is real and
acts on the Hermite index alone, the same way on every mode, so each is one
real product on that view, with no transposed copy and no complex upcast,
and the norms are one real reduction per mode on it.  A half from eta = 0
on is stored the same way, (n_modes - n_modes // 2, M) in Fortran order.
The grid transforms read their tail of a whole lattice's view in place and
write the half they return in the same layout.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .config import SolverConfig
from .hermite_core import get_basis
from .landau_ops import LandauOperators, get_operators

class _Workspace:
    """The Fourier lattice and grid layout of one (N, K, d_x, r)
    configuration, and its weight <eta>^(2r); read-only after construction
    apart from caches filled on first use.

    The lattice is sorted lexicographically, which fixes three facts used
    throughout: eta -> -eta reverses the order (the mirror of a state c is
    c[::-1]), eta = 0 is row `centre` = n_modes // 2, and the modes with
    eta_1 >= 0 are the tail modes[half_start:], the half of a real field
    that the grid transforms read and write; the kernel's results start at
    `centre`.  Every velocity-side matrix depends
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

    @cached_property
    def half_weight(self) -> np.ndarray:
        """The weight of each mode from eta = 0 on of a real field, counting
        its mirror: 2 <eta>^(2r), and <0>^(2r) at eta = 0, its own mirror."""
        w = 2.0 * self.h_weight[self.centre :]
        w[0] = self.h_weight[self.centre]
        return w

    def _weight(self, c: np.ndarray) -> np.ndarray:
        """The weights of the rows of c: a whole lattice (n_modes rows) or
        the modes from eta = 0 on of a real field (`half_weight`)."""
        return self.h_weight if len(c) == self.n_modes else self.half_weight

    def norm_sq(self, c: np.ndarray) -> float:
        """Squared weighted norm: sum_eta <eta>^(2r) |c_eta|^2, of a whole
        lattice c or of the real field whose modes from eta = 0 on are c."""
        x = _real_view(c)
        return float(np.dot(self._weight(c), _mode_dots(x, x)))

    def dissipation_sq(self, c: np.ndarray) -> float:
        """Squared dissipation seminorm: sum_eta <eta>^(2r) Re <c_eta, Q c_eta>,
        of a whole lattice c or of the real field whose modes from eta = 0
        on are c."""
        x = _real_view(c)
        return float(np.dot(self._weight(c), _mode_dots(x, self.ops.dissipation_form @ x)))

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
        the exact ratio at an explicit real triple; thirty sweeps need not
        have converged, and `_c0_search` says how far the last one moved.

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
        w2 = np.repeat(w, 2)  # per column of a real view
        w2_half, inv_w2_half = w2[2 * centre :], np.repeat(1.0 / w, 2)[2 * centre :]
        n = math.prod(self.grid_shape)
        shared = _adjoint_width(basis.size, n) == n
        # one work array per search: a new one per product left the heap
        # to be trimmed and faulted in again while the shared Y was held
        work = _product_work(basis.size, n)
        sweeps = 30

        def ascent(half):  # metric-preconditioned direction, normalized
            out = np.empty((n_modes, half.shape[1]), dtype=np.complex128, order="F")
            _level_product(basis, ops.dissipation_metric_inverses, half, out[centre:])
            x = _real_view(out[centre:])
            x *= inv_w2_half
            _unfold(out.T[:, centre:], out.T)
            x = _real_view(out)
            x *= 1.0 / np.linalg.norm(out)
            return out

        def f_optimum(half):  # the moment fields W / w, normalized
            x = _real_view(half)
            x *= inv_w2_half
            mom = _whole(self, half)
            norm = np.linalg.norm(mom)
            return mom / norm if norm > 0 else mom

        def weighted_grid(hc):  # the grid of w h
            return _to_grid(self, (_real_view(hc) * w2).view(np.complex128).T)

        def seminorm_plus_norm(c):
            return math.sqrt(self.dissipation_sq(c)) + math.sqrt(self.norm_sq(c))

        def ratio(b, mom, gc, hc):  # at the triple whose B(mom, g) has the half b
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
                x = _real_view(b)
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


def _dft_angles(K: int, L: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of eta * x at the L grid points x = 2 pi j / L, for the
    modes eta = first..K (rows) and j = 0..L-1 (columns); eta * j is reduced
    mod L in integers before it is scaled."""
    theta = 2.0 * np.pi / L * (np.outer(np.arange(first, K + 1), np.arange(L)) % L)
    return np.cos(theta), np.sin(theta)


# bytes of the intermediates of the grid transforms and of the work blocks of
# _grid_product and _adjoint_blocks (_grid_product covers the desk grid, d_x = 1,
# N = 16, in one block of its 25 points): larger blocks save little time but
# add their size to RSS
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


def _tail_lines(ws: _Workspace, ct: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The tail modes[half_start:] (eta_1 >= 0) at d_x >= 2 of the real
    fields whose coefficients are the rows of ct, as (first line, float64
    view (P, lines, 2(2K+1))) pairs that cover its lines along the last
    axis, the (re, im) pairs of 2K+1 modes each.  ct (P, n_modes) is a whole
    lattice, read in place.  ct (P, n_modes - n_modes // 2) holds the modes
    from eta = 0 on: the lines up to the one through eta = 0 and the line
    after it are built in a new array, their modes below eta = 0 from their
    conjugated mirrors (`_conj_mirror`), and the lines after those are read
    in place.  Each piece holds at least two lines: numpy takes a one-line
    product to gemv, which rounds otherwise than gemm, and the grid of a
    half is the grid of its whole lattice to the bit."""
    P, width = len(ct), 2 * (2 * ws.K + 1)
    if ct.shape[1] == ws.n_modes:
        return [(0, ct[:, ws.half_start :].view(np.float64).reshape(P, -1, width))]
    fill = ws.centre - ws.half_start  # the tail modes below eta = 0
    lines = (ws.n_modes - ws.half_start) * 2 // width
    n_head = fill * 2 // width + 2
    if lines - n_head < 2:
        n_head = lines
    from_half = n_head * width // 2 - fill
    head = np.empty((P, fill + from_half), dtype=np.complex128)
    _conj_mirror(ct[:, 1 : fill + 1], head[:, :fill])
    head[:, fill:] = ct[:, :from_half]
    pieces = [(0, head.view(np.float64).reshape(P, -1, width))]
    if n_head < lines:
        pieces.append((n_head, ct[:, from_half:].view(np.float64).reshape(P, -1, width)))
    return pieces


def _to_grid(ws: _Workspace, c: np.ndarray) -> np.ndarray:
    """Real grid values (P, L**d_x) of the real fields whose mode
    coefficients are the columns of c: their whole lattice (n_modes, P) or
    their modes from eta = 0 on (n_modes - n_modes // 2, P); c is left
    unchanged.  Only the tail modes[half_start:] (eta_1 >= 0) is read, as
    the float64 view of c.T, which interleaves real and imaginary parts.
    Row blocks of it are multiplied by the DFT matrices of
    `_Workspace.dft_matrices`: the last axis to the split layout, line by
    line (`_tail_lines`), the middle one at d_x = 3, then the first axis to
    real values, each product written into its destination.  At d_x = 1
    the tail is the half from eta = 0 on, and this is one product on its
    view."""
    P = c.shape[1]
    if not ws.d_x:  # the one-point grid: a real field has real coefficients
        return c.real.T.copy()
    first, trailing = ws.dft_matrices[:2]
    L = ws.grid_shape[0]
    ct = np.asfortranarray(c).T
    grid = np.empty((P, L**ws.d_x))
    if ws.d_x == 1:  # half_start = centre: the tail ends either form
        tail = ct[:, ct.shape[1] - (ws.n_modes - ws.half_start) :].view(np.float64)
        return np.matmul(tail, first, out=grid)
    pieces = _tail_lines(ws, ct)
    rows = _transform_rows(ws, P)
    split = np.empty((rows, (ws.n_modes - ws.half_start) * 2 // len(trailing), 2 * L))
    if ws.d_x == 3:
        middle = np.empty((rows, ws.K + 1, 2 * L, L))
    for start in range(0, P, rows):
        s = slice(start, min(start + rows, P))
        n = s.stop - s.start
        for line, block in pieces:
            np.matmul(block[s], trailing, out=split[:n, line : line + block.shape[1]])
        t = split[:n]
        if ws.d_x == 3:  # per (field, eta_1): the (eta_2, re/im) rows
            t2 = middle[:n].reshape(-1, 2 * L, L)
            t = np.matmul(trailing.T, t.reshape(len(t2), -1, L), out=t2)
        np.matmul(first.T, t.reshape(n, len(first), -1), out=grid[s].reshape(n, L, -1))
    return grid


def _from_grid(ws: _Workspace, x: np.ndarray) -> np.ndarray:
    """The modes from eta = 0 on of the lattice coefficients of real grid
    values x (P, L**d_x), an (n_modes - n_modes // 2, P) view of a
    Fortran-ordered array; modes off the lattice are dropped.  The rest of a
    real field's lattice is the conjugated mirror of this half (`_whole`).
    The transform computes the tail modes[half_start:] (eta_1 >= 0): row
    blocks of x are multiplied by the DFT matrices of
    `_Workspace.dft_matrices`, the first axis to the half modes
    eta_1 = 0..K in the split layout, the middle one at d_x = 3, then the
    last axis to interleaved pairs written straight into the tail, from the
    row (eta_1, eta_2) = (0, 0) on at d_x = 3: the K rows before it lie
    wholly below eta = 0.  x is left unchanged."""
    P = x.shape[0]
    if not ws.d_x:
        return x.T.astype(np.complex128)
    first, trailing = ws.dft_matrices[2:]
    L, K = ws.grid_shape[0], ws.K
    skip = K if ws.d_x == 3 else 0  # last-axis rows below eta = 0
    first_mode = ws.half_start + skip * (2 * K + 1)
    out = np.empty((ws.n_modes - first_mode, P), dtype=np.complex128, order="F")
    tail = out.T.view(np.float64)
    if ws.d_x == 1:
        np.matmul(x, first, out=tail)
    else:
        tail = tail.reshape(P, -1, trailing.shape[1])  # the last axis's pairs per row
        grid = x.reshape(P, L, -1)
        rows = _transform_rows(ws, P)
        half = np.empty((rows, first.shape[1], grid.shape[2]))
        if ws.d_x == 3:
            middle = np.empty((rows, skip + tail.shape[1], 2 * L))
        for start in range(0, P, rows):
            s = slice(start, min(start + rows, P))
            n = s.stop - s.start
            t = np.matmul(first.T, grid[s], out=half[:n])
            if ws.d_x == 3:  # per (field, eta_1): the (re/im, x_2) rows
                t2 = middle[:n].reshape(-1, trailing.shape[1], L)
                t = np.matmul(trailing.T, t.reshape(len(t2), -1, L), out=t2)
            np.matmul(t.reshape(n, -1, 2 * L)[:, skip:], trailing, out=tail[s])
    out = out[ws.centre - first_mode :]
    out[0].imag = 0.0  # a real field's mean is real: drop rounding
    return out


def _whole(ws: _Workspace, half: np.ndarray) -> np.ndarray:
    """The whole lattice (n_modes, P), Fortran-ordered, of the real fields
    whose modes from eta = 0 on are half (as `_from_grid` and `_bilinear`
    return them): half is copied and the rest filled by `_unfold`."""
    out = np.empty((ws.n_modes, half.shape[1]), dtype=np.complex128, order="F")
    _unfold(half.T, out.T)
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
    moment fields mom (n_modes, 10).  Both arguments are real fields, each
    given as its whole lattice or as its modes from eta = 0 on (`_to_grid`),
    and so is the result, returned as its modes from eta = 0 on
    (`_from_grid`; `_whole` completes it).

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


def _hermitize(c: np.ndarray) -> np.ndarray:
    """Project onto the real-field symmetry c(-eta) = conj(c(eta)); returns
    a new array, built in place from the one conjugated mirror of c."""
    out = np.conjugate(c[::-1])
    out += c
    out *= 0.5
    return out


def _conj_mirror(src: np.ndarray, out: np.ndarray) -> None:
    """out = conj(src) reversed along the last axis, with imaginary parts
    0.0 - y rather than -y: a zero becomes +0.0, not -0.0."""
    mirror = src[..., ::-1]
    out.real = mirror.real
    np.subtract(0.0, mirror.imag, out=out.imag)


def _unfold(half: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (..., n_modes), the coefficients of real fields along its
    last axis, from half (..., n_modes - n_modes // 2), their modes from
    eta = 0 on; returns out.  The lower half is the conjugated mirror
    (`_conj_mirror`).  half may be the upper half of out itself; numpy then
    skips the copy."""
    centre = out.shape[-1] // 2
    out[..., centre:] = half
    _conj_mirror(half[..., 1:], out[..., :centre])
    return out
