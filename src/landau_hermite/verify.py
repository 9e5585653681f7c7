"""Named verification suites aggregating the module invariants.

Each check yields a record {suite, check, status, worst_value, tolerance};
a suite passes when every check does.  Every check hands its residuals to
`_record`, the one place they are reduced and judged: the worst value is
their max, and a check passes iff it is finite and at most the tolerance.
The floors `blocks_psd` (least block eigenvalue) and
`time_integral_lower_alpha1`/`_alpha2` (least sampled ratio) take the min
instead and pass iff it is finite and at least the tolerance.  The reduction
propagates NaN, so a NaN residual anywhere fails its check.  Suites: ladder,
linear_op, gamma_oracle, weights, kolmogorov, plus "all", which runs them in
that order.
"""

from __future__ import annotations

import math

import numpy as np

from . import hermite_core as hc
from . import landau_ops as lo
from . import weights as wt
from . import kolmogorov as kg

__all__ = ["SUITES", "run_suite"]


def _record(suite, check, values, tol, at_least=False):
    """The one reduction and status rule.  values (a number, list or array of
    residuals) reduce to worst = max(values), min for a floor (at_least=True),
    NaN if any value is NaN; pass iff worst is finite and worst <= tol
    (worst >= tol for a floor)."""
    worst = float(np.min(values) if at_least else np.max(values))
    tol = float(tol)
    within = worst >= tol if at_least else worst <= tol
    return {
        "suite": suite,
        "check": check,
        "status": "pass" if math.isfinite(worst) and within else "fail",
        "worst_value": worst,
        "tolerance": tol,
    }


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def _draws(N, rng, n, per_draw):
    """n draws of per_draw random spectra (levels <= N - 2), in draw order,
    each stacked as the columns of one (M, n) block; all n * per_draw
    spectra come from one block of `random_spectrum`'s rule."""
    rows = hc._random_rows(N, rng, n * per_draw, max_level=N - 2)
    rows = rows.reshape(n, per_draw, -1)
    return [np.ascontiguousarray(rows[:, p].T) for p in range(per_draw)]


def _rows(X):
    """The columns of a block as contiguous rows, so that each draw's inner
    products and norms see the same memory layout as a lone spectrum."""
    return np.ascontiguousarray(X.T)


def _pairings(X, Y):
    """Per draw n, the inner product (X[n], Y[n]) of two blocks of rows."""
    return [complex(np.vdot(y, x)) for x, y in zip(X, Y)]


def _ladder_residuals():
    """Per-draw residuals of the four ladder checks, each (draws, 3): the
    100 pairs (s, s2) at N = 12 are the columns of two blocks, and each
    basis matrix is applied once to a block (the derivatives once per
    rotation that reads them, so that few blocks are alive at a time)."""
    N = 12
    b = hc.get_basis(N)
    S, S2 = _draws(N, np.random.default_rng(100), 100, 2)
    s, s2 = _rows(S), _rows(S2)
    comm, adj, skew, ident = [], [], [], []
    for ax in range(3):
        R, Lw = b.raising(ax), b.lowering(ax)
        RS = R @ S
        comm.append(np.max(np.abs(Lw @ RS - R @ (Lw @ S) - S), axis=0))
        up = _pairings(_rows(RS), s2)
        del RS
        down = _pairings(s, _rows(Lw @ S2))
        adj.append([abs(u - d) for u, d in zip(up, down)])
    for k, j in ((0, 1), (1, 2), (2, 0)):
        A = b.rotation(k, j)
        AS = A @ S
        ladder = (b.coordinate(j) @ (b.derivative(k) @ S)
                  - b.coordinate(k) @ (b.derivative(j) @ S))
        ident.append(np.max(np.abs(AS - ladder), axis=0))
        del ladder
        there = _pairings(_rows(AS), s2)
        del AS
        back = _pairings(s, _rows(A @ S2))
        skew.append([abs(t + u) for t, u in zip(there, back)])
    return {name: np.array(v).T for name, v in
            (("commutation", comm), ("adjointness", adj), ("rotation_skew", skew),
             ("rotation_ladder_identity", ident))}


def _ladder_checks():
    for name, residuals in _ladder_residuals().items():
        yield _record("ladder", name, residuals, 1e-12)


# ---------------------------------------------------------------------------
# linear operator
# ---------------------------------------------------------------------------


def _coercivity_residuals():
    """Per-draw residuals |(L1 g, g) - (|||g|||_v^2 - 3 |g|^2)| of the 100
    spectra g at N = 10, the columns of one block to which each basis matrix
    is applied once; each draw's sum adds its terms in the same order."""
    N = 10
    b = hc.get_basis(N)
    (G,) = _draws(N, np.random.default_rng(101), 100, 1)
    g = _rows(G)
    lhs = [z.real for z in _pairings(_rows(lo.get_operators(N).L1 @ G), g)]
    terms = []  # (weight, matrix) in the order each draw's sum adds them
    for ax in range(3):
        terms += [(2.0, b.derivative(ax)), (0.5, b.coordinate(ax))]
    terms += [(0.5, b.rotation(k, j)) for k in range(3) for j in range(3) if k != j]
    total = [0.0] * len(g)
    for weight, op in terms:
        for n, row in enumerate(_rows(op @ G)):
            total[n] += weight * float(np.linalg.norm(row)) ** 2
    return np.array([abs(lhs[n] - (total[n] - 3.0 * float(np.linalg.norm(g[n])) ** 2))
                     for n in range(len(g))])


def _linear_op_checks():
    N = 10
    invariants = lo.get_operators(N).collision_invariants
    kernel = [lo.apply_L(hc.HermiteSpectrum(N, row)).norm() for row in invariants]
    yield _record("linear_op", "collision_invariant_kernel", kernel, 1e-12)

    blocks = lo.level_blocks_L(N)
    sym = [np.max(np.abs(b - b.T)) for b in blocks]
    spectra = [np.linalg.eigvalsh(b) for b in blocks]
    yield _record("linear_op", "blocks_symmetric", sym, 1e-12)
    yield _record("linear_op", "blocks_psd", [e.min() for e in spectra], -1e-10, at_least=True)
    closed = []
    for k, got in enumerate(spectra):
        want = lo.closed_form_level_spectrum(k)
        closed.append(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
    yield _record("linear_op", "L_spectrum_closed_form", closed, 1e-12)

    s = hc.unit_spectrum(N, (1, 1, 0))
    eig_res = np.abs(lo.apply_L(s).coeffs - 12.0 * s.coeffs)
    yield _record("linear_op", "level2_eigenvalue_12", eig_res, 1e-10)

    yield _record("linear_op", "coercivity_identity", _coercivity_residuals(), 1e-10)


# ---------------------------------------------------------------------------
# bilinear term and its oracle
# ---------------------------------------------------------------------------


def _gamma_checks():
    N = 10
    rng = np.random.default_rng(102)
    de, da = [], []
    for _ in range(25):
        f = hc.random_spectrum(N, rng)
        g = hc.random_spectrum(N, rng, max_level=N - 2)
        h = hc.random_spectrum(N, rng, max_level=N - 2)
        d = lo.gamma_weak_D(f, g, h)
        e = lo.gamma_weak_E(f, g, h)
        a = hc.inner_product(lo.gamma_apply(f, g), h)
        de.append(abs(d - e))
        da.append(abs(d - a))
    yield _record("gamma_oracle", "weak_forms_agree", de, 1e-12)
    yield _record("gamma_oracle", "strong_form_agrees", da, 1e-12)

    phi0 = hc.unit_spectrum(N, (0, 0, 0))
    ground = []
    for _ in range(5):
        g = hc.random_spectrum(N, rng)
        ground.append(np.max(np.abs((lo.gamma_apply(phi0, g) + lo.apply_L1(g)).coeffs)))
        ground.append(np.max(np.abs((lo.gamma_apply(g, phi0) + lo.apply_L2(g)).coeffs)))
    yield _record("gamma_oracle", "ground_state_identities", ground, 1e-12)

    cons = []
    invariants = lo.get_operators(N).collision_invariants
    for _ in range(10):
        g = hc.random_spectrum(N, rng, max_level=N - 2)
        cons.append(np.abs(invariants @ lo.gamma_apply(g, g).coeffs))
    yield _record("gamma_oracle", "conservation_moments", cons, 1e-10)

    Nq = 5
    rng_q = np.random.default_rng(103)
    rel = []
    basis = hc.get_basis(Nq)
    for _ in range(5):
        sel = basis.levels <= 3
        fq = hc.zero_spectrum(Nq)
        gq = hc.zero_spectrum(Nq)
        fq.coeffs[sel] = rng_q.standard_normal(int(sel.sum()))
        gq.coeffs[sel] = rng_q.standard_normal(int(sel.sum()))
        fq.coeffs /= fq.norm()
        gq.coeffs /= gq.norm()
        oracle = lo.gamma_quadrature_oracle(fq, gq)
        direct = lo.gamma_apply(fq, gq)
        scale = max(float(np.max(np.abs(direct.coeffs))), 1e-30)
        rel.append(float(np.max(np.abs(oracle.coeffs - direct.coeffs))) / scale)
    yield _record("gamma_oracle", "quadrature_oracle_match", rel, 1e-8)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def _weights_checks():
    rng = np.random.default_rng(104)
    c0 = 1.0 / 32.0
    tr = []
    for _ in range(10):
        eta = rng.standard_normal(3) * 2
        xi = rng.standard_normal(3) * 2
        t = rng.uniform(0.2, 0.9)
        tr.append(wt.transport_identity_residual(t, eta, xi, c0))
    yield _record("weights", "transport_identity", tr, 1e-6)

    p = wt.WeightParams(c0=c0, delta=0.5, delta_prime=0.25, r=2.0, t=0.7)
    deriv = []
    for _ in range(10):
        eta = rng.standard_normal(3)
        xi = rng.standard_normal(3)
        direction = rng.standard_normal(7)
        deriv.append(wt.weight_derivative_identity_residual(p, eta, xi, direction))
    yield _record("weights", "weight_derivative_identity", deriv, 1e-6)

    ratio = wt.psi_derivative_bounds(
        p, rng.standard_normal((30, 3)) * 3, rng.standard_normal((30, 3)) * 3
    )
    yield _record("weights", "psi_first_derivative_bound", ratio, 1.0)

    yield _record("weights", "time_integral_lower_alpha1", wt.time_integral_lower_ratio(1.0), 1 / 16, at_least=True)
    yield _record("weights", "time_integral_lower_alpha2", wt.time_integral_lower_ratio(2.0), 1 / 32, at_least=True)
    yield _record("weights", "time_integral_upper_alpha1_finite", wt.time_integral_upper_ratio(1.0), math.sqrt(2.0))
    yield _record("weights", "time_integral_upper_alpha2_finite", wt.time_integral_upper_ratio(2.0), 2.0)
    yield _record("weights", "submultiplicativity_factor3", wt.submultiplicativity_check(0.37, seed=9), 0.0)
    yield _record("weights", "weight_triangle_finite", wt.weight_triangle_check(p, seed=10), math.inf)

    split = []
    for _ in range(20):
        eta = rng.standard_normal(3) * 3
        xi = rng.standard_normal(3) * 3
        f0, g, brk = wt.weight_F_split(p, eta, xi)
        ref = wt.weight_F(p, eta, xi)
        split.append(abs(f0 * g * brk - ref) / abs(ref))
    yield _record("weights", "factor_split_identity", split, 1e-12)


# ---------------------------------------------------------------------------
# kinetic-transport oracle
# ---------------------------------------------------------------------------


def _kolmogorov_checks():
    s = kg.gaussian_state(dims=1, eta_max=4, xi_max=12.0, xi_points=97)
    t = 0.5
    out = kg.exact_propagate(s, t)
    center = s.eta_max
    xi = s.xi_axis
    heat = np.exp(-t * xi**2) * s.values[center]
    heat_err = np.abs(out.values[center] - heat)
    yield _record("kolmogorov", "heat_reduction_exact", heat_err, 1e-14)

    fine = kg.gaussian_state(dims=1, eta_max=4, xi_max=12.0, xi_points=769)
    exact = kg.exact_propagate(fine, t)
    errs = np.array([
        np.linalg.norm(kg.imex_reference_march(fine, t, dt).values - exact.values)
        for dt in (1 / 8, 1 / 16, 1 / 32)
    ])
    # first order: each halving of dt halves the error, every ratio in 2 +- 0.4
    dev = np.abs(errs[:-1] / errs[1:] - 2.0)
    yield _record("kolmogorov", "first_order_convergence", dev, 0.4)

    c = (1.0 / 32.0) / 2.0
    ladder = kg.exact_propagate_times(s, [float(tt) for tt in np.linspace(0.1, 1.0, 7)])
    vals = np.array([kg.smoothing_norm(state, c) for state in ladder])
    # relative growth between successive times, 0 where the norm falls; a
    # non-finite norm makes its differences inf or NaN
    growth = np.maximum(np.diff(vals) / vals[:-1], 0.0)
    yield _record("kolmogorov", "smoothing_norm_finite_decreasing", growth, 1e-10)

    gain = [out.slice_mass(mode) - s.slice_mass(mode) for mode in s.eta_modes()]
    yield _record("kolmogorov", "slice_mass_nonincreasing", np.maximum(gain, 0.0), 1e-14)


SUITES = {
    "ladder": _ladder_checks,
    "linear_op": _linear_op_checks,
    "gamma_oracle": _gamma_checks,
    "weights": _weights_checks,
    "kolmogorov": _kolmogorov_checks,
}


def run_suite(name: str) -> list[dict]:
    """Run one named suite, or all of them, returning the check records."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {list(SUITES)} or 'all'")
    return [record for n in names for record in SUITES[n]()]
