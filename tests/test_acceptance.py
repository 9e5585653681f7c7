"""Acceptance gate: the eleven exit criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Every tolerance is fixed here; nothing is calibrated at run time.
"""

import math
import time

import numpy as np

from landau_hermite import hermite_core as hc
from landau_hermite import landau_ops as lo
from landau_hermite import weights as wt
from landau_hermite import kolmogorov as kg
from landau_hermite import solver as sv
from landau_hermite import diagnostics as dg


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {tag}  {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


# the shared nonlinear reference run (criteria 9 and 11) is the
# session-scoped `nonlinear_run` fixture in conftest.py


def test_criterion_1_ladder_algebra():
    start = time.monotonic()
    N = 12
    rng = np.random.default_rng(200)
    res = {"commutation": [], "adjoint": [], "skew": [], "ladder_identity": []}
    for _ in range(100):
        s = hc.random_spectrum(N, rng, max_level=N - 2)
        s2 = hc.random_spectrum(N, rng, max_level=N - 2)
        for j in (1, 2, 3):
            comm = (
                hc.lower_op(j, hc.raise_op(j, s)) - hc.raise_op(j, hc.lower_op(j, s))
            ).coeffs - s.coeffs
            res["commutation"].append(np.max(np.abs(comm)))
            adj = hc.inner_product(hc.raise_op(j, s), s2) - hc.inner_product(
                s, hc.lower_op(j, s2)
            )
            res["adjoint"].append(abs(adj))
        for k, j in ((1, 2), (2, 3), (3, 1)):
            skew = hc.inner_product(hc.angular(k, j, s), s2) + hc.inner_product(
                s, hc.angular(k, j, s2)
            )
            res["skew"].append(abs(skew))
            ident = (
                hc.angular(k, j, s).coeffs
                - (
                    hc.multiply_v(j, hc.differentiate_v(k, s))
                    - hc.multiply_v(k, hc.differentiate_v(j, s))
                ).coeffs
            )
            res["ladder_identity"].append(np.max(np.abs(ident)))
    elapsed = time.monotonic() - start
    # np.max propagates NaN, so a NaN residual fails the criterion
    worst = {name: np.max(v) for name, v in res.items()}
    ok = all(v <= 1e-12 for v in worst.values()) and elapsed < 10.0
    _report(
        1,
        "ladder algebra suite (commutation / adjointness / skew / identity, N=12)",
        ok,
        f"worst={np.max(list(worst.values())):.2e} tol=1e-12 runtime={elapsed:.1f}s<10s",
    )


def test_criterion_2_linear_operator():
    N = 10
    rng = np.random.default_rng(201)
    invariants = [hc.unit_spectrum(N, (0, 0, 0))]
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        invariants.append(hc.unit_spectrum(N, e))
    invariants.append(
        hc.unit_spectrum(N, (2, 0, 0))
        + hc.unit_spectrum(N, (0, 2, 0))
        + hc.unit_spectrum(N, (0, 0, 2))
    )
    kernel = np.max([lo.apply_L(s).norm() for s in invariants])
    blocks = lo.level_blocks_L(N)
    sym = np.max([np.max(np.abs(b - b.T)) for b in blocks])
    min_eig = np.min([np.linalg.eigvalsh(b).min() for b in blocks])
    s = hc.unit_spectrum(N, (1, 1, 0))
    eig12 = float(np.max(np.abs(lo.apply_L(s).coeffs - 12.0 * s.coeffs)))
    coer = []
    for _ in range(100):
        g = hc.random_spectrum(N, rng, max_level=N - 2)
        lhs = hc.inner_product(lo.apply_L1(g), g).real
        total = 0.0
        for j in (1, 2, 3):
            total += 2.0 * hc.differentiate_v(j, g).norm() ** 2
            total += 0.5 * hc.multiply_v(j, g).norm() ** 2
        for k in (1, 2, 3):
            for j in (1, 2, 3):
                if k != j:
                    total += 0.5 * hc.angular(k, j, g).norm() ** 2
        coer.append(abs(lhs - (total - 3.0 * g.norm() ** 2)))
    coer = np.max(coer)
    ok = kernel <= 1e-12 and sym <= 1e-12 and min_eig >= -1e-10 and eig12 <= 1e-10 and coer <= 1e-10
    _report(
        2,
        "linear operator suite (kernel / blocks / eigenvalue 12 / coercivity)",
        ok,
        f"kernel={kernel:.2e} sym={sym:.2e} min_eig={min_eig:.2e} eig12={eig12:.2e} coercivity={coer:.2e}",
    )


def test_criterion_3_gamma_representations():
    N = 10
    rng = np.random.default_rng(202)
    worst = []
    for _ in range(100):
        f = hc.random_spectrum(N, rng)
        g = hc.random_spectrum(N, rng, max_level=N - 2)
        h = hc.random_spectrum(N, rng, max_level=N - 2)
        d = lo.gamma_weak_D(f, g, h)
        e = lo.gamma_weak_E(f, g, h)
        a = hc.inner_product(lo.gamma_apply(f, g), h)
        worst += [abs(d - e), abs(d - a)]
    phi0 = hc.unit_spectrum(N, (0, 0, 0))
    ident = []
    for _ in range(10):
        g = hc.random_spectrum(N, rng)
        ident.append(np.max(np.abs((lo.gamma_apply(phi0, g) + lo.apply_L1(g)).coeffs)))
        ident.append(np.max(np.abs((lo.gamma_apply(g, phi0) + lo.apply_L2(g)).coeffs)))
    worst, ident = np.max(worst), np.max(ident)
    ok = worst <= 1e-12 and ident <= 1e-12
    _report(
        3,
        "bilinear-term representation equivalence (D = E = strong form)",
        ok,
        f"worst={worst:.2e} ground_state={ident:.2e} tol=1e-12",
    )


def test_criterion_4_quadrature_oracle():
    start = time.monotonic()
    N = 5
    rng = np.random.default_rng(203)
    basis = hc.get_basis(N)
    sel = basis.levels <= 3
    worst = []
    for _ in range(20):
        f = hc.zero_spectrum(N)
        g = hc.zero_spectrum(N)
        f.coeffs[sel] = rng.standard_normal(int(sel.sum())) + 1j * rng.standard_normal(
            int(sel.sum())
        )
        g.coeffs[sel] = rng.standard_normal(int(sel.sum())) + 1j * rng.standard_normal(
            int(sel.sum())
        )
        f.coeffs /= f.norm()
        g.coeffs /= g.norm()
        oracle = lo.gamma_quadrature_oracle(f, g)
        direct = lo.gamma_apply(f, g)
        scale = max(float(np.max(np.abs(direct.coeffs))), 1e-30)
        worst.append(float(np.max(np.abs(oracle.coeffs - direct.coeffs))) / scale)
    elapsed = time.monotonic() - start
    worst = np.max(worst)
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(
        4,
        "quadrature oracle vs strong form (20 random degree<=3 pairs)",
        ok,
        f"worst_rel={worst:.2e} tol=1e-8 runtime={elapsed:.1f}s<60s",
    )


def test_criterion_5_conservation():
    N = 10
    rng = np.random.default_rng(204)
    slots = lo.get_operators(N).moment_slots

    def moments(spec):
        m = spec.coeffs[slots]
        return np.array([m[0], m[1], m[2], m[3], m[4:7].sum()])

    worst = []
    for _ in range(50):
        g = hc.random_spectrum(N, rng, max_level=N - 2)
        worst.append(np.max(np.abs(moments(lo.gamma_apply(g, g)))))
        f = hc.random_spectrum(N, rng, max_level=N - 2)
        sym = lo.gamma_apply(f, g) + lo.gamma_apply(g, f)
        worst.append(np.max(np.abs(moments(sym))))
    worst = np.max(worst)
    ok = worst <= 1e-10
    _report(
        5,
        "mass/momentum/energy moments of the bilinear term vanish",
        ok,
        f"worst={worst:.2e} tol=1e-10",
    )


def test_criterion_6_time_integral_comparison():
    start = time.monotonic()
    low1 = wt.time_integral_lower_ratio(1.0)
    low2 = wt.time_integral_lower_ratio(2.0)
    up1 = wt.time_integral_upper_ratio(1.0)
    up2 = wt.time_integral_upper_ratio(2.0)
    elapsed = time.monotonic() - start
    ok = (
        low1 >= 1.0 / 16.0
        and low2 >= 1.0 / 32.0
        and math.isfinite(up1)
        and math.isfinite(up2)
        and elapsed < 30.0
    )
    _report(
        6,
        "two-sided time-integral comparison (brute-force grid)",
        ok,
        f"min1={low1:.4f}>=1/16 min2={low2:.4f}>=1/32 "
        f"C1={up1:.3f} C2={up2:.3f} runtime={elapsed:.1f}s<30s",
    )


def test_criterion_7_kolmogorov():
    s = kg.gaussian_state(dims=1, eta_max=4, xi_max=12.0, xi_points=97)
    t = 0.5
    out = kg.exact_propagate(s, t)
    center = s.eta_max
    heat = np.exp(-t * s.xi_axis**2) * s.values[center]
    heat_err = float(np.max(np.abs(out.values[center] - heat)))

    fine = kg.gaussian_state(dims=1, eta_max=4, xi_max=12.0, xi_points=769)
    exact = kg.exact_propagate(fine, t)
    errs = [
        float(np.linalg.norm(kg.imex_reference_march(fine, t, dt).values - exact.values))
        for dt in (1 / 8, 1 / 16, 1 / 32)
    ]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    order_ok = all(1.6 <= v <= 2.4 for v in ratios)

    c = (1.0 / 32.0) / 2.0
    prev = None
    monotone = True
    finite = True
    for tt in np.linspace(0.1, 1.0, 7):
        val = kg.smoothing_norm(kg.exact_propagate(s, float(tt)), c)
        finite = finite and math.isfinite(val)
        if prev is not None and val > prev * (1.0 + 1e-10):
            monotone = False
        prev = val
    ok = heat_err == 0.0 and order_ok and finite and monotone
    _report(
        7,
        "kinetic-transport oracle (heat reduction / first order / smoothing norm)",
        ok,
        f"heat_err={heat_err:.1e} dt-ratios={[f'{v:.2f}' for v in ratios]} "
        f"smoothing finite+decreasing at c={c:g}",
    )


def test_criterion_8_weight_identities():
    rng = np.random.default_rng(205)
    c0 = 1.0 / 32.0
    p = wt.WeightParams(c0=c0, delta=0.5, delta_prime=0.25, r=2.0, t=0.7)
    tr, deriv = [], []
    for _ in range(15):
        eta = rng.standard_normal(3) * 2
        xi = rng.standard_normal(3) * 2
        t = rng.uniform(0.2, 0.9)
        tr.append(wt.transport_identity_residual(t, eta, xi, c0))
        deriv.append(wt.weight_derivative_identity_residual(p, eta, xi, rng.standard_normal(7)))
    worst_tr, worst_43 = np.max(tr), np.max(deriv)
    sub = wt.submultiplicativity_check(0.37, seed=206)
    ok = worst_tr <= 1e-6 and worst_43 <= 1e-6 and sub <= 0.0
    _report(
        8,
        "weight identities (transport / derivative identity / factor-3 bound)",
        ok,
        f"transport={worst_tr:.2e} deriv={worst_43:.2e} tol=1e-6 "
        f"submult_violations={'none' if sub <= 0 else sub}",
    )


def test_criterion_9_nonlinear_smoothing_signature(nonlinear_run):
    cfg, result, points, elapsed = nonlinear_run
    window_v = [(p.t, p.c_v) for p in points if p.t >= 0.1 - 1e-9]
    positive = all(v is not None and v > 0 for _, v in window_v)
    dips_ok = all(
        b >= 0.9 * a for (_, a), (_, b) in zip(window_v, window_v[1:])
    )
    ratios_x = [p.c_x / p.t**2 for p in points if p.t >= 0.25 - 1e-9 and p.c_x is not None]
    factor = max(ratios_x) / min(ratios_x) if min(ratios_x) > 0 else math.inf
    ok = positive and dips_ok and factor <= 3.0 and elapsed < 600.0
    _report(
        9,
        "nonlinear smoothing signature (c_v monotone, c_x ~ t^2)",
        ok,
        f"c_v>0={positive} dips<=10%={dips_ok} c_x/t^2 factor={factor:.2f}<=3 "
        f"runtime={elapsed:.0f}s<600s",
    )


def test_criterion_10_picard_mode():
    cfg = sv.SolverConfig(
        N=16, K=8, d_x=1, dt=2.5e-3, T=0.5, r=2.0, scheme="picard",
        recipe="rough", g0_norm=1e-3, seed=2, picard_tol=1e-9,
    )
    g0 = sv.build_initial_state(cfg)
    trajectory, report = sv.picard_solve(g0)
    lam_ok = report.converged and report.contraction_factor < 1.0

    state = g0.copy()
    for _ in range(int(round(cfg.T / cfg.dt))):
        state = sv.step_imex(state, cfg.dt)
    agree = float(np.linalg.norm(trajectory[-1].c - state.c))
    agree_ok = agree <= 10.0 * cfg.picard_tol

    big = sv.PhaseState(cfg, g0.c * 100.0, 0.0)
    _, big_report = sv.picard_solve(big)
    guard_ok = big_report.non_contraction
    ok = lam_ok and agree_ok and guard_ok
    _report(
        10,
        "linearization sequence (contraction / fixed point / large-datum guard)",
        ok,
        f"lambda={report.contraction_factor:.2e}<1 picard_vs_direct={agree:.2e}"
        f"<={10 * cfg.picard_tol:.0e} guard_fired={guard_ok} "
        f"(reason={big_report.reason}, 16*eps*C0={big_report.smallness_product:.2f})",
    )


def test_criterion_11_energy_ledger(nonlinear_run):
    cfg, result, points, _ = nonlinear_run
    norms = result.ledger.h_r_norm
    bounded = max(norms) <= 2.0 * norms[0]

    repeat = sv.run(cfg)
    identical = (
        result.ledger.to_csv() == repeat.ledger.to_csv()
        and dg.write_spectra_csv(dg.series_from_snapshots(result.snapshots))
        == dg.write_spectra_csv(dg.series_from_snapshots(repeat.snapshots))
    )
    ok = bounded and identical
    _report(
        11,
        "energy ledger (norm bounded by 2x datum, byte-identical reruns)",
        ok,
        f"sup_norm/initial={max(norms)/norms[0]:.3f}<=2 deterministic={identical}",
    )
