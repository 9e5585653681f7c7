"""Phase-space march: transport, mode convolution, IMEX stepping, Picard."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_hermite import solver

from landau_hermite.hermite_core import get_basis, unit_spectrum
from landau_hermite.landau_ops import gamma_apply
from landau_hermite.solver import (
    SolverConfig,
    PhaseState,
    SolverDivergenceError,
    parse_config_text,
    build_initial_state,
    h_r_norm,
    hermitian_defect,
    triple_norm,
    apply_transport,
    gamma_conv,
    step_imex,
    run,
    picard_solve,
)


def small_config(**kw):
    base = dict(N=8, K=3, d_x=1, dt=5e-3, T=0.1, r=2.0, record_every=5)
    base.update(kw)
    return SolverConfig(**base)


def random_state(config, rng, scale=1.0, max_level=None, real_field=False):
    from landau_hermite.solver import _Workspace, _hermitize

    ws = _Workspace.for_config(config)
    c = rng.standard_normal((ws.n_modes, ws.basis.size)) + 1j * rng.standard_normal(
        (ws.n_modes, ws.basis.size)
    )
    if max_level is not None:
        c = np.where(ws.basis.levels[None, :] <= max_level, c, 0.0)
    if real_field:
        c = _hermitize(ws, c)
    c *= scale / np.linalg.norm(c)
    return PhaseState(config, c, 0.0)


def put_slice(state, eta, spectrum):
    from landau_hermite.solver import _Workspace

    ws = _Workspace.for_config(state.config)
    state.c[ws.mode_index[eta]] = spectrum.coeffs
    return state


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(r=1.2)
    with pytest.raises(ValueError):
        small_config(N=3)
    with pytest.raises(ValueError):
        small_config(scheme="leapfrog")
    with pytest.raises(ValueError):
        small_config(d_x=4)


def test_config_parse_roundtrip():
    text = """
    # desk scale
    N = 8
    K = 3
    d_x = 1
    dt = 0.005
    T = 0.1
    r = 2.0
    scheme = imex_euler
    seed = 42
    recipe = gaussian
    g0_norm = 0.001
    """
    cfg = parse_config_text(text)
    assert cfg.N == 8 and cfg.K == 3 and cfg.seed == 42
    assert cfg.recipe == "gaussian" and abs(cfg.g0_norm - 1e-3) < 1e-18
    with pytest.raises(ValueError):
        parse_config_text("unknown_key = 3")


@pytest.mark.parametrize(
    "name, value",
    [
        ("dt", math.nan),
        ("dt", math.inf),
        ("r", math.nan),
        ("T", math.inf),
        ("T", -0.1),
        ("picard_tol", math.nan),
        ("picard_tol", -1e-9),
        ("c0", math.inf),
        ("g0_norm", -1.0),
        ("g0_norm", math.nan),
        ("record_every", -3),
        ("snapshot_every", -1),
        ("picard_max_iter", 0),
        ("T", 0.051),
        ("dt", 0.03),
        # snapshots are written from the recorded states, so a cadence that
        # misses them would leave only the first and the final file
        pytest.param(
            "snapshot_every",
            dict(T=0.3, dt=0.01, record_every=10, snapshot_every=15),
            id="snapshot_every-15-record_every-10",
        ),
        pytest.param(
            "snapshot_every",
            dict(T=0.3, dt=0.01, record_every=0, snapshot_every=5),
            id="snapshot_every-5-record_every-0",
        ),
    ],
)
def test_config_rejects_bad_value(name, value):
    values = value if isinstance(value, dict) else {name: value}
    with pytest.raises(ValueError, match=name):
        small_config(**values)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["dt", "T", "r", "picard_tol", "c0", "g0_norm"]),
    st.floats(allow_nan=True, allow_infinity=True),
)
def test_config_text_float_fields_are_finite(name, value):
    try:
        cfg = parse_config_text(f"N = 8\nK = 3\n{name} = {value!r}\n")
    except ValueError:
        return
    assert math.isfinite(getattr(cfg, name))


@pytest.mark.parametrize(
    "line, message",
    [
        ("N = 16.5", "line 2: key 'N' expects int, got '16.5'"),
        ("dt = 2e-3s", "line 2: key 'dt' expects float, got '2e-3s'"),
        ("seed = ", "line 2: key 'seed' expects int, got ''"),
    ],
)
def test_config_text_bad_literal_names_line_and_key(line, message):
    with pytest.raises(ValueError) as info:
        parse_config_text(f"K = 3\n{line}\n")
    assert str(info.value) == message


def test_config_duplicate_key_names_its_line():
    with pytest.raises(ValueError, match=r"line 3: duplicate config key 'N' \(first set on line 1\)"):
        parse_config_text("N = 8\nK = 3\nN = 12\n")


def test_transport_zero_when_homogeneous():
    cfg = small_config(d_x=0, K=0)
    rng = np.random.default_rng(50)
    s = random_state(cfg, rng)
    assert np.all(apply_transport(s).c == 0)


def test_transport_single_mode_example():
    cfg = small_config()
    s = PhaseState(cfg, np.zeros((7, get_basis(8).size)), 0.0)
    put_slice(s, (1,), unit_spectrum(8, (0, 0, 0)))
    out = apply_transport(s)
    from landau_hermite.solver import _Workspace

    ws = _Workspace.for_config(cfg)
    row = out.c[ws.mode_index[(1,)]]
    expected = 1j * unit_spectrum(8, (1, 0, 0)).coeffs
    np.testing.assert_allclose(row, expected, atol=1e-15)
    others = np.delete(out.c, ws.mode_index[(1,)], axis=0)
    assert np.all(others == 0)


def test_transport_skew_symmetry():
    cfg = small_config()
    rng = np.random.default_rng(51)
    from landau_hermite.solver import _Workspace

    ws = _Workspace.for_config(cfg)
    for _ in range(10):
        s = random_state(cfg, rng, max_level=cfg.N - 1)
        ts = apply_transport(s)
        pairing = np.sum(ws.h_weight[:, None] * ts.c * np.conj(s.c))
        assert abs(pairing.real) < 1e-10


def test_gamma_conv_homogeneous_reduces_to_gamma_apply():
    cfg = small_config(d_x=0, K=0)
    rng = np.random.default_rng(52)
    f = random_state(cfg, rng)
    g = random_state(cfg, rng)
    out = gamma_conv(f, g)
    from landau_hermite.hermite_core import HermiteSpectrum

    ref = gamma_apply(
        HermiteSpectrum(cfg.N, f.c[0]), HermiteSpectrum(cfg.N, g.c[0])
    )
    np.testing.assert_allclose(out.c[0], ref.coeffs, atol=1e-13)


def test_gamma_conv_concentrated_f_acts_slicewise():
    cfg = small_config()
    rng = np.random.default_rng(53)
    f = PhaseState(cfg, np.zeros((7, get_basis(8).size)), 0.0)
    put_slice(f, (0,), unit_spectrum(8, (0, 0, 0)))
    g = random_state(cfg, rng)
    out = gamma_conv(f, g)
    from landau_hermite.landau_ops import get_operators

    L1 = get_operators(8).L1
    expected = -(L1 @ g.c.T).T
    np.testing.assert_allclose(out.c, expected, atol=1e-13)


def test_gamma_conv_bilinear():
    cfg = small_config()
    rng = np.random.default_rng(54)
    f1 = random_state(cfg, rng)
    f2 = random_state(cfg, rng)
    g = random_state(cfg, rng)
    a = 1.3 - 0.2j
    lhs = gamma_conv(PhaseState(cfg, a * f1.c + f2.c), g)
    rhs_c = a * gamma_conv(f1, g).c + gamma_conv(f2, g).c
    assert np.max(np.abs(lhs.c - rhs_c)) < 1e-12
    lhs2 = gamma_conv(g, PhaseState(cfg, a * f1.c + f2.c))
    rhs2 = a * gamma_conv(g, f1).c + gamma_conv(g, f2).c
    assert np.max(np.abs(lhs2.c - rhs2)) < 1e-12


def test_gamma_conv_matches_direct_sum():
    # brute force over mode pairs (a, b) with a - b on the lattice, each pair
    # through the velocity-space bilinear term; non-Hermitian states
    from landau_hermite.solver import _Workspace

    rng = np.random.default_rng(55)
    for d_x, K in ((0, 0), (1, 3), (2, 2), (3, 1)):
        cfg = small_config(d_x=d_x, K=K)
        ws = _Workspace.for_config(cfg)
        f = random_state(cfg, rng)
        g = random_state(cfg, rng)
        mom = f.c[:, ws.ops.moment_slots]
        direct = np.zeros_like(g.c)
        for a, eta in enumerate(ws.modes):
            for b, zeta in enumerate(ws.modes):
                diff = tuple(x - y for x, y in zip(eta, zeta))
                if diff in ws.mode_index:
                    direct[a] += ws.ops.apply_gamma_coeffs(mom[ws.mode_index[diff]], g.c[b])
        fast = gamma_conv(f, g)
        assert np.max(np.abs(direct - fast.c)) < 1e-12 * np.max(np.abs(direct))


def test_trilinear_adjoints_match_weighted_pairing():
    # the g-slot and f-slot contractions of trilinear_constant are adjoints
    # of the kernel in the weighted pairing (B(f, g), h)_w
    from landau_hermite.solver import (
        _Workspace,
        _bilinear_adjoint_f,
        _bilinear_adjoint_g,
    )

    rng = np.random.default_rng(60)
    for d_x, K in ((0, 0), (1, 3), (2, 2), (3, 1)):
        cfg = small_config(d_x=d_x, K=K)
        ws = _Workspace.for_config(cfg)
        f, g, h = (random_state(cfg, rng) for _ in range(3))
        mom = f.c[:, ws.ops.moment_slots]
        wh = ws.h_weight[:, None] * h.c
        pairing = np.sum(gamma_conv(f, g).c * np.conj(wh))
        g_slot = np.vdot(_bilinear_adjoint_g(ws, mom, wh), g.c)
        f_slot = np.sum(mom * _bilinear_adjoint_f(ws, g.c, wh))
        assert abs(g_slot - pairing) <= 1e-12 * abs(pairing)
        assert abs(f_slot - pairing) <= 1e-12 * abs(pairing)


def test_workspace_memory_is_linear_in_modes():
    # no table over mode pairs: the d_x = 3, K = 8 grid builds in O(n_modes)
    from landau_hermite.solver import _Workspace

    ws = _Workspace(8, 8, 3, 2.0)
    assert ws.n_modes == 17**3
    for name, value in vars(ws).items():
        if isinstance(value, np.ndarray):
            assert value.size < ws.n_modes**2, name


def test_gamma_conv_conservation_per_mode():
    # mass/momentum/energy moments of the diagonal term vanish per mode
    cfg = small_config()
    rng = np.random.default_rng(56)
    g = random_state(cfg, rng, max_level=cfg.N - 2)
    out = gamma_conv(g, g)
    from landau_hermite.solver import _Workspace

    ws = _Workspace.for_config(cfg)
    slots = ws.ops.moment_slots
    mass = out.c[:, slots[0]]
    momentum = out.c[:, slots[1:4]]
    energy = out.c[:, slots[4:7]].sum(axis=1)
    assert np.max(np.abs(mass)) < 1e-10
    assert np.max(np.abs(momentum)) < 1e-10
    assert np.max(np.abs(energy)) < 1e-10


def test_step_imex_eigenmode_decay():
    # level-2 rotation-type mode at eta = 0 decays exactly like
    # (1 + 12 dt)^(-steps) with the bilinear term off
    cfg = small_config(d_x=0, K=0, dt=1e-2)
    s = PhaseState(cfg, np.zeros((1, get_basis(8).size)), 0.0)
    put_slice(s, (), unit_spectrum(8, (1, 1, 0)))
    state = s
    for _ in range(10):
        state = step_imex(state, cfg.dt, gamma_on=False)
    ix = get_basis(8).index_of[(1, 1, 0)]
    expected = (1.0 + 12.0 * cfg.dt) ** -10
    assert abs(state.c[0, ix] - expected) < 1e-13


def test_step_imex_kernel_stationary():
    cfg = small_config(d_x=0, K=0, recipe="kernel")
    s = build_initial_state(cfg)
    state = s.copy()
    for _ in range(20):
        state = step_imex(state, cfg.dt, gamma_on=False)
    assert np.max(np.abs(state.c - s.c)) < 1e-13


def test_step_imex_self_convergence():
    # dt and dt/2 marches against a dt/8 reference: first order in dt
    cfg = small_config(T=0.08, dt=8e-3)
    rng = np.random.default_rng(57)
    g0 = random_state(cfg, rng, scale=1e-3, real_field=True)

    def march(dt):
        state = g0.copy()
        for _ in range(int(round(cfg.T / dt))):
            state = step_imex(state, dt)
        return state.c

    ref = march(cfg.dt / 8)
    e1 = np.linalg.norm(march(cfg.dt) - ref)
    e2 = np.linalg.norm(march(cfg.dt / 2) - ref)
    assert 1.5 <= e1 / e2 <= 2.6


def test_reality_preservation():
    cfg = small_config()
    rng = np.random.default_rng(58)
    state = random_state(cfg, rng, scale=1e-3, real_field=True)
    assert hermitian_defect(state) < 1e-15
    for _ in range(10):
        state = step_imex(state, cfg.dt)
    assert hermitian_defect(state) < 1e-12


def unit_ground_state(cfg):
    s = PhaseState(cfg, np.zeros((1, get_basis(8).size)), 0.0)
    return put_slice(s, (), unit_spectrum(8, (0, 0, 0)))


def test_divergence_guard_fires(monkeypatch):
    # the ground state is stationary without the bilinear term; a step that
    # grows it by 5 % doubles the norm within the 20 steps to T
    cfg = small_config(d_x=0, K=0)

    def growing_step(*args, **kwargs):
        state = step_imex(*args, **kwargs)
        state.c *= 1.05  # inject growth the guard must catch
        return state

    monkeypatch.setattr(solver, "step_imex", growing_step)
    with pytest.raises(SolverDivergenceError):
        run(cfg, initial=unit_ground_state(cfg), gamma_on=False)


def test_divergence_guard_fires_on_non_finite_state(monkeypatch):
    cfg = small_config(d_x=0, K=0)

    def nan_step(*args, **kwargs):
        state = step_imex(*args, **kwargs)
        state.c[0, 3] = np.nan
        return state

    monkeypatch.setattr(solver, "step_imex", nan_step)
    with pytest.raises(SolverDivergenceError):
        run(cfg, initial=unit_ground_state(cfg))


def test_non_finite_datum_rejected():
    cfg = small_config(T=0.05)
    rng = np.random.default_rng(61)
    for bad in (np.inf, np.nan):
        g0 = random_state(cfg, rng, scale=1e-3)
        g0.c[2, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            run(cfg, initial=g0)
        with pytest.raises(ValueError, match="non-finite"):
            picard_solve(g0)


def test_triple_norm_examples():
    cfg = small_config(d_x=0, K=0)
    zero = PhaseState(cfg, np.zeros((1, get_basis(8).size)), 0.0)
    assert triple_norm(zero) == 0.0
    s = zero.copy()
    put_slice(s, (), unit_spectrum(8, (0, 0, 0)))
    assert abs(triple_norm(s) ** 2 - 3.0) < 1e-12


def test_triple_norm_coercivity_identity():
    cfg = small_config()
    rng = np.random.default_rng(59)
    from landau_hermite.solver import _Workspace

    ws = _Workspace.for_config(cfg)
    for _ in range(10):
        s = random_state(cfg, rng, max_level=cfg.N - 2)
        lhs = triple_norm(s) ** 2
        l1 = (ws.ops.L1 @ s.c.T).T
        quad = np.sum(ws.h_weight[:, None] * l1 * np.conj(s.c)).real
        norm_sq = h_r_norm(s) ** 2
        assert abs(lhs - (quad + 3.0 * norm_sq)) < 1e-10


def test_triple_norm_matches_operator_sum():
    # the quadratic form against the explicit sum over the twelve operators
    from landau_hermite.solver import _Workspace

    rng = np.random.default_rng(62)
    for d_x, K in ((0, 0), (1, 3), (2, 2), (3, 1)):
        cfg = small_config(d_x=d_x, K=K)
        ws = _Workspace.for_config(cfg)
        s = random_state(cfg, rng)
        total = np.zeros(ws.n_modes)
        for ax in range(3):
            total += 2.0 * np.sum(np.abs((ws.D[ax] @ s.c.T).T) ** 2, axis=1)
            total += 0.5 * np.sum(np.abs((ws.V[ax] @ s.c.T).T) ** 2, axis=1)
        for A in ws.rot_pairs:
            total += 0.5 * np.sum(np.abs((A @ s.c.T).T) ** 2, axis=1)
        expected = math.sqrt(float(np.sum(ws.h_weight * total)))
        assert abs(triple_norm(s) - expected) <= 1e-13 * expected


def test_linear_flow_norm_decay():
    cfg = small_config(T=0.2, dt=5e-3, recipe="rough", g0_norm=1e-3, seed=3)
    res = run(cfg, gamma_on=False)
    norms = res.ledger.h_r_norm
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1.0 + 1e-8)


def test_run_energy_inequality_small_data():
    cfg = small_config(T=0.2, dt=5e-3, recipe="rough", g0_norm=1e-3, seed=4)
    res = run(cfg)
    norms = res.ledger.h_r_norm
    assert max(norms) <= 2.0 * norms[0]
    assert math.isfinite(res.energy_constant)
    csv = res.ledger.to_csv()
    assert csv.splitlines()[0] == "t,h_r_norm,triple_norm,dissipation_integral"


def test_zero_datum_energy_constant_is_nan():
    # the ratio to ||g0||^2 is undefined for a zero datum
    res = run(small_config(T=0.05, recipe="zero"))
    assert math.isnan(res.energy_constant)
    assert res.ledger.h_r_norm == [0.0] * 11


def test_one_norm_per_state(monkeypatch):
    # one h_r_norm per marched state, plus the recipe's normalization: a
    # 25-step run takes 26 + 1, a two-iterate Picard sequence (the seed march
    # and two frozen-moment marches) 3 * 26 + 1
    cfg = SolverConfig(N=6, K=1, d_x=1, dt=2e-3, T=0.05, seed=1)
    calls = []

    def counted(state):
        calls.append(None)
        return h_r_norm(state)

    monkeypatch.setattr(solver, "h_r_norm", counted)
    run(cfg)
    assert len(calls) <= 27
    calls.clear()
    _, report = picard_solve(build_initial_state(cfg))
    assert report.iterations == 2
    assert len(calls) <= 79


def test_one_clock_for_both_schemes():
    # every state of either scheme sits at g0.time + k*dt, so the two write
    # the same t column for the same march
    cfg = SolverConfig(N=6, K=1, d_x=1, dt=2e-3, T=0.05, seed=1, record_every=5)
    g0 = build_initial_state(cfg)
    g0.time = 0.3
    res = run(cfg, initial=g0)
    traj, _ = picard_solve(g0)
    clock = [g0.time + k * cfg.dt for k in range(cfg.n_steps + 1)]
    assert res.ledger.t == clock
    assert [s.time for s in traj] == clock
    assert [t for t, _ in res.snapshots] == clock[::5]
    assert all(s.time == t for t, s in res.snapshots)


def test_picard_zero_datum_converges_immediately():
    cfg = small_config(T=0.05, recipe="zero")
    g0 = build_initial_state(cfg)
    traj, report = picard_solve(g0)
    assert report.converged
    assert report.iterations == 1
    assert all(np.all(s.c == 0) for s in traj)


def test_picard_contracts_and_matches_direct_march():
    cfg = small_config(T=0.1, dt=5e-3, recipe="rough", g0_norm=1e-3, seed=5,
                       picard_tol=1e-11)
    g0 = build_initial_state(cfg)
    traj, report = picard_solve(g0)
    assert report.converged
    assert not report.non_contraction
    assert report.contraction_factor < 1.0
    # the fixed point satisfies exactly the direct nonlinear IMEX recursion
    state = g0.copy()
    for _ in range(int(round(cfg.T / cfg.dt))):
        state = step_imex(state, cfg.dt)
    final = traj[-1]
    diff = np.linalg.norm(final.c - state.c)
    assert diff <= 10.0 * cfg.picard_tol


def test_picard_max_iter_is_a_named_reason():
    # two contracting iterates, neither within a zero tolerance
    cfg = small_config(seed=11, picard_tol=0.0, picard_max_iter=2)
    _, report = picard_solve(build_initial_state(cfg))
    assert report.reason == "max_iter"
    assert not report.converged and not report.non_contraction
    assert report.iterations == 2 and len(report.distances) == 2
    assert report.failed_iterate is None


def test_record_states_cadence():
    # every record_every-th state plus the first and the last
    cfg = small_config(T=0.06, record_every=5)
    for record_every, expected in ((5, [0, 5, 10, 12]), (0, [0, 12])):
        res = run(replace(cfg, record_every=record_every), gamma_on=False)
        assert [round(t / cfg.dt) for t, _ in res.snapshots] == expected
        assert len(res.ledger.t) == 13


def test_picard_memory_is_one_trajectory():
    # one (n_steps+1, n_modes, M) buffer; the frozen moment fields and the
    # per-step temporaries stay within a quarter of it
    cfg = small_config(N=12, K=3, T=1.5, recipe="rough", g0_norm=1e-3, seed=5)
    g0 = build_initial_state(cfg)
    tracemalloc.start()
    try:
        traj, report = picard_solve(g0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 1.25 * len(traj) * g0.c.nbytes


def test_picard_divergence_returns_previous_iterate(monkeypatch):
    # a divergence halfway through the first frozen-moment march leaves the
    # buffer partly overwritten; the report must name it and the returned
    # trajectory must be the previous iterate, the free linear flow
    cfg = small_config(T=0.1, recipe="rough", g0_norm=1e-3, seed=5)
    g0 = build_initial_state(cfg)
    n_steps = int(round(cfg.T / cfg.dt))
    free = [g0.c]
    state = g0
    for _ in range(n_steps):
        state = step_imex(state, cfg.dt, gamma_on=False)
        free.append(state.c)
    calls = []

    def failing_step(*args, **kwargs):
        calls.append(None)
        if len(calls) == n_steps + n_steps // 2:
            raise SolverDivergenceError("injected")
        return step_imex(*args, **kwargs)

    monkeypatch.setattr(solver, "step_imex", failing_step)
    traj, report = picard_solve(g0)
    assert report.reason == "divergence" and report.non_contraction
    assert report.failed_iterate == 1 and report.lambdas == [math.inf]
    assert not report.converged and report.distances == []
    assert len(traj) == n_steps + 1
    for k, s in enumerate(traj):
        assert np.array_equal(s.c, free[k]), k
        assert s.time == g0.time + k * cfg.dt


def test_linear_flow_contracts_to_invariants():
    # with the bilinear term off, the homogeneous-mode slice converges to its
    # collision-invariant projection and every other mode loses norm
    cfg = small_config(T=1.0, dt=1e-2, K=2, recipe="rough", g0_norm=1.0, seed=9)
    from landau_hermite.solver import _Workspace

    ws = _Workspace.for_config(cfg)
    g0 = build_initial_state(cfg)
    state = g0.copy()
    for _ in range(int(round(cfg.T / cfg.dt))):
        state = step_imex(state, cfg.dt, gamma_on=False)
    zero_mode = ws.mode_index[(0,)]
    slots = ws.ops.moment_slots

    def off_kernel(row):
        out = row.copy()
        out[slots[:4]] = 0.0  # ground state and the three first moments
        radial = np.zeros_like(row)
        radial[slots[4:7]] = 1.0 / np.sqrt(3.0)
        out -= np.vdot(radial, out) * radial
        return out

    nonkernel0 = off_kernel(state.c[zero_mode])
    nonkernel0_init = off_kernel(g0.c[zero_mode])
    assert np.linalg.norm(nonkernel0) < 0.05 * np.linalg.norm(nonkernel0_init)
    for m, eta in enumerate(ws.modes):
        if eta != (0,):
            assert np.linalg.norm(state.c[m]) < np.linalg.norm(g0.c[m])
