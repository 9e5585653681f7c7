import time

import pytest

from landau_hermite import solver as sv
from landau_hermite.config import SolverConfig
from landau_hermite import diagnostics as dg

ACCEPT_CONFIG = dict(
    N=16, K=8, d_x=1, dt=2e-3, T=1.0, r=2.0, scheme="imex_euler",
    recipe="rough", g0_norm=1e-3, seed=2, record_every=25,
)


@pytest.fixture(scope="session")
def nonlinear_run():
    """The desk-scale nonlinear reference run shared by the acceptance gate
    and the diagnostics invariants: (config, RunResult, rate points, elapsed
    march seconds)."""
    cfg = SolverConfig(**ACCEPT_CONFIG)
    start = time.monotonic()
    result = sv.run(cfg)
    elapsed = time.monotonic() - start
    series = dg.series_from_snapshots(result.snapshots)
    points = [
        dg.fit_rates(t, S, R)
        for t, S, R in zip(series.times, series.hermite, series.fourier)
    ]
    return cfg, result, points, elapsed
