"""Workload definitions shared by the driver (`run.py`) and the workload
process (`child.py`).

A workload is a command-line path through `landau_hermite.cli.main` plus the
config it is given.  The workload seed becomes the config `seed`; the
program sees only the generated config file.  This module imports nothing
from the package or from numpy, so the driver stays light.
"""

from __future__ import annotations

from dataclasses import dataclass

# the README desk grid; every simulation workload shares the dissipation
# exponent and the rough recipe
_DESK = dict(N=16, K=8, d_x=1, dt=2e-3, r=2.0, recipe="rough", g0_norm=1e-3,
             record_every=25)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scheme: str | None  # None: the verify path, no march
    config: dict
    fit: bool = False  # `fit` on the run's spectra.csv after `run`

    def config_text(self, seed: int) -> str:
        """The flat key = value config the program reads."""
        lines = [f"{k} = {v}" for k, v in self.config.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    @property
    def n_steps(self) -> int:
        return int(round(self.config["T"] / self.config["dt"]))

    def check_names(self) -> list[str]:
        """Every correctness check one workload process makes, in order.  A
        process that raises fails all of them."""
        if self.scheme is None:
            from_suites = [f"verify_suite:{s}" for s in VERIFY_SUITES]
            return ["verify_exit_code"] + from_suites
        names = ["run_exit_code", "ledger_rows_finite", "energy_bounded"]
        names += [f"invariant_conserved:{inv}" for inv in INVARIANTS]
        names.append("hermitian_defect")
        if self.scheme == "picard":
            names.append("picard_converged")
        if self.fit:
            names += ["fit_exit_code", "fitted_rates_rows"]
        return names


INVARIANTS = ("mass", "momentum_x", "momentum_y", "momentum_z", "energy")
VERIFY_SUITES = ("ladder", "linear_op", "gamma_oracle", "weights", "kolmogorov")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "imex_d1",
            "README desk config then fit: Hermite-heavy (17 modes x 969 "
            "coefficients), per-step step_imex and triple_norm dominate",
            "imex_euler",
            dict(_DESK, T=0.5, scheme="imex_euler"),
            fit=True,
        ),
        Workload(
            "imex_d3",
            "N=8, K=5, d_x=3: mode-heavy (1331 modes x 165), the O(n_modes^2) "
            "convolution and the workspace diff table dominate",
            "imex_euler",
            dict(_DESK, N=8, K=5, d_x=3, T=0.006, scheme="imex_euler"),
        ),
        Workload(
            "picard_d1",
            "desk grid under Picard: frozen-moment linear marches over stored "
            "trajectories plus the trilinear-constant search in set-up",
            "picard",
            dict(_DESK, T=0.25, dt=2.5e-3, g0_norm=1e-2, scheme="picard",
                 picard_tol=1e-9),
        ),
        Workload(
            "verify_all",
            "verify --suite all: weights, kolmogorov, spectrum ops and the "
            "quadrature oracle; bypasses the march, the control for solver changes",
            None,
            {},
        ),
    )
}
