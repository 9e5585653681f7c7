"""Correctness gate: checks one workload process's outputs.

Each check is a (name, ok, detail) triple; the names are those of
`Workload.check_names`, in the same order.  The gate reads only files the
program wrote, so a test can corrupt a copy of them and watch it trip.
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import INVARIANTS, VERIFY_SUITES, Workload

# the scheme keeps the collision invariants of the eta = 0 mode and the
# real-field symmetry exactly; drift is measured near 1e-20 on a datum of
# norm 1e-3, so anything above round-off relative to the datum is a defect
ROUNDOFF = 1e-12


def _check(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def check_verify(records: list[dict], exit_code: int) -> list[tuple]:
    """One check for the exit code and one per suite: the suite reported at
    least one record and every record has status "pass"."""
    checks = [_check("verify_exit_code", exit_code == 0, f"exit={exit_code}")]
    for suite in VERIFY_SUITES:
        mine = [r for r in records if r.get("suite") == suite]
        failed = [r.get("check") for r in mine if r.get("status") != "pass"]
        checks.append(
            _check(f"verify_suite:{suite}", mine and not failed,
                   f"records={len(mine)} failed={failed}")
        )
    return checks


def read_verify_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_ledger(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "h_r_norm", "triple_norm", "dissipation_integral"]:
        raise ValueError("unexpected ledger header")
    return [[float(v) for v in row] for row in rows[1:]]


def _invariants(ws, c_row) -> list[complex]:
    ix = ws.basis.index_of
    radial = c_row[ix[(2, 0, 0)]] + c_row[ix[(0, 2, 0)]] + c_row[ix[(0, 0, 2)]]
    return [c_row[ix[(0, 0, 0)]], c_row[ix[(1, 0, 0)]], c_row[ix[(0, 1, 0)]],
            c_row[ix[(0, 0, 1)]], radial]


def check_run(workload: Workload, config_path: str, out_dir: str,
              exit_codes: dict) -> list[tuple]:
    """Checks on a `run` (and `fit`) output directory against the datum the
    config generates."""
    from landau_hermite import solver as sv

    cfg = sv.load_config(config_path)
    checks = [_check("run_exit_code", exit_codes.get("run") == 0,
                     f"exit={exit_codes.get('run')}")]

    rows = _read_ledger(os.path.join(out_dir, "ledger.csv"))
    finite = len(rows) == workload.n_steps + 1 and all(
        math.isfinite(v) for row in rows for v in row
    )
    checks.append(_check("ledger_rows_finite", finite,
                         f"rows={len(rows)} expected={workload.n_steps + 1}"))
    norms = [row[1] for row in rows]
    bounded = bool(norms) and max(norms) <= 2.0 * norms[0]
    checks.append(_check("energy_bounded", bounded,
                         f"sup/initial={max(norms) / norms[0] if norms else math.nan:.4g}"))

    g0 = sv.build_initial_state(cfg)
    final = sv.read_snapshot(os.path.join(out_dir, "final.lnsp"), cfg)
    ws = g0.workspace
    zero = ws.mode_index[(0,) * cfg.d_x] if cfg.d_x else 0
    scale = sv.h_r_norm(g0)
    before = _invariants(ws, g0.c[zero])
    after = _invariants(ws, final.c[zero])
    for name, a, b in zip(INVARIANTS, before, after):
        drift = abs(b - a)
        checks.append(_check(f"invariant_conserved:{name}",
                             drift <= ROUNDOFF * scale, f"drift={drift:.3g}"))
    defect = sv.hermitian_defect(final)
    checks.append(_check("hermitian_defect", defect <= ROUNDOFF * scale,
                         f"defect={defect:.3g}"))

    if workload.scheme == "picard":
        with open(os.path.join(out_dir, "picard_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        ok = report.get("converged") is True and report.get("non_contraction") is False
        checks.append(_check("picard_converged", ok,
                             f"iterations={report.get('iterations')} "
                             f"reason={report.get('reason')}"))
    if workload.fit:
        checks.append(_check("fit_exit_code", exit_codes.get("fit") == 0,
                             f"exit={exit_codes.get('fit')}"))
        with open(os.path.join(out_dir, "spectra.csv"), encoding="utf-8") as fh:
            times = {line.split(",", 1)[0] for line in list(fh)[1:]}
        with open(os.path.join(out_dir, "fitted_rates.csv"), encoding="utf-8") as fh:
            rates = list(csv.reader(fh))
        ok = rates[0] == ["t", "c_v", "c_x", "resid_v", "resid_x"] and len(
            rates
        ) - 1 == len(times)
        checks.append(_check("fitted_rates_rows", ok,
                             f"rows={len(rates) - 1} times={len(times)}"))
    return checks


def failed_all(workload: Workload, reason: str) -> list[tuple]:
    """A process that raised: every one of its checks counts as failed."""
    return [_check(name, False, reason) for name in workload.check_names()]
