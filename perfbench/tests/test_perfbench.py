"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They run the driver at its shortest length on every workload, feed the
correctness gate corrupted outputs, and run the driver where the package is
missing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[workload].check_names())
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_driver_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "imex_d1", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# the correctness gate on real and corrupted outputs
# ---------------------------------------------------------------------------

TINY = Workload("tiny", "", "picard", dict(
    N=6, K=2, d_x=1, dt=2.5e-3, T=0.01, r=2.0, recipe="rough", g0_norm=1e-3,
    record_every=2, scheme="picard", picard_tol=1e-9,
), fit=True)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from landau_hermite import cli

    work = tmp_path_factory.mktemp("tiny")
    config = work / "run.cfg"
    config.write_text(TINY.config_text(3), encoding="utf-8")
    out = work / "out"
    codes = {"run": cli.main(["run", "--config", str(config), "--out", str(out)])}
    codes["fit"] = cli.main(["fit", "--input", str(out / "spectra.csv"), "--out", str(out)])
    return config, out, codes


def _failed(checks) -> list[str]:
    return [name for name, ok, _ in checks if not ok]


def _corrupt_copy(tiny_run, tmp_path, name: str, edit) -> list[str]:
    config, out, codes = tiny_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return _failed(gate.check_run(TINY, str(config), str(copy), codes))


def test_gate_passes_real_outputs(tiny_run):
    config, out, codes = tiny_run
    checks = gate.check_run(TINY, str(config), str(out), codes)
    assert [c[0] for c in checks] == TINY.check_names()
    assert _failed(checks) == []


def test_gate_trips_on_nan_in_ledger(tiny_run, tmp_path):
    def nan_row(text):
        lines = text.splitlines()
        fields = lines[3].split(",")
        fields[2] = "nan"
        lines[3] = ",".join(fields)
        return "\n".join(lines) + "\n"

    assert _corrupt_copy(tiny_run, tmp_path, "ledger.csv", nan_row) == ["ledger_rows_finite"]


def test_gate_trips_on_norm_growth(tiny_run, tmp_path):
    def grow(text):
        lines = text.splitlines()
        fields = lines[-1].split(",")
        fields[1] = repr(3.0 * float(lines[1].split(",")[1]))
        lines[-1] = ",".join(fields)
        return "\n".join(lines) + "\n"

    assert _corrupt_copy(tiny_run, tmp_path, "ledger.csv", grow) == ["energy_bounded"]


def test_gate_trips_on_non_converged_picard(tiny_run, tmp_path):
    def flip(text):
        report = json.loads(text)
        report["converged"] = False
        return json.dumps(report)

    failed = _corrupt_copy(tiny_run, tmp_path, "picard_report.json", flip)
    assert failed == ["picard_converged"]


def test_gate_trips_on_changed_invariant_and_symmetry(tiny_run, tmp_path):
    from landau_hermite import solver as sv

    config, out, codes = tiny_run
    cfg = sv.load_config(str(config))
    state = sv.read_snapshot(str(out / "final.lnsp"), cfg)
    ws = state.workspace
    zero = ws.mode_index[(0,)]
    state.c[zero, ws.basis.index_of[(1, 0, 0)]] += 1e-6
    state.c[zero + 1, 0] += 1e-6j
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    sv.write_snapshot(str(copy / "final.lnsp"), state)
    failed = _failed(gate.check_run(TINY, str(config), str(copy), codes))
    assert failed == ["invariant_conserved:momentum_x", "hermitian_defect"]


def test_gate_trips_on_flipped_verify_record():
    records = [{"suite": s, "check": "c", "status": "pass"} for s in gate.VERIFY_SUITES]
    assert _failed(gate.check_verify(records, 0)) == []
    records[2] = dict(records[2], status="fail")
    assert _failed(gate.check_verify(records, 1)) == [
        "verify_exit_code", "verify_suite:gamma_oracle"
    ]
    assert _failed(gate.check_verify(records[:4], 0)) == [
        "verify_suite:gamma_oracle", "verify_suite:kolmogorov"
    ]


def test_a_raising_run_fails_every_check():
    checks = gate.failed_all(WORKLOADS["picard_d1"], "raised")
    assert _failed(checks) == WORKLOADS["picard_d1"].check_names()


def test_tail_percentile_needs_ten_samples_beyond():
    assert layers.tail(list(range(10))) == (0.0, 0.0)
    value, pct = layers.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
