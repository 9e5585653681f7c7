"""One cold workload process: set up, go through `cli.main` as a user would,
then check the outputs.

    python3 perfbench/child.py WORKLOAD WORK_DIR RESULT_JSON TRACE(0|1)

WORK_DIR holds `run.cfg` (simulation workloads); outputs go to WORK_DIR/out.
The result JSON carries the timings, the peak RSS, the correctness checks
and, when traced, the per-layer figures.  Exit code 3 means the package
could not be imported; any other failure is recorded in the result as a
failed run.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import gate
import layers
from spans import MARCH_ONLY, Tracer
from workloads import WORKLOADS, Workload

# the caps the verify suites build bases and operators for
VERIFY_BASIS_CAPS = (5, 10, 12)
VERIFY_OPERATOR_CAPS = (5, 10)


def _setup(workload: Workload, config_path: str) -> None:
    """Cold basis, operators, workspace and per-dt solve factors (and the
    trilinear constant that `picard_solve` needs), in the order the march
    would build them.  `cli.main` then finds them in the package caches."""
    from landau_hermite import hermite_core as hc
    from landau_hermite import landau_ops as lo
    from landau_hermite import solver as sv

    if workload.scheme is None:
        for n in VERIFY_BASIS_CAPS:
            hc.get_basis(n)
        for n in VERIFY_OPERATOR_CAPS:
            lo.get_operators(n)
        return
    cfg = sv.load_config(config_path)
    ws = sv._Workspace.for_config(cfg)
    ws.implicit_inverses(cfg.dt)
    if cfg.scheme == "picard":
        ws.trilinear_constant()


def _user_path(workload: Workload, config_path: str, out_dir: str) -> dict:
    """The CLI calls a user makes; returns their exit codes."""
    from landau_hermite import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if workload.scheme is None:
            return {"verify": cli.main(["verify", "--suite", "all", "--out", out_dir])}
        codes = {"run": cli.main(["run", "--config", config_path, "--out", out_dir])}
        if workload.fit:
            spectra = os.path.join(out_dir, "spectra.csv")
            codes["fit"] = cli.main(["fit", "--input", spectra, "--out", out_dir])
        return codes


def _checks(workload: Workload, config_path: str, out_dir: str, codes: dict):
    if workload.scheme is None:
        records = gate.read_verify_records(os.path.join(out_dir, "verify.jsonl"))
        return gate.check_verify(records, codes["verify"]), records
    return gate.check_run(workload, config_path, out_dir, codes), None


def measure(workload: Workload, work_dir: str, traced: bool) -> dict:
    config_path = os.path.join(work_dir, "run.cfg")
    out_dir = os.path.join(work_dir, "out")
    tracer = Tracer()
    tracer.install(None if traced else MARCH_ONLY)

    start = time.perf_counter()
    _setup(workload, config_path)
    setup_end = time.perf_counter()
    codes = _user_path(workload, config_path, out_dir)
    end = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "wall_s": end - start,
        "setup_s": setup_end - start,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    checks, records = _checks(workload, config_path, out_dir, codes)
    if workload.scheme is None:
        result["work_units"] = len(records)
        result["work_s"] = end - setup_end
    else:
        result["work_units"] = workload.n_steps
        result["work_s"] = sum(
            tracer.durations("solver.run") + tracer.durations("solver.picard_solve")
        )
    result["checks"] = checks
    if traced:
        result["layers"] = layers.process_layers(workload, tracer, out_dir, records)
    return result


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv: list[str]) -> int:
    name, work_dir, result_path, traced = argv
    workload = WORKLOADS[name]
    try:
        import landau_hermite  # noqa: F401
    except ImportError:
        traceback.print_exc()
        return 3
    try:
        result = measure(workload, work_dir, traced == "1")
    except Exception:  # a raising run is a failed run, reported, not fatal
        detail = traceback.format_exc()
        sys.stderr.write(detail)
        result = {"error": detail.strip().splitlines()[-1],
                  "checks": gate.failed_all(workload, "raised")}
    result["environment"] = environment()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
