"""Benchmark driver for the Hermite-Fourier Landau simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is read from `src/`).
For S seconds it starts one workload process after another (`child.py`),
each a fresh interpreter with BLAS/OpenMP and suite threads pinned to 1 in
its own environment, so every process pays the cold caches a CLI user pays.
Each process checks its own outputs.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(traced processes alternate with untraced ones, whose wall times give the
tracing overhead).  The line before it records the environment and the
sample counts.  Scratch files go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import aggregate, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LANDAU_THREADS": "1",
}
DEADLINE_S = 170.0  # a run ends within 180 s even if a process hangs
IMPORT_FAILED = 3


def machine() -> dict:
    """Core count, CPU model and cache sizes, where the system exposes them."""
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            base = os.path.join(cache_dir, entry)
            with open(os.path.join(base, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                info[f"L{level}"] = size
    except OSError:
        pass
    return info


def spawn(root: str, name: str, work_dir: str, traced: bool, timeout: float) -> tuple:
    """Run one workload process; returns (exit code, result dict or None)."""
    out_dir = os.path.join(work_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = os.path.join(work_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, **PINS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, work_dir,
           result_path, "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return proc.returncode, None
    with open(result_path, encoding="utf-8") as fh:
        return 0, json.load(fh)


def timing(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it (none
    below eleven samples), the sample count and the samples."""
    value, pct = tail(values)
    return {"median": statistics.median(values), "tail": value, "tail_pct": pct,
            "n": len(values), "values": sorted(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "landau_hermite", "__init__.py")):
        sys.stderr.write("perfbench: no src/landau_hermite here; run from a source checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(root, ".perfbench", f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(args.seed))

    plain: list[dict] = []
    traced: list[dict] = []
    checks: list = []
    errors: list[str] = []
    start = time.perf_counter()
    last = 0.0
    try:
        while True:
            elapsed = time.perf_counter() - start
            # one process at least (a traced and an untraced one when
            # tracing); then only while the next one should fit
            n_done = len(plain) + len(traced) + len(errors)
            if n_done >= 1 + args.trace and elapsed + last > args.seconds:
                break
            # the traced run alternates, so both kinds see the same machine
            want_trace = bool(args.trace) and n_done % 2 == 1
            t0 = time.perf_counter()
            code, result = spawn(root, workload.name, work_dir, want_trace,
                                 max(10.0, DEADLINE_S - elapsed))
            last = time.perf_counter() - t0
            if code == IMPORT_FAILED:
                sys.stderr.write("perfbench: the package could not be imported\n")
                return 2
            if result is None:
                errors.append(f"exit code {code}")
                checks.extend([name, False, "process failed"]
                              for name in workload.check_names())
                continue
            checks.extend(result["checks"])
            if "error" in result:
                errors.append(result["error"])
                continue
            (traced if want_trace else plain).append(result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed[:20]:
        sys.stderr.write(f"perfbench: check failed: {name} ({detail})\n")
    if not plain:
        sys.stderr.write(f"perfbench: no successful workload process: {errors}\n")
        return 1

    def med(key):
        return statistics.median(r[key] for r in plain)

    if args.trace:
        metrics = aggregate([r["layers"] for r in traced],
                            [r["wall_s"] for r in traced],
                            [r["wall_s"] for r in plain])
    else:
        metrics = {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "work_per_s": {
                "value": statistics.median(r["work_units"] / r["work_s"] for r in plain),
                "unit": "1/s",
            },
            "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
        }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "processes": {"untraced": len(plain), "traced": len(traced),
                      "failed": len(errors)},
        "timings": {key: timing([r[key] for r in plain])
                    for key in ("wall_s", "setup_s", "peak_rss_mb")},
        "thread_pins": PINS,
        "machine": machine(),
        "software": plain[0]["environment"],
        "fail_frac": len(failed) / len(checks),
        "errors": errors,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
