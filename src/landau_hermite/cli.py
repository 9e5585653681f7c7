"""Command-line front end: run simulations, execute verification suites, and
fit recorded spectra.

    landau-hermite run    --config cfg.txt --out results/
    landau-hermite verify --suite all [--out results/]
    landau-hermite fit    --input results/spectra.csv --out results/

`run` writes ledger.csv, spectra.csv and LNSP snapshots; with the picard
scheme it also writes picard_report.json.  `verify` prints one JSON record
per check and exits 1 if any fails.  `fit` turns a spectra CSV into a
fitted-rates CSV.  Identical config and seed give byte-identical outputs.
Rejected input (options, config, CSV), a config whose run needs more memory
than the address-space limit (`config.min_peak_bytes` against the soft
RLIMIT_AS) and an output directory that cannot be created exit 2 with one
stderr line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from typing import NoReturn

from . import solver as sv
from . import diagnostics as dg
from .config import min_peak_bytes
from .verify import SUITES, run_suite


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _reject(command: str, exc: Exception) -> NoReturn:
    """Exit 2 with one stderr line naming the command and the error."""
    print(f"landau-hermite {command}: error: {exc}", file=sys.stderr)
    sys.exit(2)


def _read_input(command: str, path: str, parse):
    """parse(text) of the UTF-8 file at path; a file that cannot be read or
    that parse rejects (OSError, ValueError) exits 2 with one stderr line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        _reject(command, exc)


def _make_out(command: str, out_dir: str) -> None:
    """Create the output directory out_dir; one that cannot be created (an
    existing file, say) exits 2 with one stderr line."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        _reject(command, exc)


def _refuse_what_cannot_fit(cfg) -> None:
    """Exit 2 with one stderr line if a run of cfg needs more bytes than the
    soft address-space limit allows, before any of its arrays is built."""
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    need = min_peak_bytes(cfg)
    if limit != resource.RLIM_INFINITY and need > limit:
        _reject("run", ValueError(
            f"the config needs at least {need >> 20} MiB, above the "
            f"address-space limit of {limit >> 20} MiB"
        ))


def cmd_run(config_path: str, out_dir: str) -> int:
    cfg = _read_input("run", config_path, sv.parse_config_text)
    _refuse_what_cannot_fit(cfg)
    _make_out("run", out_dir)
    if cfg.scheme == "picard":
        trajectory, report = sv.picard_solve(sv.build_initial_state(cfg))
        march = ((state, sv.h_r_norm(state)) for state in trajectory)
        result = sv.record_states(march, cfg.dt, cfg.record_every)
        rep = {
            "converged": report.converged,
            "non_contraction": report.non_contraction,
            "failed_iterate": report.failed_iterate,
            "reason": report.reason,
            "iterations": report.iterations,
            "distances": report.distances,
            "lambdas": [x if math.isfinite(x) else "inf" for x in report.lambdas],
            "contraction_factor": (
                report.contraction_factor
                if math.isfinite(report.contraction_factor)
                else "inf"
            ),
            "c0_estimate": report.c0_estimate,
            "smallness_product": report.smallness_product,
        }
        _write(
            os.path.join(out_dir, "picard_report.json"),
            json.dumps(rep, indent=2, sort_keys=True) + "\n",
        )
    else:
        result = sv.run(cfg)
    snapshots = result.snapshots
    _write(os.path.join(out_dir, "ledger.csv"), result.ledger.to_csv())
    series = dg.series_from_snapshots(snapshots)
    _write(os.path.join(out_dir, "spectra.csv"), dg.write_spectra_csv(series))
    for t, state in snapshots:
        step = int(round((t - snapshots[0][0]) / cfg.dt))
        final = t == snapshots[-1][0]
        wanted = cfg.snapshot_every and step % cfg.snapshot_every == 0
        if wanted or final:
            name = "final.lnsp" if final else f"snapshot_{step:06d}.lnsp"
            sv.write_snapshot(os.path.join(out_dir, name), state)
    return 0


def cmd_verify(suite: str, out_dir: str | None) -> int:
    if out_dir:
        _make_out("verify", out_dir)
    records = run_suite(suite)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    for line in lines:
        print(line)
    if out_dir:
        _write(os.path.join(out_dir, "verify.jsonl"), "\n".join(lines) + "\n")
    return 0 if all(r["status"] == "pass" for r in records) else 1


def cmd_fit(input_path: str, out_dir: str) -> int:
    points = _read_input("fit", input_path, dg.read_spectra_csv).rate_points()
    _make_out("fit", out_dir)
    _write(os.path.join(out_dir, "fitted_rates.csv"), dg.write_rates_csv(points))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landau-hermite",
        description="Hermite-Fourier spectral simulator and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="march a configured simulation")
    p_run.add_argument("--config", required=True, help="key=value config file")
    p_run.add_argument("--out", required=True, help="output directory")

    p_verify = sub.add_parser("verify", help="execute a verification suite")
    suites = [*SUITES, "all"]
    p_verify.add_argument(
        "--suite", default="all", choices=suites, help=" | ".join(suites)
    )
    p_verify.add_argument("--out", default=None, help="optional report directory")

    p_fit = sub.add_parser("fit", help="fit decay rates from a spectra CSV")
    p_fit.add_argument("--input", required=True, help="spectra CSV path")
    p_fit.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out)
    if args.command == "verify":
        return cmd_verify(args.suite, args.out)
    if args.command == "fit":
        return cmd_fit(args.input, args.out)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
