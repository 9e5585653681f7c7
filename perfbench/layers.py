"""Per-layer figures of one traced workload process, and their aggregation
over the traced processes of a run.

A process reports `scalars` (one value per process: span sums, call counts,
sizes) and `samples` (one value per call, in ms, pooled over processes).
`aggregate` turns them into the `per_layer` metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from workloads import VERIFY_SUITES

SPECTRUM_OPS = tuple(
    f"hermite_core.{op}"
    for op in ("raise_op", "lower_op", "multiply_v", "differentiate_v", "angular",
               "inner_product")
)
WEIGHT_SWEEPS = tuple(
    f"weights.{fn}"
    for fn in ("psi_derivative_bounds", "time_integral_lower_ratio",
               "time_integral_upper_ratio", "submultiplicativity_check",
               "weight_triangle_check")
)

# per-layer metric -> unit, in BENCHMARK.json order
UNITS = {
    "hermite_core.get_basis_s": "s",
    "hermite_core.spectrum_op_calls": "count",
    "hermite_core.spectrum_op_self_s": "s",
    "landau_ops.get_operators_s": "s",
    "landau_ops.oracle_calls": "count",
    "landau_ops.oracle_self_s": "s",
    "landau_ops.gamma_weak_calls": "count",
    "landau_ops.gamma_weak_self_s": "s",
    "landau_ops.gamma_apply_calls": "count",
    "landau_ops.gamma_apply_self_s": "s",
    "solver.workspace_s": "s",
    "solver.implicit_inverses_s": "s",
    "solver.trilinear_constant_s": "s",
    "solver.step_calls": "count",
    "solver.step_ms_p50": "ms",
    "solver.step_ms_tail": "ms",
    "solver.step_ms_tail_pct": "%",
    "solver.step_self_ms_p50": "ms",
    "solver.triple_norm_calls": "count",
    "solver.triple_norm_ms_p50": "ms",
    "solver.h_r_norm_calls": "count",
    "solver.h_r_norm_ms_p50": "ms",
    "solver.transport_ms": "ms",
    "solver.gamma_conv_ms": "ms",
    "solver.picard_iterations": "count",
    "solver.picard_solve_s": "s",
    "solver.state_mb": "MB_computed",
    "solver.picard_traj_mb": "MB_computed",
    "solver.snapshot_write_s": "s",
    "solver.snapshot_bytes": "bytes",
    "diagnostics.series_s": "s",
    "diagnostics.spectra_csv_s": "s",
    "diagnostics.fit_s": "s",
    **{f"verify.{suite}_s": "s" for suite in VERIFY_SUITES},
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "weights.psi_calls": "count",
    "weights.psi_self_s": "s",
    "weights.sweep_s": "s",
    "kolmogorov.exact_propagate_s": "s",
    "kolmogorov.reference_march_s": "s",
    "kolmogorov.smoothing_norm_s": "s",
    "cli.run_s": "s",
    "cli.fit_s": "s",
    "cli.verify_s": "s",
    "cli.self_s": "s",
    "trace.processes": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# per-call samples pooled over the traced processes (ms)
SAMPLED = ("step", "step_self", "triple_norm", "h_r_norm", "transport", "gamma_conv")

_CLOCK_BUDGET_S = 0.25  # per probe of the extra transport / convolution timings


def _probe_ms(fn) -> list[float]:
    """Time repeated calls of fn until the budget is spent (at least one)."""
    out: list[float] = []
    spent = 0.0
    while not out or (spent < _CLOCK_BUDGET_S and len(out) < 25):
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        out.append(took * 1e3)
        spent += took
    return out


def process_layers(workload, tracer, out_dir: str, records: list | None) -> dict:
    """Scalars and per-call samples of one traced process, read from its
    spans and output files.  The transport and convolution probes run on the
    final state after the timed region."""
    from landau_hermite import solver as sv

    spans = tracer.spans
    own = tracer.self_times()

    def total(*names: str) -> float:
        return sum(s[2] - s[1] for s in spans if s[0] in names)

    def count(*names: str) -> int:
        return sum(1 for s in spans if s[0] in names)

    def self_sum(*names: str) -> float:
        return sum(t for s, t in zip(spans, own) if s[0] in names)

    scalars = {
        "hermite_core.get_basis_s": total("hermite_core.get_basis"),
        "hermite_core.spectrum_op_calls": count(*SPECTRUM_OPS),
        "hermite_core.spectrum_op_self_s": self_sum(*SPECTRUM_OPS),
        "landau_ops.get_operators_s": total("landau_ops.get_operators"),
        "landau_ops.oracle_calls": count("landau_ops.gamma_quadrature_oracle"),
        "landau_ops.oracle_self_s": self_sum("landau_ops.gamma_quadrature_oracle"),
        "landau_ops.gamma_weak_calls": count("landau_ops.gamma_weak_D",
                                             "landau_ops.gamma_weak_E"),
        "landau_ops.gamma_weak_self_s": self_sum("landau_ops.gamma_weak_D",
                                                 "landau_ops.gamma_weak_E"),
        "landau_ops.gamma_apply_calls": count("landau_ops.gamma_apply"),
        "landau_ops.gamma_apply_self_s": self_sum("landau_ops.gamma_apply"),
        "solver.workspace_s": total("solver.workspace"),
        "solver.implicit_inverses_s": total("solver.implicit_inverses"),
        "solver.trilinear_constant_s": total("solver.trilinear_constant"),
        "solver.step_calls": count("solver.step_imex"),
        "solver.triple_norm_calls": count("solver.triple_norm"),
        "solver.h_r_norm_calls": count("solver.h_r_norm"),
        "solver.picard_solve_s": total("solver.picard_solve"),
        "solver.snapshot_write_s": total("solver.write_snapshot"),
        "diagnostics.series_s": total("diagnostics.series_from_snapshots"),
        "diagnostics.spectra_csv_s": total("diagnostics.write_spectra_csv",
                                           "diagnostics.read_spectra_csv"),
        "diagnostics.fit_s": total("diagnostics.fit_rates"),
        **{f"verify.{suite}_s": total(f"verify.{suite}") for suite in VERIFY_SUITES},
        "verify.checks": len(records) if records is not None else 0,
        "verify.checks_failed": sum(1 for r in records or () if r["status"] != "pass"),
        "weights.psi_calls": count("weights.psi"),
        "weights.psi_self_s": self_sum("weights.psi"),
        "weights.sweep_s": total(*WEIGHT_SWEEPS),
        "kolmogorov.exact_propagate_s": total("kolmogorov.exact_propagate"),
        "kolmogorov.reference_march_s": total("kolmogorov.imex_reference_march"),
        "kolmogorov.smoothing_norm_s": total("kolmogorov.smoothing_norm"),
        "cli.run_s": total("cli.run"),
        "cli.fit_s": total("cli.fit"),
        "cli.verify_s": total("cli.verify"),
        "cli.self_s": self_sum("cli.run", "cli.fit", "cli.verify"),
        "trace.spans": len(spans),
        "solver.picard_iterations": 0,
        "solver.state_mb": 0.0,
        "solver.picard_traj_mb": 0.0,
        "solver.snapshot_bytes": 0,
    }
    samples = {
        "step": [d * 1e3 for d in tracer.durations("solver.step_imex")],
        "step_self": [t * 1e3 for s, t in zip(spans, own) if s[0] == "solver.step_imex"],
        "triple_norm": [d * 1e3 for d in tracer.durations("solver.triple_norm")],
        "h_r_norm": [d * 1e3 for d in tracer.durations("solver.h_r_norm")],
        "transport": [],
        "gamma_conv": [],
    }
    if workload.scheme is not None:
        snapshots = [f for f in os.listdir(out_dir) if f.endswith(".lnsp")]
        scalars["solver.snapshot_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in snapshots
        )
        cfg = sv.load_config(os.path.join(os.path.dirname(out_dir), "run.cfg"))
        final = sv.read_snapshot(os.path.join(out_dir, "final.lnsp"), cfg)
        # computed from array shapes: complex128 coefficients
        scalars["solver.state_mb"] = final.c.size * 16 / 1e6
        if workload.scheme == "picard":
            # the previous and the current iterate, each (n_steps+1) states
            scalars["solver.picard_traj_mb"] = (
                2 * (workload.n_steps + 1) * final.c.size * 16 / 1e6
            )
            with open(os.path.join(out_dir, "picard_report.json"), encoding="utf-8") as fh:
                scalars["solver.picard_iterations"] = json.load(fh)["iterations"]
        # after the timed region: traced spans of these probes are not read
        samples["transport"] = _probe_ms(lambda: sv.apply_transport(final))
        samples["gamma_conv"] = _probe_ms(lambda: sv.gamma_conv(final, final))
    return {"scalars": scalars, "samples": samples}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); (0, 0) when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n


def aggregate(traced: list[dict], wall_traced: list[float],
              wall_plain: list[float]) -> dict:
    """Per-layer metrics of a run: scalars are medians over the traced
    processes, per-call figures medians over the pooled calls."""

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    pooled = {k: [v for t in traced for v in t["samples"][k]] for k in SAMPLED}
    values = {
        name: med([t["scalars"][name] for t in traced])
        for name in traced[0]["scalars"]
    } if traced else {}
    step_tail, step_pct = tail(pooled["step"])
    values.update({
        "solver.step_ms_p50": med(pooled["step"]),
        "solver.step_ms_tail": step_tail,
        "solver.step_ms_tail_pct": step_pct,
        "solver.step_self_ms_p50": med(pooled["step_self"]),
        "solver.triple_norm_ms_p50": med(pooled["triple_norm"]),
        "solver.h_r_norm_ms_p50": med(pooled["h_r_norm"]),
        "solver.transport_ms": med(pooled["transport"]),
        "solver.gamma_conv_ms": med(pooled["gamma_conv"]),
        "trace.processes": len(traced),
        "trace.overhead_s": med(wall_traced) - med(wall_plain),
    })
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in UNITS.items()}
