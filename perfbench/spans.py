"""In-memory spans around the package's public functions, installed from the
benchmark's own files (the package itself carries no timers).

`Tracer.wrap` replaces a module attribute with a timing wrapper and also
rebinds every other module of the package that imported the same object
(`from .hermite_core import get_basis` copies the reference).  Calls made
inside the package resolve through module globals, so nested calls such as
`step_imex -> h_r_norm` or `run -> triple_norm` nest as child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PACKAGE = "landau_hermite"

# span name -> (module, attribute); "Class.method" attributes are methods
TRACED = {
    "hermite_core.get_basis": ("hermite_core", "get_basis"),
    "hermite_core.raise_op": ("hermite_core", "raise_op"),
    "hermite_core.lower_op": ("hermite_core", "lower_op"),
    "hermite_core.multiply_v": ("hermite_core", "multiply_v"),
    "hermite_core.differentiate_v": ("hermite_core", "differentiate_v"),
    "hermite_core.angular": ("hermite_core", "angular"),
    "hermite_core.inner_product": ("hermite_core", "inner_product"),
    "landau_ops.get_operators": ("landau_ops", "get_operators"),
    "landau_ops.gamma_quadrature_oracle": ("landau_ops", "gamma_quadrature_oracle"),
    "landau_ops.gamma_weak_D": ("landau_ops", "gamma_weak_D"),
    "landau_ops.gamma_weak_E": ("landau_ops", "gamma_weak_E"),
    "landau_ops.gamma_apply": ("landau_ops", "gamma_apply"),
    "solver.workspace": ("solver", "_Workspace.__init__"),
    "solver.implicit_inverses": ("solver", "_Workspace.implicit_inverses"),
    "solver.trilinear_constant": ("solver", "_Workspace.trilinear_constant"),
    "solver.run": ("solver", "run"),
    "solver.picard_solve": ("solver", "picard_solve"),
    "solver.step_imex": ("solver", "step_imex"),
    "solver.triple_norm": ("solver", "triple_norm"),
    "solver.h_r_norm": ("solver", "h_r_norm"),
    "solver.apply_transport": ("solver", "apply_transport"),
    "solver.gamma_conv": ("solver", "gamma_conv"),
    "solver.write_snapshot": ("solver", "write_snapshot"),
    "diagnostics.series_from_snapshots": ("diagnostics", "series_from_snapshots"),
    "diagnostics.write_spectra_csv": ("diagnostics", "write_spectra_csv"),
    "diagnostics.read_spectra_csv": ("diagnostics", "read_spectra_csv"),
    "diagnostics.fit_rates": ("diagnostics", "fit_rates"),
    "weights.psi": ("weights", "psi"),
    "weights.psi_derivative_bounds": ("weights", "psi_derivative_bounds"),
    "weights.time_integral_lower_ratio": ("weights", "time_integral_lower_ratio"),
    "weights.time_integral_upper_ratio": ("weights", "time_integral_upper_ratio"),
    "weights.submultiplicativity_check": ("weights", "submultiplicativity_check"),
    "weights.weight_triangle_check": ("weights", "weight_triangle_check"),
    "kolmogorov.exact_propagate": ("kolmogorov", "exact_propagate"),
    "kolmogorov.imex_reference_march": ("kolmogorov", "imex_reference_march"),
    "kolmogorov.smoothing_norm": ("kolmogorov", "smoothing_norm"),
    "cli.run": ("cli", "cmd_run"),
    "cli.fit": ("cli", "cmd_fit"),
    "cli.verify": ("cli", "cmd_verify"),
}

# the untraced run times only the march, one call per process
MARCH_ONLY = ("solver.run", "solver.picard_solve")


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), None, stack[-1] if stack else None]
            index = len(self.spans)
            self.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def wrap(self, name: str, module_name: str, attr: str) -> None:
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, self.span(name, cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        wrapped = self.span(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith(PACKAGE) and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def wrap_suites(self, suites: dict) -> None:
        """Verify suites are generator functions; the span covers draining
        one, which is when its checks run."""
        for suite, gen in list(suites.items()):
            drain = self.span(f"verify.{suite}", lambda gen=gen: list(gen()))
            suites[suite] = drain

    def install(self, names=None) -> None:
        """Wrap the TRACED functions (only `names` when given) and, for a
        full trace, the verify suites."""
        for mod in ("hermite_core", "landau_ops", "solver", "diagnostics",
                    "weights", "kolmogorov", "verify", "cli"):
            importlib.import_module(f"{PACKAGE}.{mod}")
        for name, (module_name, attr) in TRACED.items():
            if names is None or name in names:
                self.wrap(name, module_name, attr)
        if names is None:
            self.wrap_suites(sys.modules[f"{PACKAGE}.verify"].SUITES)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap on a single thread)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own
