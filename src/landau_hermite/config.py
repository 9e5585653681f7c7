"""The run configuration: the `SolverConfig` fields, their ranges, and the
flat key=value config file that sets them.

A config file is UTF-8 text of `key = value` lines, '#' starting a comment;
each key is a `SolverConfig` field name and may appear once.  A value that
its field's type cannot parse, or that `SolverConfig` rejects, raises
ValueError naming the line or the field.  `min_peak_bytes` bounds from
below the memory a run of a config needs, by arithmetic alone, so a config
that cannot fit is refused before its lattice is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "SCHEMES",
    "RECIPES",
    "SolverConfig",
    "parse_config_text",
    "load_config",
    "min_peak_bytes",
]

SCHEMES = ("imex_euler", "picard")
RECIPES = ("zero", "rough", "gaussian", "kernel")


@dataclass
class SolverConfig:
    N: int = 16
    K: int = 8
    d_x: int = 1
    dt: float = 2e-3
    T: float = 1.0
    r: float = 2.0
    scheme: str = "imex_euler"
    picard_tol: float = 1e-9
    picard_max_iter: int = 25
    seed: int = 0
    recipe: str = "rough"
    g0_norm: float = 1e-3
    record_every: int = 25
    snapshot_every: int = 0

    def __post_init__(self):
        for name in ("dt", "T", "r", "picard_tol", "g0_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.r <= 1.5:
            raise ValueError("r must exceed 3/2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if not (
            math.isfinite(self.T / self.dt)  # inf when dt is tiny against T
            and abs(self.n_steps * self.dt - self.T) <= 1e-12 * max(self.T, 1.0)
        ):
            raise ValueError("T must be an integer multiple of dt")
        if self.picard_tol < 0:
            raise ValueError("picard_tol must be >= 0")
        if self.picard_max_iter < 1:
            raise ValueError("picard_max_iter must be at least 1")
        if self.g0_norm < 0:
            raise ValueError("g0_norm must be >= 0")
        if self.record_every < 0 or self.snapshot_every < 0:
            raise ValueError("record_every and snapshot_every must be >= 0")
        if self.snapshot_every and (
            not self.record_every or self.snapshot_every % self.record_every
        ):
            # snapshots are written from the recorded states only
            raise ValueError("snapshot_every must be a multiple of record_every > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.N < 4:
            raise ValueError("N must be at least 4")
        if self.d_x not in (0, 1, 2, 3):
            raise ValueError("d_x must be 0..3")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        try:  # the largest weight <eta>^(2r), at the lattice corner
            (1.0 + self.K**2 * self.d_x) ** self.r
        except OverflowError:  # r * ln(1 + K^2 d_x) above about 709.8
            raise ValueError(
                f"r = {self.r:g} overflows the weight (1 + K^2 d_x)^r at "
                f"K = {self.K}, d_x = {self.d_x}"
            ) from None
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.recipe not in RECIPES:
            raise ValueError(f"recipe must be one of {RECIPES}")

    @property
    def n_steps(self) -> int:
        """Steps of size dt from 0 to T (T is a multiple of dt)."""
        return round(self.T / self.dt)


_CONVERTERS = {"int": int, "float": float, "str": str}  # annotations are strings
_CONFIG_TYPES = {f.name: _CONVERTERS[f.type] for f in fields(SolverConfig)}


def parse_config_text(text: str) -> SolverConfig:
    """Flat key=value lines, UTF-8, '#' comments; keys are the SolverConfig
    field names."""
    values: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(
                f"line {lineno}: duplicate config key {key!r} "
                f"(first set on line {first_line[key]})"
            )
        first_line[key] = lineno
        convert = _CONFIG_TYPES[key]
        try:
            values[key] = convert(val)
        except ValueError:
            raise ValueError(
                f"line {lineno}: key {key!r} expects {convert.__name__}, got {val!r}"
            ) from None
    return SolverConfig(**values)


def load_config(path) -> SolverConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def min_peak_bytes(cfg: SolverConfig) -> int:
    """A lower bound on the peak bytes of a run of cfg, computed from
    (N, K, d_x, scheme, n_steps) without listing the lattice: the state,
    n_modes = (2K+1)^d_x rows of M = comb(N+3, 3) complex coefficients;
    the kernel's real (M, L^d_x) grid, L = 3K+1; and, for picard, the
    trajectory buffer of (n_steps+1) M (n_modes - n_modes // 2) complex
    coefficients."""
    M = math.comb(cfg.N + 3, 3)
    n_modes = (2 * cfg.K + 1) ** cfg.d_x
    total = 16 * n_modes * M + 8 * M * (3 * cfg.K + 1) ** cfg.d_x
    if cfg.scheme == "picard":
        total += 16 * (cfg.n_steps + 1) * M * (n_modes - n_modes // 2)
    return total
