"""Snapshot format, CLI subcommands, determinism of emitted artifacts."""

import importlib.util
import json
import math
import os
import resource
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landau_hermite import cli, config, kernel
from landau_hermite.config import SolverConfig, load_config, min_peak_bytes, parse_config_text
from landau_hermite.solver import (
    build_initial_state,
    run,
    write_snapshot,
    read_snapshot,
)

CONFIG_TEXT = """
# small deterministic run
N = 8
K = 3
d_x = 1
dt = 0.005
T = 0.05
r = 2.0
scheme = imex_euler
seed = 11
recipe = rough
g0_norm = 0.001
record_every = 5
snapshot_every = 5
"""


def small_config():
    return SolverConfig(N=8, K=3, d_x=1, dt=5e-3, T=0.05, r=2.0, seed=11,
                        recipe="rough", g0_norm=1e-3, record_every=5)


def test_snapshot_round_trip(tmp_path):
    cfg = small_config()
    state = build_initial_state(cfg)
    state.time = 0.125
    path = tmp_path / "state.lnsp"
    write_snapshot(path, state)
    back = read_snapshot(path)
    assert back.config.N == cfg.N and back.config.K == cfg.K
    assert back.config.d_x == cfg.d_x and back.config.r == cfg.r
    assert back.time == 0.125
    np.testing.assert_array_equal(back.c, state.c)
    assert back.c.flags.writeable


def test_snapshot_header_layout(tmp_path):
    cfg = small_config()
    state = build_initial_state(cfg)
    path = tmp_path / "state.lnsp"
    write_snapshot(path, state)
    raw = path.read_bytes()
    assert raw[:4] == b"LNSP"
    version, d_x, K, N = struct.unpack("<IIII", raw[4:20])
    r, t = struct.unpack("<dd", raw[20:36])
    assert (version, d_x, K, N) == (1, 1, 3, 8)
    assert r == 2.0 and t == 0.0
    n_complex = (2 * 3 + 1) * 165
    assert len(raw) == 36 + 16 * n_complex
    # first coefficient: interleaved little-endian (re, im)
    re, im = struct.unpack("<dd", raw[36:52])
    assert complex(re, im) == state.c[0, 0]


def test_snapshot_rejects_garbage(tmp_path):
    p = tmp_path / "bad.lnsp"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_snapshot(p)


def test_snapshot_rejects_header_of_another_config(tmp_path):
    cfg = small_config()
    path = tmp_path / "state.lnsp"
    write_snapshot(path, build_initial_state(cfg))
    assert read_snapshot(path, cfg).config is cfg
    for other in (replace(cfg, r=2.5), replace(cfg, K=2)):
        with pytest.raises(ValueError, match="header"):
            read_snapshot(path, other)


def test_snapshot_rejects_short_header(tmp_path):
    p = tmp_path / "short.lnsp"
    p.write_bytes(b"LNSP" + struct.pack("<III", 1, 1, 3))
    with pytest.raises(ValueError, match="header truncated"):
        read_snapshot(p)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
def test_snapshot_rejects_non_finite_time(tmp_path, time):
    # the header's time starts a march from the snapshot: a NaN would
    # surface only later, as a non-finite ledger entry
    path = tmp_path / "state.lnsp"
    write_snapshot(path, build_initial_state(small_config()))
    raw = bytearray(path.read_bytes())
    raw[28:36] = struct.pack("<d", time)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="time"):
        read_snapshot(path)


def test_snapshot_rejects_header_whose_r_overflows_the_weight(tmp_path):
    path = tmp_path / "state.lnsp"
    write_snapshot(path, build_initial_state(small_config()))
    raw = bytearray(path.read_bytes())
    raw[20:28] = struct.pack("<d", 400.0)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="r = 400 overflows"):
        read_snapshot(path)


# reads, under a 1 GiB address-space limit, a 36-byte file whose header
# claims d_x = 3, K = 4000: an 8001^3-mode workspace if it were trusted
OVERSIZED_HEADER_CHILD = """
import resource, struct, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from landau_hermite.solver import read_snapshot
path = sys.argv[1]
with open(path, "wb") as fh:
    fh.write(b"LNSP" + struct.pack("<IIIIdd", 1, 3, 4000, 8, 2.0, 0.0))
try:
    read_snapshot(path)
except ValueError as exc:
    print("ValueError:", exc)
"""


def test_snapshot_rejects_header_larger_than_file(tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    res = subprocess.run(
        [sys.executable, "-c", OVERSIZED_HEADER_CHILD, str(tmp_path / "big.lnsp")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("ValueError: snapshot payload is 0 bytes"), res.stdout


def test_snapshot_rejects_payload_of_another_size(tmp_path):
    path = tmp_path / "state.lnsp"
    write_snapshot(path, build_initial_state(small_config()))
    raw = path.read_bytes()
    for cut in (raw[:-16], raw + b"\x00" * 16):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)


FIELD_NAMES = tuple(f.name for f in fields(SolverConfig))


def names_a_field(message: str) -> bool:
    """A SolverConfig refusal starts with the name of the field it refuses."""
    return message.split(" ", 1)[0] in FIELD_NAMES


# values near and past each field's range; text without '#', '=' or a line
# break, so each drawn pair stays one key = value line
CONFIG_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["0", "1e-3", "2e-3", "0.01", "0.05", "1.4", "2.0", "400", "1e999",
                     "nan", "-inf", "9" * 5000]),
    st.floats().map(repr),
    st.sampled_from(config.SCHEMES + config.RECIPES),
    st.text(st.characters(categories=["L", "N", "P", "S", "Zs"], exclude_characters="#="),
            max_size=6),
)


# a value each field accepts together with the others' defaults
GOOD_VALUES = dict(N="8", K="3", d_x="2", dt="0.005", T="0.05", r="2.5", scheme="picard",
                   picard_tol="1e-9", picard_max_iter="5", seed="3", recipe="kernel",
                   g0_norm="0.01", record_every="5", snapshot_every="0")


@st.composite
def config_lines(draw):
    kind = draw(st.sampled_from(["pair", "pair", "pair", "blank", "comment", "junk"]))
    if kind == "pair":
        key = draw(st.sampled_from(FIELD_NAMES + ("bogus",)))
        value = draw(st.one_of(st.just(GOOD_VALUES.get(key, "1")), CONFIG_VALUES))
        return f"{key} = {value}" + draw(st.sampled_from(["", "  # note"]))
    return {"blank": "", "comment": "# a comment", "junk": draw(CONFIG_VALUES).replace("=", "")}[kind]


@settings(max_examples=100, deadline=None)
@given(st.lists(config_lines(), max_size=8))
def test_parse_config_text_parses_or_names_the_line_or_field(lines):
    # any text either parses, with every key set once to its converted
    # value, or raises a ValueError that names its line or its field; the
    # config is only parsed, never marched
    text = "\n".join(lines)
    try:
        cfg = parse_config_text(text)
    except ValueError as exc:
        assert str(exc).startswith("line ") or names_a_field(str(exc)), exc
        return
    pairs = [line.split("#", 1)[0].partition("=") for line in lines]
    pairs = [(key.strip(), val.strip()) for key, eq, val in pairs if eq]
    assert len({key for key, _ in pairs}) == len(pairs)
    for key, val in pairs:
        assert getattr(cfg, key) == config._CONFIG_TYPES[key](val), key


# values that a header field may not hold, or may: r and time take any float
BAD_HEADER = dict(
    magic=st.just(b"LNSQ"),
    version=st.sampled_from([0, 2]),
    d_x=st.sampled_from([4, 2**32 - 1]),
    K=st.sampled_from([4000, 2**32 - 1]),
    N=st.sampled_from([0, 3, 2**32 - 1]),
    r=st.floats(),
    time=st.floats(),
    length=st.sampled_from([3, 20, 35]),  # the header cut short
    size=st.sampled_from([-16, 16, None]),  # payload bytes off the claim; None: none
)


@st.composite
def snapshot_bytes(draw):
    """A valid snapshot with up to two header fields, the header length or
    the payload size replaced from BAD_HEADER."""
    f = dict(magic=b"LNSP", version=1, d_x=draw(st.integers(0, 3)), K=draw(st.integers(0, 3)),
             N=draw(st.integers(4, 9)), r=draw(st.sampled_from([1.75, 2.0, 3.0])),
             time=draw(st.floats(allow_nan=False, allow_infinity=False)), length=36, size=0)
    for name in draw(st.lists(st.sampled_from(list(BAD_HEADER)), max_size=2, unique=True)):
        f[name] = draw(BAD_HEADER[name])
    header = struct.pack("<4sIIIIdd", *(f[k] for k in ("magic", "version", "d_x", "K", "N", "r", "time")))
    size = (2 * f["K"] + 1) ** min(f["d_x"], 4) * math.comb(f["N"] + 3, 3) * 16
    size = 0 if f["size"] is None or size > 1 << 20 else size + f["size"]
    payload = np.random.default_rng(draw(st.integers(0, 2**16))).bytes(size)
    return header[: f["length"]] + payload, tuple(f[k] for k in ("d_x", "K", "N", "r", "time"))


@settings(max_examples=100, deadline=None)
@given(snapshot_bytes())
def test_read_snapshot_reads_the_header_or_names_the_field(case):
    # any file either reads back as the header's config, time and payload,
    # building no DFT matrix of the kernel, or raises a ValueError that names
    # the header field or the payload it refuses
    raw, (d_x, K, N, r, time) = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel._Workspace, "_cache", {})
        path = os.path.join(tmp, "state.lnsp")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            state = read_snapshot(path)
        except ValueError as exc:
            message = str(exc)
            named = ("LNSP", "header", "version", "time", "payload")
            assert any(word in message for word in named) or names_a_field(message), exc
            return
        cfg = state.config
        assert (cfg.d_x, cfg.K, cfg.N, cfg.r, state.time) == (d_x, K, N, r, time)
        assert state.c.astype("<c16", order="C").tobytes() == raw[36:]
        ws = state.workspace
        assert "dft_matrices" not in vars(ws)


def run_cli(*args, cwd=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "landau_hermite.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        preexec_fn=preexec_fn,
    )


def limit_address_space():
    """In the child: a 2 GiB address-space limit, so an input that reached
    the allocator with a huge size would fail fast instead of paging."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("scheme", ["imex_euler", "picard"])
def test_cli_run_outputs_and_determinism(tmp_path, scheme):
    # two processes write byte-identical artifacts
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        CONFIG_TEXT.replace("scheme = imex_euler", f"scheme = {scheme}"), encoding="utf-8"
    )
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    res1 = run_cli("run", "--config", str(cfg_path), "--out", str(out1))
    assert res1.returncode == 0, res1.stderr
    res2 = run_cli("run", "--config", str(cfg_path), "--out", str(out2))
    assert res2.returncode == 0, res2.stderr
    names = ["ledger.csv", "spectra.csv", "final.lnsp"]
    if scheme == "picard":
        names.append("picard_report.json")
    for name in names:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} not byte-identical"
    ledger = (out1 / "ledger.csv").read_text().splitlines()
    assert ledger[0] == "t,h_r_norm,triple_norm,dissipation_integral"
    assert len(ledger) == 2 + int(round(0.05 / 0.005))
    snaps = sorted(p.name for p in out1.glob("*.lnsp"))
    assert "final.lnsp" in snaps and "snapshot_000005.lnsp" in snaps


def test_cli_fit_from_spectra(tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(CONFIG_TEXT, encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("run", "--config", str(cfg_path), "--out", str(out)).returncode == 0
    res = run_cli("fit", "--input", str(out / "spectra.csv"), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rates = (out / "fitted_rates.csv").read_text().splitlines()
    assert rates[0] == "t,c_v,c_x,resid_v,resid_x"
    assert len(rates) > 1


def test_cli_verify_suite_json_lines(tmp_path):
    res = run_cli("verify", "--suite", "ladder", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"suite", "check", "status", "worst_value", "tolerance"}
        assert rec["status"] == "pass"
    report = (tmp_path / "verify.jsonl").read_text().splitlines()
    assert len(report) == len(lines)


def test_cli_verify_unknown_suite_fails():
    # rejected by the parser: a usage error naming every choice, no traceback
    from landau_hermite.verify import SUITES

    res = run_cli("verify", "--suite", "bogus")
    assert res.returncode == 2
    assert "invalid choice: 'bogus'" in res.stderr
    assert "Traceback" not in res.stderr
    for name in [*SUITES, "all"]:
        assert f"'{name}'" in res.stderr


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", "N = 8\nbogus = 1\n", "line 2: unknown config key 'bogus'"),
        ("run", CONFIG_TEXT.replace("N = 8", "N = 3"), "N must be at least 4"),
        ("run", CONFIG_TEXT.replace("r = 2.0", "r = 400"), "r = 400 overflows the weight"),
        ("run", None, "No such file"),
        ("fit", "t,kind,index,value\n0,hermite,0,inf\n", "line 2: value 'inf' is not finite"),
        ("fit", None, "No such file"),
        ("fit", "t,kind,index,value\n0,hermite,1000000000000,1\n0,fourier,0,1\n",
         "line 2: hermite index 1000000000000 at time 0.0 follows a gap: index 0 is missing"),
        ("run", CONFIG_TEXT, "File exists"),
        ("fit", "t,kind,index,value\n0,hermite,0,1\n0,fourier,0,1\n", "File exists"),
        ("verify", None, "File exists"),
    ],
    ids=["unknown_key", "N_3", "r400", "missing_config", "csv_inf", "missing_csv",
         "csv_huge_index", "run_out_is_a_file", "fit_out_is_a_file", "verify_out_is_a_file"],
)
def test_cli_rejected_input_exits_2(tmp_path, command, text, message):
    # bad input exits 2 with one stderr line, apart from a failing verify
    # check (exit 1); the line names the offending line where there is one.
    # An --out that names an existing file cannot be created: bad input too.
    # Each case runs under an address-space limit: refused input allocates
    # nothing large
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    if message == "File exists":
        out.write_text("", encoding="utf-8")
    if command == "verify":
        args = ["--suite", "ladder"]
    else:
        args = ["--config" if command == "run" else "--input", str(path)]
    res = run_cli(command, *args, "--out", str(out), preexec_fn=limit_address_space)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    [line] = res.stderr.splitlines()
    assert line.startswith(f"landau-hermite {command}: error: ") and message in line, line


@pytest.mark.parametrize(
    "text",
    ["N = 4\nK = 100000\nd_x = 3\n", "scheme = picard\nT = 1e6\ndt = 1e-3\nN = 8\nK = 4\n"],
    ids=["lattice", "picard_buffer"],
)
def test_cli_refuses_a_config_that_cannot_fit(tmp_path, text):
    # an 8e15-mode lattice, or a 12 TiB Picard trajectory buffer, cannot fit
    # under the child's 2 GiB address-space limit: refused like bad input,
    # from the config alone, before the output directory or any array
    path = tmp_path / "cfg.txt"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    res = run_cli("run", "--config", str(path), "--out", str(out), preexec_fn=limit_address_space)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    [line] = res.stderr.splitlines()
    assert line.startswith("landau-hermite run: error: the config needs at least "), line
    assert line.endswith(" MiB, above the address-space limit of 2048 MiB"), line
    assert not out.exists()


def test_cli_refuses_a_config_above_physical_memory(monkeypatch, tmp_path, capsys):
    # with no address-space limit set the physical memory bounds the run:
    # a 1 MiB machine refuses this 2 MiB config (a one-step run that would
    # fit anywhere, should the refusal fail) with exit 2 and one line
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    monkeypatch.setattr(cli.resource, "getrlimit", lambda which: unlimited)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1 << 20)
    text = CONFIG_TEXT.replace("d_x = 1", "d_x = 3").replace("T = 0.05", "T = 0.005")
    path = tmp_path / "cfg.txt"
    path.write_text(text, encoding="utf-8")
    assert min_peak_bytes(parse_config_text(text)) > 2 << 20
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("landau-hermite run: error: the config needs at least 2 MiB"), line
    assert line.endswith(" MiB, above the physical memory of 1 MiB"), line
    assert not out.exists()


def test_refusal_takes_the_smaller_known_limit(monkeypatch, capsys):
    # the smaller of the two figures names the refusal; with neither known
    # nothing is refused.  Only the arithmetic estimate runs here
    huge = parse_config_text("N = 4\nK = 100000\nd_x = 3\n")
    limits = {"rlimit": (2 << 30, 2 << 30), "physical": 8 << 30}
    monkeypatch.setattr(cli.resource, "getrlimit", lambda which: limits["rlimit"])
    monkeypatch.setattr(cli, "_physical_memory", lambda: limits["physical"])
    for physical, name in ((8 << 30, "address-space limit of 2048"), (1 << 30, "physical memory of 1024")):
        limits["physical"] = physical
        with pytest.raises(SystemExit) as exc:
            cli._refuse_what_cannot_fit(huge)
        assert exc.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.endswith(f" MiB, above the {name} MiB"), line
    limits.update(rlimit=(resource.RLIM_INFINITY,) * 2, physical=None)
    assert cli._refuse_what_cannot_fit(huge) is None


def test_physical_memory_is_positive_or_unknown():
    physical = cli._physical_memory()
    assert physical is None or (isinstance(physical, int) and physical > 0)


def test_shipped_configs_fit_the_refusal_limit(monkeypatch):
    # each benchmark march config (at seed 0) and each reference config
    # stays below the 2 GiB under which the refusal test runs, so the CLI
    # accepts it there
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    configs = [
        parse_config_text(w.config_text(0))
        for w in workloads.WORKLOADS.values()
        if w.scheme is not None
    ]
    for name in ("d1", "d2", "d3"):
        configs.append(load_config(root / "tests" / "data" / "reference" / name / "run.cfg"))
    assert len(configs) == 6
    for cfg in configs:
        assert min_peak_bytes(cfg) <= 2 << 30, cfg


def test_cli_picard_scheme_writes_report(tmp_path):
    text = CONFIG_TEXT.replace("scheme = imex_euler", "scheme = picard")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    res = run_cli("run", "--config", str(cfg_path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads((out / "picard_report.json").read_text())
    assert rep["converged"] is True
    assert rep["non_contraction"] is False


@pytest.mark.parametrize("scheme", ["imex_euler", "picard"])
def test_cli_run_zero_recipe(tmp_path, scheme):
    # a zero datum marches to zeros; its energy ratio is undefined, not an error
    text = CONFIG_TEXT.replace("scheme = imex_euler", f"scheme = {scheme}")
    text = text.replace("recipe = rough", "recipe = zero")
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    res = run_cli("run", "--config", str(cfg_path), "--out", str(out))
    assert res.returncode == 0, res.stderr
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert len(ledger) == 12
    assert all(row.split(",")[1] == "0" for row in ledger[1:])
    assert (out / "spectra.csv").exists() and (out / "final.lnsp").exists()
    assert (scheme == "picard") == (out / "picard_report.json").exists()
