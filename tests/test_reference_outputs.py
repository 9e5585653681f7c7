"""The text outputs of three small runs against committed reference files.

Each directory tests/data/reference/<name>/ holds a config, `run.cfg`, and
the `ledger.csv`, `spectra.csv` and (picard scheme) `picard_report.json`
that `landau-hermite run` wrote for it: d1 is a d_x = 1 rough Picard run,
d2 a d_x = 2 kernel-recipe Picard run and d3 a d_x = 3 rough IMEX run, the
configs CI reruns.  A change that moves these numbers on purpose
regenerates the files from the repository root with

    for c in d1 d2 d3; do
      python -m landau_hermite.cli run --config tests/data/reference/$c/run.cfg --out ref/$c
      cp ref/$c/*.csv ref/$c/*.json tests/data/reference/$c/
    done

(d3 writes no json) and states the largest change per file.

The rows, times, kinds, indices, `iterations` and `reason` must match
exactly; every other value within 1e-12 of its scale: the datum's norm for
`h_r_norm`, the largest value for `triple_norm`, the last value for
`dissipation_integral`, each time's total of its kind for `spectra.csv`,
the sup norm of the trajectory for the Picard distances, and the value
itself for `c0_estimate` and `smallness_product`.  A relative bound does not
fit a distance that is the difference of two nearly equal trajectories, so
a distance ratio lambda = d[k+1] / d[k] gets the bound that distances within
eps of theirs imply, eps (1 + lambda) / (d[k] - eps).
"""

import csv
import json
from collections import defaultdict
from pathlib import Path

import pytest

from landau_hermite import cli

REFERENCE = Path(__file__).parent / "data" / "reference"
RTOL = 1e-12


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_ledger(ref, new):
    assert new[0] == ref[0] == ["t", "h_r_norm", "triple_norm", "dissipation_integral"]
    assert len(new) == len(ref)
    ref_rows = [[float(v) for v in row] for row in ref[1:]]
    new_rows = [[float(v) for v in row] for row in new[1:]]
    scales = (
        ref_rows[0][1],  # the datum's norm
        max(row[2] for row in ref_rows),
        ref_rows[-1][3],
    )
    for k, (r, n) in enumerate(zip(ref_rows, new_rows)):
        assert n[0] == r[0], k
        for col, scale in enumerate(scales, 1):
            assert abs(n[col] - r[col]) <= RTOL * scale, (k, ref[0][col])
    return max(row[1] for row in ref_rows)  # the trajectory's sup norm


def check_spectra(ref, new):
    assert new[0] == ref[0]
    assert len(new) == len(ref)
    totals = defaultdict(float)
    for t, kind, _, value in ref[1:]:
        totals[t, kind] += float(value)
    for k, (r, n) in enumerate(zip(ref[1:], new[1:])):
        assert n[:3] == r[:3], k
        assert abs(float(n[3]) - float(r[3])) <= RTOL * totals[r[0], r[1]], k


def check_report(ref, new, sup_norm):
    assert sorted(new) == sorted(ref)
    for key in ("converged", "non_contraction", "failed_iterate", "reason", "iterations"):
        assert new[key] == ref[key], key
    for key in ("c0_estimate", "smallness_product"):
        assert abs(new[key] - ref[key]) <= RTOL * abs(ref[key]), key
    eps = RTOL * sup_norm
    d = ref["distances"]
    assert len(new["distances"]) == len(d)
    for a, b in zip(new["distances"], d):
        assert abs(a - b) <= eps

    def ratio_tol(k):  # lambdas[k] = distances[k + 1] / distances[k]
        return eps * (1.0 + ref["lambdas"][k]) / (d[k] - eps)

    assert len(new["lambdas"]) == len(ref["lambdas"])
    for k, (a, b) in enumerate(zip(new["lambdas"], ref["lambdas"])):
        assert a == b if isinstance(b, str) else abs(a - b) <= ratio_tol(k), k
    factor = ref["contraction_factor"]  # the largest finite lambda, else "inf"
    if isinstance(factor, str):
        assert new["contraction_factor"] == factor
    else:
        k = ref["lambdas"].index(factor)
        assert abs(new["contraction_factor"] - factor) <= ratio_tol(k)


@pytest.mark.parametrize("name", ["d1", "d2", "d3"])
def test_run_reproduces_reference_outputs(name, tmp_path):
    ref = REFERENCE / name
    assert cli.main(["run", "--config", str(ref / "run.cfg"), "--out", str(tmp_path)]) == 0
    sup_norm = check_ledger(read_csv(ref / "ledger.csv"), read_csv(tmp_path / "ledger.csv"))
    check_spectra(read_csv(ref / "spectra.csv"), read_csv(tmp_path / "spectra.csv"))
    report = ref / "picard_report.json"
    assert report.exists() == (tmp_path / "picard_report.json").exists()
    if report.exists():
        check_report(
            json.loads(report.read_text(encoding="utf-8")),
            json.loads((tmp_path / "picard_report.json").read_text(encoding="utf-8")),
            sup_norm,
        )
