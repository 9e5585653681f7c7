"""Verify records: one reduction and one status rule, decided from the
printed tolerance."""

import math

from landau_hermite import verify
from landau_hermite import weights


def test_upper_sweep_above_its_printed_bound_fails(monkeypatch):
    # a sweep constant above the printed tolerance must not read "pass" just
    # because it is finite
    above = {1.0: 1.5, 2.0: 2.5}
    monkeypatch.setattr(weights, "time_integral_upper_ratio", lambda alpha: above[alpha])
    records = {r["check"]: r for r in verify.SUITES["weights"]()}
    for alpha, name in ((1.0, "time_integral_upper_alpha1_finite"),
                        (2.0, "time_integral_upper_alpha2_finite")):
        rec = records[name]
        assert rec["worst_value"] == above[alpha]
        assert rec["worst_value"] > rec["tolerance"]
        assert rec["status"] == "fail"


def test_nan_residual_after_finite_ones_fails(monkeypatch):
    # a NaN among the sampled residuals must fail the check, wherever it falls
    real = weights.transport_identity_residual
    calls = []

    def nan_on_fourth(*args):
        calls.append(args)
        return math.nan if len(calls) == 4 else real(*args)

    monkeypatch.setattr(weights, "transport_identity_residual", nan_on_fourth)
    records = {r["check"]: r for r in verify.SUITES["weights"]()}
    assert len(calls) == 10
    rec = records["transport_identity"]
    assert math.isnan(rec["worst_value"])
    assert rec["status"] == "fail"


def test_record_reduces_residuals():
    assert verify._record("s", "c", [0.2, 0.7, 0.1], 1.0)["worst_value"] == 0.7
    assert verify._record("s", "c", [0.2, 0.7, 0.1], 0.0, at_least=True)["worst_value"] == 0.1
    # one NaN among finite residuals fails either side
    values = [0.1, math.nan, 0.2]
    assert verify._record("s", "c", values, 1.0)["status"] == "fail"
    assert verify._record("s", "c", values, -1.0, at_least=True)["status"] == "fail"


def test_record_rule():
    assert verify._record("s", "c", 0.5, 1.0)["status"] == "pass"
    assert verify._record("s", "c", 1.5, 1.0)["status"] == "fail"
    assert verify._record("s", "c", 1.5, 1.0, at_least=True)["status"] == "pass"
    assert verify._record("s", "c", 0.5, 1.0, at_least=True)["status"] == "fail"
    # a non-finite worst value fails either side, even against an infinite bound
    for worst in (math.nan, math.inf, -math.inf):
        assert verify._record("s", "c", worst, math.inf)["status"] == "fail"
        assert verify._record("s", "c", worst, -math.inf, at_least=True)["status"] == "fail"
