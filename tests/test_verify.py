"""Verify records: one reduction and one status rule, decided from the
printed tolerance."""

import math

import numpy as np
import pytest

from landau_hermite import hermite_core as hc
from landau_hermite import landau_ops as lo
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


def ladder_residuals_one_pair(s, s2):
    """The four ladder residuals of one pair (s, s2), one spectrum at a time
    through the hermite_core wrappers, three per check."""
    out = {"commutation": [], "adjointness": [], "rotation_skew": [],
           "rotation_ladder_identity": []}
    for j in (1, 2, 3):
        c = (hc.lower_op(j, hc.raise_op(j, s)) - hc.raise_op(j, hc.lower_op(j, s))).coeffs - s.coeffs
        out["commutation"].append(np.max(np.abs(c)))
        out["adjointness"].append(abs(hc.inner_product(hc.raise_op(j, s), s2)
                                      - hc.inner_product(s, hc.lower_op(j, s2))))
    for k, j in ((1, 2), (2, 3), (3, 1)):
        out["rotation_skew"].append(abs(hc.inner_product(hc.angular(k, j, s), s2)
                                        + hc.inner_product(s, hc.angular(k, j, s2))))
        ladder = (hc.multiply_v(j, hc.differentiate_v(k, s))
                  - hc.multiply_v(k, hc.differentiate_v(j, s)))
        out["rotation_ladder_identity"].append(
            np.max(np.abs(hc.angular(k, j, s).coeffs - ladder.coeffs)))
    return out


def test_stacked_ladder_residuals_equal_the_per_spectrum_formula():
    # the suite draws its 100 pairs (s, s2) from seed 100 at N = 12 and
    # applies each matrix once to their stacked block; the first three
    # draws must give the lone-spectrum residuals bit for bit
    got = verify._ladder_residuals()
    assert all(r.shape == (100, 3) for r in got.values())
    rng = np.random.default_rng(100)
    for n in range(3):
        s = hc.random_spectrum(12, rng, max_level=10)
        s2 = hc.random_spectrum(12, rng, max_level=10)
        for name, want in ladder_residuals_one_pair(s, s2).items():
            assert got[name][n].tolist() == want, (name, n)


def test_stacked_coercivity_residuals_equal_the_per_spectrum_formula():
    # |(L1 g, g) - (|||g|||_v^2 - 3 |g|^2)| for the suite's draws from seed
    # 101 at N = 10, one spectrum at a time, against the stacked block
    got = verify._coercivity_residuals()
    assert got.shape == (100,)
    rng = np.random.default_rng(101)
    for n in range(3):
        g = hc.random_spectrum(10, rng, max_level=8)
        lhs = hc.inner_product(lo.apply_L1(g), g).real
        total = 0.0
        for j in (1, 2, 3):
            total += 2.0 * hc.differentiate_v(j, g).norm() ** 2
            total += 0.5 * hc.multiply_v(j, g).norm() ** 2
        for k in (1, 2, 3):
            for j in (1, 2, 3):
                if k != j:
                    total += 0.5 * hc.angular(k, j, g).norm() ** 2
        assert got[n] == abs(lhs - (total - 3.0 * g.norm() ** 2)), n


@pytest.mark.parametrize("N, seed, per_draw", [(12, 100, 2), (10, 101, 1)])
def test_drawn_blocks_equal_successive_random_spectra(N, seed, per_draw):
    # one standard_normal call per block draws what 100 * per_draw
    # successive random_spectrum calls draw, bit for bit
    blocks = verify._draws(N, np.random.default_rng(seed), 100, per_draw)
    rng = np.random.default_rng(seed)
    for n in range(100):
        for block in blocks:
            want = hc.random_spectrum(N, rng, max_level=N - 2).coeffs
            assert np.array_equal(block[:, n], want), n


def test_random_spectrum_is_a_block_of_one():
    # at the full cap too (no level mask); each row keeps its own norm
    rows = hc._random_rows(6, np.random.default_rng(7), 3)
    rng = np.random.default_rng(7)
    for row in rows:
        assert np.array_equal(row, hc.random_spectrum(6, rng).coeffs)
