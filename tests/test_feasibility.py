import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import paradist.feasibility as feasibility
from paradist.catalog import alpha_interval, conjectured_threshold, explicit_nns, interval_samples
from paradist.feasibility import (
    Certificate,
    NumericalIndeterminate,
    RealizedSystem,
    Witness,
    classify,
    necessity_grid,
    necessity_scan,
    nns_exists,
    realize,
    threshold_bisect,
    verify_certificate,
)
from paradist.tensor import build_B, build_C


def test_realized_system_shapes():
    sys_ = realize(2.0, 2)
    assert sys_.matrix.shape == (6, 6)
    sys1 = realize(math.pi, 1)
    assert sys1.matrix.shape == (4, 3)
    # at alpha = pi the system is real: imaginary rows vanish
    assert np.max(np.abs(sys1.matrix[2:])) < 1e-12


def test_catalog_witness_through_real_embedding():
    alpha = 3 * math.pi / 4
    y = explicit_nns(2, alpha)
    m = realize(alpha, 2).matrix
    assert np.max(np.abs(m @ y)) <= 1e-12 * np.max(np.abs(y))


def test_witness_at_pi_for_all_orders():
    for n in range(1, 11):
        outcome = nns_exists(math.pi, n)
        assert isinstance(outcome, Witness)
        assert outcome.residual <= 1e-8
        assert np.min(outcome.y) >= -1e-12
        assert_allclose(outcome.y.sum(), 1.0, atol=1e-9)


def test_witness_matches_catalog_at_left_endpoint():
    alpha = 3 * math.pi / 4
    outcome = nns_exists(alpha, 2)
    assert isinstance(outcome, Witness)
    expected = explicit_nns(2, alpha)
    assert_allclose(outcome.y, expected / expected.sum(), atol=1e-9)


def test_witnesses_across_catalog_intervals():
    for n in range(1, 11):
        for alpha in interval_samples(n, 4):
            outcome = nns_exists(float(alpha), n)
            assert isinstance(outcome, Witness), (n, alpha)


def test_certificates_below_threshold():
    for n in range(2, 11):
        alpha = conjectured_threshold(n) - 0.01
        outcome = nns_exists(alpha, n)
        assert isinstance(outcome, Certificate), n
        assert outcome.margin >= 1e-8
        ok, margin = verify_certificate(outcome, alpha, n)
        assert ok and margin > 0


def test_certificate_rejections():
    alpha = conjectured_threshold(4) - 0.05
    cert = nns_exists(alpha, 4)
    assert isinstance(cert, Certificate)
    zero = Certificate(h=np.zeros(10), margin=0.0)
    ok, margin = verify_certificate(zero, alpha, 4)
    assert not ok and margin == 0.0
    # the same certificate cannot verify where witnesses exist
    ok_shift, _ = verify_certificate(cert, alpha + 0.3, 4)
    assert not ok_shift


def test_alpha_range_enforced():
    with pytest.raises(ValueError):
        nns_exists(1.0, 3)
    with pytest.raises(ValueError):
        nns_exists(3.3, 3)


def test_duplicate_rows_give_same_outcome_class():
    for n in range(1, 6):
        probes = [math.pi / 2 + 0.05, math.pi - 0.01]
        if n >= 2:
            probes.append(conjectured_threshold(n) - 0.02)
        for alpha in probes:
            b = build_B(alpha, n)
            full = RealizedSystem(matrix=np.vstack([b.real, b.imag]), alpha=alpha, order=n)
            base = nns_exists(alpha, n)
            dup = nns_exists(alpha, n, system=full)
            assert type(base) is type(dup), (n, alpha)


def test_threshold_bisect_order_two():
    estimate = threshold_bisect(2, 1e-6)
    assert abs(estimate.alpha_star - 3 * math.pi / 4) <= 1e-5
    assert estimate.bracket_width <= 1e-6
    assert_allclose(estimate.conjectured, 3 * math.pi / 4)


def test_threshold_bisect_validation():
    with pytest.raises(ValueError):
        threshold_bisect(11)
    with pytest.raises(ValueError):
        threshold_bisect(3, tol_alpha=1e-9)


def test_necessity_grid_strictly_inside():
    grid = necessity_grid(4, 50)
    assert len(grid) == 50
    assert grid[0] > math.pi / 2
    assert grid[-1] < conjectured_threshold(4)


def test_necessity_scan_small():
    rows = necessity_scan(3, 10)
    assert len(rows) == 10
    for row in rows:
        assert row["outcome"] == "certificate"
        assert row["verified"]
        assert not row["anomaly"]
        assert row["margin"] >= 1e-8


def test_necessity_scan_empty():
    assert necessity_scan(3, 0) == []


def test_indeterminate_reports_objective():
    # an artificial system that is infeasible but far below the margin bar:
    # a single row at roundoff scale cannot be certified either way
    m = np.full((2, 3), 1e-14)
    system = RealizedSystem(matrix=m, alpha=math.pi - 0.2, order=1)
    with pytest.raises(NumericalIndeterminate):
        nns_exists(math.pi - 0.2, 1, system=system, tol_witness=1e-30)


@pytest.fixture
def build_calls(monkeypatch):
    """Every array `feasibility` obtains from build_C, in call order."""
    calls = []

    def counting(alpha, n):
        calls.append(build_C(alpha, n))
        return calls[-1]

    monkeypatch.setattr(feasibility, "build_C", counting)
    return calls


@pytest.mark.parametrize("alpha, expected", [
    (math.pi, Witness),
    (conjectured_threshold(4) - 0.05, Certificate),
], ids=["witness", "certificate"])
def test_one_build_per_decision(build_calls, alpha, expected):
    assert isinstance(nns_exists(alpha, 4), expected)
    assert len(build_calls) == 1
    assert not build_calls[0].flags.writeable


def test_passed_in_system_is_judged_against_its_own_matrix(build_calls):
    alpha = conjectured_threshold(3) - 0.02
    b = build_B(alpha, 3)
    full = RealizedSystem(matrix=np.vstack([b.real, b.imag]), alpha=alpha, order=3)
    cert = nns_exists(alpha, 3, system=full)
    assert isinstance(cert, Certificate)
    assert cert.h.shape == (full.matrix.shape[0],)
    assert_allclose(cert.margin, np.min(cert.h @ full.matrix), rtol=0, atol=0)
    assert len(build_calls) == 1


def test_realized_system_is_read_only():
    m = realize(2.0, 2).matrix
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_classify_returns_every_outcome():
    assert isinstance(classify(math.pi, 3), Witness)
    assert isinstance(classify(conjectured_threshold(3) - 0.05, 3), Certificate)
    system = RealizedSystem(matrix=np.full((2, 3), 1e-14), alpha=math.pi - 0.2, order=1)
    outcome = classify(math.pi - 0.2, 1, system=system, tol_witness=1e-30)
    assert isinstance(outcome, NumericalIndeterminate)
    assert outcome.objective is not None and outcome.objective > 0
    assert outcome.to_dict() == {"kind": "indeterminate", "detail": str(outcome)}
    assert math.isnan(outcome.metric)
