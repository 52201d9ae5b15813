import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import paradist.feasibility as feasibility
import paradist.nnls
from paradist.catalog import alpha_interval, conjectured_threshold, explicit_nns, interval_samples
from paradist.feasibility import (
    TOL_MARGIN,
    TOL_WITNESS,
    Certificate,
    Indeterminate,
    NonMonotonePredicate,
    Witness,
    necessity_grid,
    necessity_point,
    necessity_scan,
    nns_exists,
    realize,
    threshold_bisect,
    verify_certificate,
)
from paradist.nnls import IterationLimitReached
from paradist.tensor import build_B, build_C


def test_realized_system_shapes():
    assert realize(2.0, 2).shape == (6, 6)
    m1 = realize(math.pi, 1)
    assert m1.shape == (4, 3)
    # at alpha = pi the system is real: imaginary rows vanish
    assert np.max(np.abs(m1[2:])) < 1e-12


def test_catalog_witness_through_real_embedding():
    alpha = 3 * math.pi / 4
    y = explicit_nns(2, alpha)
    m = realize(alpha, 2)
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
    # nor against a system of another order
    assert verify_certificate(cert, alpha, 3) == (False, 0.0)


def test_certificate_rule_is_scale_free():
    alpha = conjectured_threshold(4) - 0.05
    cert = nns_exists(alpha, 4)
    assert isinstance(cert, Certificate)
    scaled = Certificate(h=cert.h * 1e6, margin=cert.margin)
    ok, margin = verify_certificate(scaled, alpha, 4)
    assert ok
    assert margin == pytest.approx(cert.margin, rel=1e-14)


def test_certificate_below_margin_bar_is_rejected():
    # push h against the first column of M until it still separates, but
    # by less than TOL_MARGIN: nns_exists would call that indeterminate
    alpha = conjectured_threshold(4) - 0.05
    cert = nns_exists(alpha, 4)
    m = realize(alpha, 4)

    def pushed(t):
        h = cert.h - t * m[:, 0]
        h = h / np.max(np.abs(h))
        return h, float(np.min(h @ m))

    lo, hi = 0.0, 1.0
    assert pushed(lo)[1] >= TOL_MARGIN and pushed(hi)[1] < 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        h, margin = pushed(mid)
        if 0 < margin < TOL_MARGIN:
            break
        lo, hi = (mid, hi) if margin >= TOL_MARGIN else (lo, mid)
    assert 0 < margin < TOL_MARGIN
    ok, checked = verify_certificate(Certificate(h=h, margin=margin), alpha, 4)
    assert not ok
    assert checked == margin


def test_alpha_range_enforced():
    with pytest.raises(ValueError):
        nns_exists(1.0, 3)
    with pytest.raises(ValueError):
        nns_exists(3.3, 3)


@pytest.fixture
def substitute(monkeypatch):
    """Make `feasibility` build its system with `builder` (build_C itself by
    default); returns the list of every array it obtains, in call order."""

    def install(builder=build_C):
        calls = []

        def recording(alpha, n):
            calls.append(builder(alpha, n))
            return calls[-1]

        monkeypatch.setattr(feasibility, "build_C", recording)
        return calls

    return install


def _tiny_system(alpha, n):
    # one complex row at roundoff scale: its real embedding is a 2 x 3
    # block of 1e-14, infeasible but far below the margin bar
    return np.full((1, 3), 1e-14 + 1e-14j)


def test_duplicate_rows_give_same_outcome_class(substitute):
    cases = []
    for n in range(1, 6):
        cases += [(n, math.pi / 2 + 0.05), (n, math.pi - 0.01)]
        if n >= 2:
            cases.append((n, conjectured_threshold(n) - 0.02))
    base = [type(nns_exists(alpha, n)) for n, alpha in cases]
    # the orbit-summed system B repeats each row of C once per binary label
    substitute(build_B)
    dup = [type(nns_exists(alpha, n)) for n, alpha in cases]
    assert dup == base


def test_threshold_bisect_order_two():
    estimate = threshold_bisect(2, 1e-6)
    assert abs(estimate.alpha_star - 3 * math.pi / 4) <= 1e-5
    assert estimate.bracket_width <= 1e-6
    assert_allclose(estimate.conjectured, 3 * math.pi / 4)


def test_threshold_bisect_validation():
    with pytest.raises(ValueError):
        threshold_bisect(11)
    for tol in (1e-9, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^tol_alpha must be finite and at least 1e-8, "
                                             f"got {tol!r}$"):
            threshold_bisect(3, tol_alpha=tol)


@pytest.mark.parametrize("outcome, message", [
    (Witness(y=np.ones(3) / 3, residual=0.0), "infeasibility near pi/2"),
    (Certificate(h=np.ones(4), margin=1.0), "feasibility at pi"),
], ids=["witness-at-left", "certificate-at-right"])
def test_threshold_bisect_checks_endpoints(monkeypatch, outcome, message):
    monkeypatch.setattr(feasibility, "nns_exists", lambda alpha, n: outcome)
    with pytest.raises(NonMonotonePredicate, match=message):
        threshold_bisect(3)


@pytest.mark.parametrize("objective", [None, TOL_WITNESS])
def test_threshold_bisect_raises_unresolved_probe(monkeypatch, objective):
    # an indeterminate probe counts as infeasible only when its projection
    # residual is clearly positive; otherwise it stops the bisection
    probe = Indeterminate("stuck", objective=objective)
    monkeypatch.setattr(feasibility, "nns_exists", lambda alpha, n: probe)
    with pytest.raises(Indeterminate) as raised:
        threshold_bisect(3)
    assert raised.value is probe


@pytest.mark.parametrize("n", range(1, 13))
def test_no_witness_below_threshold(n):
    # the paper proves C(alpha) y = 0 has no nonzero y >= 0 below
    # pi/2 + pi/(2n); twelve distances per decade from 1e-2 down to 1e-7
    # reach the band where a near-null vector passes the witness bar
    conj = conjectured_threshold(n)
    witnesses = [d for d in np.logspace(-2, -7, 61).tolist()
                 if isinstance(nns_exists(conj - d, n), Witness)]
    assert witnesses == []


@pytest.mark.parametrize("n", range(1, 11))
def test_threshold_bracket_contains_boundary(n):
    estimate = threshold_bisect(n)
    half = estimate.bracket_width / 2
    assert estimate.alpha_star - half <= conjectured_threshold(n) <= estimate.alpha_star + half


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


def test_necessity_scan_builds_once_per_point(build_calls):
    rows = necessity_scan(4, 3)
    assert len(build_calls) == 3
    assert [row["verified"] for row in rows] == [True] * 3


def test_necessity_scan_empty():
    assert necessity_scan(3, 0) == []


def test_indeterminate_reports_objective(substitute, monkeypatch):
    # a single row at roundoff scale cannot be certified either way
    substitute(_tiny_system)
    monkeypatch.setattr(feasibility, "TOL_WITNESS", 1e-30)
    outcome = nns_exists(math.pi - 0.2, 1)
    assert isinstance(outcome, Indeterminate)
    assert outcome.objective > 0


def test_cut_off_projection_is_indeterminate(monkeypatch):
    # a projection that stops early judges nothing, and has no objective
    def cut_off(a, b):
        raise IterationLimitReached("exceeded 3 active-set iterations")

    monkeypatch.setattr(feasibility, "nnls", cut_off)
    outcome = nns_exists(math.pi, 3)
    assert isinstance(outcome, Indeterminate)
    assert outcome.objective is None
    assert str(outcome) == ("projection did not terminate cleanly: "
                            "exceeded 3 active-set iterations")


def _nan_triangle_solve(a, b, signature):
    return np.full(b.shape, np.nan)


def _singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


# the NaN comes from below `_qr_solve` (the triangle-solve gufunc as `nnls`
# binds it), so it passes through the one finite check every solve shares
_BREAKS = {
    "nan": (paradist.nnls, "solve1", _nan_triangle_solve),
    "raises": (paradist.nnls, "_qr_solve", _singular_solve),
}


@pytest.mark.parametrize("fault, detail", [
    ("nan", "passive-set solve is not finite"),
    ("raises", "Singular matrix"),
], ids=["nan", "raises"])
@pytest.mark.parametrize("alpha", [math.pi, conjectured_threshold(3) - 0.05],
                         ids=["feasible", "infeasible"])
def test_failed_solve_ends_walk_as_indeterminate(monkeypatch, fault, detail, alpha):
    # a passive-set solve that fails or is not finite judges nothing, on
    # either side of the threshold
    monkeypatch.setattr(*_BREAKS[fault])
    outcome = nns_exists(alpha, 3)
    assert isinstance(outcome, Indeterminate)
    assert outcome.objective is None
    assert str(outcome) == f"projection did not terminate cleanly: {detail}"


def _break_refinement(monkeypatch, fault):
    """Run the walk intact, then break every later solve; returns the list
    that receives the walk's result."""
    walk = paradist.nnls.nnls
    walks = []

    def walk_then_break(a, b):
        walks.append(walk(a, b))
        monkeypatch.setattr(*_BREAKS[fault])
        return walks[-1]

    monkeypatch.setattr(feasibility, "nnls", walk_then_break)
    return walks


@pytest.mark.parametrize("fault", ["nan", "raises"])
def test_failed_refinement_is_indeterminate(monkeypatch, fault):
    # the walk itself ends cleanly, so the outcome keeps its objective
    _break_refinement(monkeypatch, fault)
    outcome = nns_exists(conjectured_threshold(3) - 0.05, 3)
    assert isinstance(outcome, Indeterminate)
    assert outcome.objective > TOL_WITNESS


def test_nan_refinement_says_so(monkeypatch):
    # a non-finite refinement is named as such, not as a missing margin,
    # and keeps the walk's rnorm as its objective
    walks = _break_refinement(monkeypatch, "nan")
    outcome = nns_exists(conjectured_threshold(3) - 0.05, 3)
    assert isinstance(outcome, Indeterminate)
    assert str(outcome) == "residual refinement failed: passive-set solve is not finite"
    assert outcome.objective == walks[0].rnorm


def test_necessity_point_flags_witness(substitute):
    # the feasible system at pi stands in for the one at the grid angle
    substitute(lambda alpha, n: build_C(math.pi, n))
    alpha = float(necessity_grid(3, 1)[0])
    row = necessity_point(alpha, 3)
    assert row.keys() == {"alpha", "n", "outcome", "residual", "anomaly"}
    assert (row["alpha"], row["n"], row["outcome"], row["anomaly"]) == (alpha, 3, "witness", True)
    assert row["residual"] <= TOL_WITNESS


def test_necessity_point_flags_indeterminate(substitute, monkeypatch):
    # one complex row of 1e-7: no witness within 1e-8, and a margin of
    # about 2e-7, below a 1e-6 bar
    substitute(lambda alpha, n: np.full((1, 3), 1e-7 + 1e-7j))
    monkeypatch.setattr(feasibility, "TOL_MARGIN", 1e-6)
    row = necessity_point(2.0, 1)
    assert row.keys() == {"alpha", "n", "outcome", "detail", "anomaly"}
    assert (row["outcome"], row["anomaly"]) == ("indeterminate", True)
    assert "no separation margin above 1.0e-06" in row["detail"]


@pytest.fixture
def build_calls(substitute):
    """Every array `feasibility` obtains from build_C, in call order."""
    return substitute()


@pytest.mark.parametrize("alpha, expected", [
    (math.pi, Witness),
    (conjectured_threshold(4) - 0.05, Certificate),
], ids=["witness", "certificate"])
def test_one_build_per_decision(build_calls, alpha, expected):
    assert isinstance(nns_exists(alpha, 4), expected)
    assert len(build_calls) == 1
    assert not build_calls[0].flags.writeable


def test_passed_in_system_is_judged_against_its_own_matrix(substitute):
    # the system substituted for C is the one projected and the one judged
    calls = substitute(build_B)
    alpha = conjectured_threshold(3) - 0.02
    cert = nns_exists(alpha, 3)
    assert isinstance(cert, Certificate)
    assert len(calls) == 1
    m = np.vstack([calls[0].real, calls[0].imag])
    assert cert.h.shape == (m.shape[0],) == (16,)
    assert_allclose(cert.margin, np.min(cert.h @ m), rtol=0, atol=0)
    assert verify_certificate(cert, alpha, 3) == (True, cert.margin)


def test_realized_system_is_read_only():
    m = realize(2.0, 2)
    assert isinstance(m, np.ndarray) and m.dtype == float
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_nns_exists_returns_every_outcome(substitute, monkeypatch):
    assert isinstance(nns_exists(math.pi, 3), Witness)
    assert isinstance(nns_exists(conjectured_threshold(3) - 0.05, 3), Certificate)
    substitute(_tiny_system)
    monkeypatch.setattr(feasibility, "TOL_WITNESS", 1e-30)
    outcome = nns_exists(math.pi - 0.2, 1)
    assert isinstance(outcome, Indeterminate)
    assert outcome.objective is not None and outcome.objective > 0
    assert outcome.to_dict() == {"kind": "indeterminate", "detail": str(outcome)}
    assert math.isnan(outcome.metric)



# One sha256 over every decision of a fixed grid (kind, metric as a hex
# float, the bytes of y or h) and over the thresholds for n = 1..10 as hex
# floats.  A rewrite of how the engine's operations are dispatched must
# change none of these bits; recorded before the passive-set solves called
# numpy's LAPACK gufuncs directly, and unchanged by that rewrite.
DECISIONS_SHA = "bd022d62f64045a72ebb5a41c142a405893d79a4ef833a2a25caa281a5108655"


def test_decision_bits_are_pinned():
    digest = hashlib.sha256()
    for n in (4, 10, 12):
        conj = conjectured_threshold(n)
        for alpha in [*np.linspace(math.pi / 2, math.pi, 24), conj - 1e-3, conj + 1e-3]:
            outcome = nns_exists(float(alpha), n)
            digest.update(outcome.kind.encode())
            digest.update(float(outcome.metric).hex().encode())
            vector = getattr(outcome, "y", getattr(outcome, "h", None))
            if vector is not None:
                digest.update(vector.tobytes())
    for n in range(1, 11):
        digest.update(threshold_bisect(n).alpha_star.hex().encode())
    assert digest.hexdigest() == DECISIONS_SHA
