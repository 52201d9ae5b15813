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
    Step,
    Witness,
    necessity_grid,
    necessity_point,
    necessity_scan,
    nns_exists,
    realize,
    threshold_bisect,
    verify_certificate,
)
from paradist.labels import p_count
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
        # one link per row of C, in order, as in the paper's proof
        assert [step.row for step in outcome.steps] == list(range(n + 1))
        assert outcome.margin >= 1e-8
        ok, margin = verify_certificate(outcome, alpha, n)
        assert ok and margin > 0


_ALPHA4 = conjectured_threshold(4) - 0.05


@pytest.fixture(scope="module")
def chain4():
    cert = nns_exists(_ALPHA4, 4)
    assert isinstance(cert, Certificate) and len(cert.steps) == 5
    return cert


def _in_play(cert, m):
    """The columns still in play before each link: those no earlier link
    gives h'M > 0."""
    alive = np.ones(m.shape[1], dtype=bool)
    for step in cert.steps:
        yield alive
        alive = alive & ~(step.h @ m > 0)


def _replaced(cert, i, h, margin):
    steps = list(cert.steps)
    steps[i] = Step(row=steps[i].row, h=h, margin=margin)
    return Certificate(steps=tuple(steps))


def test_certificate_rejections(chain4):
    alpha = _ALPHA4
    zero = Certificate(steps=(Step(row=0, h=np.zeros(10), margin=0.0),))
    ok, margin = verify_certificate(zero, alpha, 4)
    assert not ok and margin == 0.0
    assert verify_certificate(Certificate(steps=()), alpha, 4) == (False, 0.0)
    # the same certificate cannot verify where witnesses exist
    ok_shift, _ = verify_certificate(chain4, alpha + 0.3, 4)
    assert not ok_shift
    # nor against a system of another order
    assert verify_certificate(chain4, alpha, 3) == (False, 0.0)


def test_chain_that_leaves_a_column_is_rejected(chain4):
    # every link still holds, but without the last one a column survives
    short = Certificate(steps=chain4.steps[:-1])
    ok, margin = verify_certificate(short, _ALPHA4, 4)
    assert not ok
    assert margin == short.margin >= TOL_MARGIN


def test_link_negative_on_a_column_in_play_is_rejected(chain4):
    # the first link, tilted onto row 1 of C: the columns that row 1 removes
    # next are still in play, and some of them now have h'M < 0
    m = realize(_ALPHA4, 4)
    h = chain4.steps[0].h.copy()
    h[1] = -0.5
    assert np.min(h @ m) < 0
    ok, margin = verify_certificate(_replaced(chain4, 0, h, chain4.steps[0].margin), _ALPHA4, 4)
    assert not ok and margin < 0


def test_link_declaring_more_than_it_reaches_is_rejected(chain4):
    step = chain4.steps[2]
    inflated = _replaced(chain4, 2, step.h, step.margin + 1e-9)
    assert verify_certificate(inflated, _ALPHA4, 4) == (False, chain4.margin)


def test_row_link_must_remove_all_its_columns(substitute):
    # the arc from phase 0 to pi - 1e-15 fits in an open half-plane, but
    # under its bisector the tiny entry's h'M rounds to exactly 0: the link
    # leaves a column it would claim, so it cannot count that column as
    # removed, and no certificate may come out that fails verification
    phi = math.pi - 1e-15
    substitute(lambda alpha, n: np.array([[1e-309, 1e9 * complex(math.cos(phi), math.sin(phi))]]))
    outcome = nns_exists(2.0, 1)
    assert not isinstance(outcome, Certificate) or verify_certificate(outcome, 2.0, 1)[0]


def test_certificate_rule_is_scale_free(chain4):
    scaled = Certificate(steps=tuple(Step(row=step.row, h=step.h * 10.0 ** (6 - i),
                                          margin=step.margin)
                                     for i, step in enumerate(chain4.steps)))
    ok, margin = verify_certificate(scaled, _ALPHA4, 4)
    assert ok
    assert margin == pytest.approx(chain4.margin, rel=1e-14)


def _pushed_below_bar(cert, i, m):
    """Link i turned within its two rows of M until it still separates the
    columns it removes, but by less than TOL_MARGIN; (h, margin)."""
    step = cert.steps[i]
    alive = list(_in_play(cert, m))[i]
    rows = m.shape[0] // 2
    psi = math.atan2(step.h[rows + step.row], step.h[step.row])

    def pushed(t):
        h = np.zeros_like(step.h)
        h[step.row], h[rows + step.row] = math.cos(psi + t), math.sin(psi + t)
        h = h / np.max(np.abs(h))
        values = (h @ m)[alive]
        return h, float(values.min()) if values.min() < 0 else float(values[values > 0].min())

    lo, hi = 0.0, math.pi
    assert pushed(lo)[1] >= TOL_MARGIN and pushed(hi)[1] < 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        h, margin = pushed(mid)
        if 0 < margin < TOL_MARGIN:
            break
        lo, hi = (mid, hi) if margin >= TOL_MARGIN else (lo, mid)
    return h, margin


def test_certificate_below_margin_bar_is_rejected(chain4):
    # each link in turn, pushed below the bar: nns_exists would not take it
    m = realize(_ALPHA4, 4)
    for i in range(len(chain4.steps)):
        h, margin = _pushed_below_bar(chain4, i, m)
        assert 0 < margin < TOL_MARGIN
        ok, checked = verify_certificate(_replaced(chain4, i, h, margin), _ALPHA4, 4)
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
    # block of 1e-14, infeasible but far below the margin bar of the row
    # chain
    return np.full((1, 3), 1e-14 + 1e-14j)


def _crossed_system(alpha, n):
    # infeasible (h = (1, 2, 5, 0)/5 separates by 0.6), but each row holds
    # two opposite entries, so no row fits in an open half-plane and the row
    # chain cannot certify it
    return np.array([[1, -1, 1j], [1, 2, -1]], dtype=complex)


def test_crossed_system_reaches_the_projection(substitute, nnls_calls):
    # the projection proposes no witness and certifies nothing: the outcome
    # is indeterminate, its detail naming the projection residual
    substitute(_crossed_system)
    outcome = nns_exists(math.pi, 3)
    assert nnls_calls == [(5, 3)]
    assert isinstance(outcome, Indeterminate)
    assert str(outcome) == ("projection residual 4.804e-01: no witness within 1.0e-08 "
                            "and no separation margin above 1.0e-08")


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


@pytest.mark.parametrize("outcome, message, system", [
    (Witness(y=np.ones(3) / 3, residual=0.0), "infeasibility near pi/2", None),
    (Certificate(steps=(Step(row=0, h=np.ones(4), margin=1.0),)), "feasibility at pi",
     lambda alpha, n: build_C(math.pi / 2 + 1e-4, n)),
], ids=["witness-at-left", "certificate-at-right"])
def test_threshold_bisect_checks_endpoints(monkeypatch, substitute, outcome, message, system):
    # a probe falls back to `_decide` when the closed form is no witness: at
    # the left endpoint there is none; at pi the closed form is judged on a
    # substituted system of the left endpoint, on which it misses the bar
    if system is not None:
        substitute(system)
    monkeypatch.setattr(feasibility, "_decide", lambda c, m: outcome)
    with pytest.raises(NonMonotonePredicate, match=message):
        threshold_bisect(3)


@pytest.mark.parametrize("tol_alpha", [None, 1e-8])
def test_threshold_bisect_raises_unresolved_probe(monkeypatch, tol_alpha):
    # an indeterminate probe cannot be bracketed: it stops the bisection at
    # the default tolerance and at the finest one alike
    probe = Indeterminate("stuck")
    monkeypatch.setattr(feasibility, "_decide", lambda c, m: probe)
    kwargs = {} if tol_alpha is None else {"tol_alpha": tol_alpha}
    with pytest.raises(Indeterminate) as raised:
        threshold_bisect(3, **kwargs)
    assert raised.value is probe


@pytest.mark.parametrize("n", range(1, 13))
def test_no_witness_below_threshold(n):
    # the paper proves C(alpha) y = 0 has no nonzero y >= 0 below
    # pi/2 + pi/(2n); about twelve distances per decade from 1e-2 down to
    # 2e-8 reach the band where a near-null vector passes the witness bar
    conj = conjectured_threshold(n)
    witnesses = [d for d in np.geomspace(1e-2, 2e-8, 70).tolist()
                 if isinstance(nns_exists(conj - d, n), Witness)]
    assert witnesses == []


def _reference_chain(c):
    """The row chain as the proof reads, one row at a time: rows in order,
    in passes until a pass makes no progress; each row whose nonzero entries
    on the surviving columns fit in an open half-plane (largest gap between
    their sorted phases above pi) gives the link cos(psi), sin(psi) at its
    two rows of M, psi the bisector of their arc, taken when it removes
    them by TOL_MARGIN and is >= 0 on the rest.  [(row, margin)], or None
    when columns survive."""
    m = np.vstack([c.real, c.imag])
    rows, p = c.shape
    alive = np.ones(p, dtype=bool)
    links = []
    progress = True
    while progress and alive.any():
        progress = False
        for j in range(rows):
            cols = alive & (c[j] != 0)
            if not cols.any():
                continue
            phases = np.sort(np.angle(c[j, cols]))
            gaps = np.diff(np.append(phases, phases[0] + 2 * math.pi))
            widest = int(gaps.argmax())
            if gaps[widest] <= math.pi:
                continue
            psi = phases[widest] + gaps[widest] / 2 + math.pi
            h = np.zeros(2 * rows)
            h[j], h[rows + j] = math.cos(psi), math.sin(psi)
            values = (h / np.max(np.abs(h))) @ m
            if values[cols].min() >= TOL_MARGIN and (values[alive & ~cols] >= 0).all():
                links.append((j, float(values[cols].min())))
                alive &= ~cols
                progress = True
    return None if alive.any() else links


@pytest.mark.parametrize("rearrange", [
    lambda c: c,
    lambda c: c[::-1],
    lambda c: c[[i for i in range(len(c)) for _ in range(2)]],
    lambda c: c[:, np.random.default_rng(len(c)).permutation(c.shape[1])],
], ids=["C", "rows-reversed", "rows-doubled", "columns-permuted"])
def test_row_chain_matches_the_row_by_row_reference(substitute, rearrange):
    # reversed rows take one pass per row; doubled rows give empty copies
    substitute(lambda alpha, n: rearrange(build_C(alpha, n)))
    for n in (1, 2, 5, 10, 12):
        conj = conjectured_threshold(n)
        for alpha in [math.pi / 2, (math.pi / 2 + conj) / 2, conj - 1e-6, min(conj + 1e-3, math.pi)]:
            c = rearrange(build_C(alpha, n))
            expected = _reference_chain(c)
            outcome = nns_exists(alpha, n)
            if expected is None:
                assert not isinstance(outcome, Certificate), (n, alpha)
                continue
            assert isinstance(outcome, Certificate), (n, alpha)
            assert [step.row for step in outcome.steps] == [row for row, _ in expected]
            # the two bisectors differ by a few ulps of pi, a margin by as much
            assert_allclose([step.margin for step in outcome.steps],
                            [margin for _, margin in expected], rtol=1e-12, atol=1e-14)
            assert verify_certificate(outcome, alpha, n) == (True, outcome.margin)


def _corpus(n):
    """A grid over [pi/2, pi], a window from conj - 2e-3 to conj + 1e-3 and
    conj +- 1e-5, 1e-6, 1e-7, where they lie in [pi/2, pi]."""
    conj = conjectured_threshold(n)
    angles = [*np.linspace(math.pi / 2, math.pi, 61).tolist(),
              *np.linspace(conj - 2e-3, conj + 1e-3, 25).tolist(),
              *[conj + s * d for s in (-1, 1) for d in (1e-5, 1e-6, 1e-7)]]
    return [alpha for alpha in angles if alpha <= math.pi]


@pytest.mark.parametrize("n", range(1, 13))
def test_row_chain_decides_exactly_the_infeasible_side(n):
    # every angle below the threshold by n*delta >= 2e-8 gets a chain that
    # verifies, and no angle above the threshold gets any certificate
    conj = conjectured_threshold(n)
    for alpha in _corpus(n):
        outcome = nns_exists(alpha, n)
        if alpha > conj:
            assert not isinstance(outcome, Certificate), alpha
        elif n * (conj - alpha) >= 2e-8:
            assert isinstance(outcome, Certificate), alpha
            assert all(type(step.row) is int for step in outcome.steps)
            assert verify_certificate(outcome, alpha, n) == (True, outcome.margin)


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


def _reversed_columns(alpha, n):
    # the same system with its columns in reverse order: the closed form, in
    # column order, misses the bar on it; the row chain and the projection
    # know no column order
    return build_C(alpha, n)[:, ::-1]


def test_cut_off_projection_is_indeterminate(substitute, monkeypatch):
    # a projection that stops early judges nothing, on a feasible system
    # the closed form cannot rescue
    def cut_off(a, b):
        raise IterationLimitReached("exceeded 3 active-set iterations")

    substitute(_reversed_columns)
    monkeypatch.setattr(feasibility, "nnls", cut_off)
    outcome = nns_exists(math.pi, 3)
    assert isinstance(outcome, Indeterminate)
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
@pytest.mark.parametrize("system", [_reversed_columns, _crossed_system],
                         ids=["feasible", "infeasible"])
def test_failed_solve_ends_walk_as_indeterminate(substitute, monkeypatch, fault, detail, system):
    # a passive-set solve that fails or is not finite judges nothing, on
    # either side: the system at pi that the closed form misses, and one
    # that no single row decides
    substitute(system)
    monkeypatch.setattr(*_BREAKS[fault])
    outcome = nns_exists(math.pi, 3)
    assert isinstance(outcome, Indeterminate)
    assert str(outcome) == f"projection did not terminate cleanly: {detail}"


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


def test_necessity_point_lists_the_chain():
    alpha = float(necessity_grid(3, 1)[0])
    row = necessity_point(alpha, 3)
    assert row.keys() == {"alpha", "n", "outcome", "margin", "steps", "verified", "anomaly"}
    assert [step["row"] for step in row["steps"]] == [0, 1, 2, 3]
    assert row["margin"] == min(step["margin"] for step in row["steps"]) >= TOL_MARGIN


def _closed_form_witness(alpha, n):
    return feasibility._closed_form(feasibility._build(alpha, n)[0], alpha, n)


@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_agrees_with_nns_exists(n):
    # a grid over [pi/2, pi] and conj +- 1e-12 ... 1e-2; the catalog's
    # endpoints are the conjectured thresholds of the orders 2..n (order 1
    # is the single angle pi, inside the grid), and at each of them one
    # entry of the closed form rounds below 0
    conj = conjectured_threshold(n)
    offsets = [sign * 10.0 ** -e for e in range(2, 13) for sign in (-1, 1)]
    grid = [*np.linspace(math.pi / 2, math.pi, 41).tolist(),
            *(conj + d for d in offsets if conj + d <= math.pi)]
    ends = [conjectured_threshold(k) for k in range(2, n + 1)]
    above = 0
    for alpha in grid:
        witness = _closed_form_witness(alpha, n)
        if witness is not None:
            assert isinstance(nns_exists(alpha, n), Witness), alpha
        if alpha < conj:
            assert witness is None, alpha
        elif all(abs(alpha - end) > 1e-12 for end in ends):
            assert witness is not None, alpha
            above += 1
    assert above >= (1 if n == 1 else 20)


@pytest.mark.parametrize("n", range(2, 13))
def test_witness_just_below_pi(n):
    # the projection's y can miss the witness bar here by its own roundoff;
    # the paper's order-2 vector, padded, is a witness all the same
    for d in (1e-8, 2e-8, 5e-8):
        outcome = nns_exists(math.pi - d, n)
        assert isinstance(outcome, Witness), d
        assert outcome.residual <= TOL_WITNESS


@pytest.mark.parametrize("n", [11, 12])
def test_closed_form_beyond_the_catalog(n):
    # the catalog ends at order 10: between the thresholds of orders 11 and
    # 10 no interval holds alpha, and above them the padded vectors serve
    assert _closed_form_witness(conjectured_threshold(11) + 1e-3, n) is None
    assert isinstance(_closed_form_witness(conjectured_threshold(10) + 1e-3, n), Witness)


@pytest.mark.parametrize("n", range(2, 11))
def test_witness_rule_refuses_a_negative_entry(n):
    # at its own left endpoint each catalog vector has one entry that
    # rounds below 0; only that entry keeps it from being a witness
    alpha = conjectured_threshold(n)
    c = feasibility._build(alpha, n)[0]
    y = explicit_nns(n, alpha)
    assert y.min() < 0
    assert feasibility._witness(c, y) is None
    assert feasibility._closed_form(c, alpha, n) is None
    assert isinstance(feasibility._witness(c, np.maximum(y, 0)), Witness)


def test_witness_rule_refuses_a_vector_that_does_not_fit():
    alpha = conjectured_threshold(3) + 0.01
    c = feasibility._build(alpha, 3)[0]
    assert feasibility._witness(c, np.zeros(p_count(3))) is None
    assert feasibility._witness(c[:, :-1], explicit_nns(3, alpha)) is None
    assert feasibility._witness(c, explicit_nns(3, alpha)).y.sum() == pytest.approx(1.0)


@pytest.fixture
def nnls_calls(monkeypatch):
    """Every system `feasibility` hands to the projection, in call order."""
    calls = []
    original = feasibility.nnls

    def counted(a, b, *args, **kwargs):
        calls.append(a.shape)
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(feasibility, "nnls", counted)
    return calls


def test_threshold_search_runs_no_projection(nnls_calls):
    # every feasible probe rests on a closed form and every infeasible one
    # on a row chain, for each order the catalog covers
    for n in range(1, 11):
        threshold_bisect(n)
    assert nnls_calls == []


def test_probe_falls_back_to_the_projection(substitute, nnls_calls):
    expected = threshold_bisect(3)
    assert nnls_calls == []
    substitute(_reversed_columns)
    # each feasible probe now rests on the projection, the infeasible ones
    # on the row chain as before, and every probe decides as before
    assert threshold_bisect(3) == expected
    assert len(nnls_calls) >= 10


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
    # the system substituted for C is the one reduced and the one judged:
    # B repeats rows of C, so its chain takes the first copy of each
    calls = substitute(build_B)
    alpha = conjectured_threshold(3) - 0.02
    cert = nns_exists(alpha, 3)
    assert isinstance(cert, Certificate)
    assert len(calls) == 1
    m = np.vstack([calls[0].real, calls[0].imag])
    assert [step.row for step in cert.steps] == [0, 1, 3, 7]
    for step, alive in zip(cert.steps, _in_play(cert, m)):
        assert step.h.shape == (m.shape[0],) == (16,)
        values = (step.h @ m)[alive]
        assert values.min() >= 0
        assert_allclose(step.margin, values[values > 0].min(), rtol=0, atol=0)
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
    assert outcome.to_dict() == {"kind": "indeterminate", "detail": str(outcome)}
    assert math.isnan(outcome.metric)



# One sha256 over every decision of a fixed grid (kind, metric as a hex
# float, the bytes of y, or the row and the bytes of h of every link) and
# over the thresholds for n = 1..10 as hex floats.  A rewrite of how the
# engine's operations are dispatched must change none of these bits.
# Re-recorded when the row chain came in front of the projection: its
# certificates replace the projection's below the threshold (and n = 12 at
# conj - 1e-3 turns from indeterminate to certificate), while every witness
# and every threshold keeps its bits.
DECISIONS_SHA = "5ed4db8edda8da62d56054755ac8eb40dfe813dcb3afd6894559acbfe3fe9be3"


def test_decision_bits_are_pinned():
    digest = hashlib.sha256()
    for n in (4, 10, 12):
        conj = conjectured_threshold(n)
        for alpha in [*np.linspace(math.pi / 2, math.pi, 24), conj - 1e-3, conj + 1e-3]:
            outcome = nns_exists(float(alpha), n)
            digest.update(outcome.kind.encode())
            digest.update(float(outcome.metric).hex().encode())
            if isinstance(outcome, Witness):
                digest.update(outcome.y.tobytes())
            for step in getattr(outcome, "steps", ()):
                digest.update(repr(step.row).encode())
                digest.update(step.h.tobytes())
    for n in range(1, 11):
        digest.update(threshold_bisect(n).alpha_star.hex().encode())
    assert digest.hexdigest() == DECISIONS_SHA
