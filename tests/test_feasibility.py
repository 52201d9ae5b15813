import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import build_per_angle
from numpy.testing import assert_allclose

import paradist.catalog as catalog
import paradist.feasibility as feasibility
import paradist.nnls
from paradist.catalog import (alpha_interval, conjectured_threshold, explicit_nns,
                              interval_samples, pad_solution)
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
from paradist.labels import column_index, column_order, p_count
from paradist.nnls import IterationLimitReached
from paradist.supports import SUPPORTS
from paradist.tensor import build_B, build_C, build_C_stack

SUPPORT_TOOL = Path(__file__).resolve().parents[1] / "tools" / "support_tables.py"


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
        # one link per row of C, in order, as in the paper's proof: link j
        # lives on row j of M and its imaginary row
        assert [link["row"] for link in outcome.to_dict()["steps"]] == list(range(n + 1))
        own = np.zeros(outcome.h.shape, dtype=bool)
        links = np.arange(n + 1)
        own[links, links] = own[links, n + 1 + links] = True
        assert outcome.h.shape == (n + 1, 2 * (n + 1)) and not outcome.h[~own].any()
        assert outcome.margin >= 1e-8
        ok, margin = verify_certificate(outcome, alpha, n)
        assert ok and margin > 0


_ALPHA4 = conjectured_threshold(4) - 0.05


@pytest.fixture(scope="module")
def chain4():
    cert = nns_exists(_ALPHA4, 4)
    assert isinstance(cert, Certificate)
    assert cert.h.shape == (5, 10) and cert.margins.shape == (5,)
    return cert


def _in_play(cert, m):
    """The columns still in play before each link: those no earlier link
    gives h'M > 0."""
    alive = np.ones(m.shape[1], dtype=bool)
    for h in cert.h:
        yield alive
        alive = alive & ~(h @ m > 0)


def _replaced(cert, i, h, margin):
    links, margins = cert.h.copy(), cert.margins.copy()
    links[i], margins[i] = h, margin
    return Certificate(h=links, margins=margins)


def test_certificate_rejections(chain4):
    alpha = _ALPHA4
    zero = Certificate(h=np.zeros((1, 10)), margins=np.zeros(1))
    ok, margin = verify_certificate(zero, alpha, 4)
    assert not ok and margin == 0.0
    assert verify_certificate(Certificate(h=np.zeros((0, 10)), margins=np.zeros(0)),
                              alpha, 4) == (False, 0.0)
    # the same certificate cannot verify where witnesses exist
    ok_shift, _ = verify_certificate(chain4, alpha + 0.3, 4)
    assert not ok_shift
    # nor against a system of another order
    assert verify_certificate(chain4, alpha, 3) == (False, 0.0)
    # nor unless h is links x 2(n+1) with one declared margin per link
    for h, margins in [(chain4.h, chain4.margins[:-1]), (chain4.h[:-1], chain4.margins),
                       (chain4.h[0], chain4.margins[:1]), (chain4.h, chain4.margins[:, None])]:
        assert verify_certificate(Certificate(h=h, margins=margins), alpha, 4) == (False, 0.0)


def test_certificate_must_be_real(chain4):
    # an h or margins holding an entry that is no real number is refused as a
    # wrong shape is, not judged by its real part after a ComplexWarning;
    # an object array of real numbers is judged as its floats
    for h, margins in [(chain4.h + 5j, chain4.margins), (chain4.h, chain4.margins + 0.5j),
                       (chain4.h.astype(object) + 1j, chain4.margins),
                       (chain4.h, chain4.margins.astype(object) + 0j)]:
        assert verify_certificate(Certificate(h=h, margins=margins), _ALPHA4, 4) == (False, 0.0)
    real = Certificate(h=chain4.h.astype(object), margins=chain4.margins.astype(object))
    assert verify_certificate(real, _ALPHA4, 4) == (True, chain4.margin)


def test_chain_that_leaves_a_column_is_rejected(chain4):
    # every link still holds, but without the last one a column survives
    short = Certificate(h=chain4.h[:-1], margins=chain4.margins[:-1])
    ok, margin = verify_certificate(short, _ALPHA4, 4)
    assert not ok
    assert margin == short.margin >= TOL_MARGIN


def test_link_negative_on_a_column_in_play_is_rejected(chain4):
    # the first link, tilted onto row 1 of C: the columns that row 1 removes
    # next are still in play, and some of them now have h'M < 0
    m = realize(_ALPHA4, 4)
    h = chain4.h[0].copy()
    h[1] = -0.5
    assert np.min(h @ m) < 0
    ok, margin = verify_certificate(_replaced(chain4, 0, h, chain4.margins[0]), _ALPHA4, 4)
    assert not ok and margin < 0


def test_link_declaring_more_than_it_reaches_is_rejected(chain4):
    inflated = _replaced(chain4, 2, chain4.h[2], chain4.margins[2] + 1e-9)
    assert verify_certificate(inflated, _ALPHA4, 4) == (False, chain4.margin)


def test_row_link_must_remove_all_its_columns(substitute):
    # at pi/2 link 0 is h = e_0, and an entry i in row 0 on the column
    # (1, 0, 1), which has n1 = 0, gives h'M = 0 there: the link leaves a
    # column of its own row, no later link is judged on it, so the chain
    # cannot count it as removed and no certificate may come out
    def tilted(alpha, n):
        c = build_C(alpha, n)
        c[0, 1] = 1j
        return c

    assert feasibility._chain(build_C_stack((math.pi / 2,), 2), [math.pi / 2], 2)[0] is not None
    substitute(tilted)
    assert feasibility._chain(tilted(math.pi / 2, 2)[None], [math.pi / 2], 2) == [None]
    assert not isinstance(nns_exists(math.pi / 2, 2), Certificate)


def test_chain_needs_each_row_zero_beyond_its_columns(substitute):
    # row 1 given the entry sin - i cos at the column (1, 2, 1), which has
    # n1 = 2 > 1, with (cos, sin) link 1's scaled entries: link 1's value
    # there, cos sin - sin cos, is exactly 0, so the generic rule still
    # takes every link, but the proof needs row 1 itself to vanish there,
    # and the chain certifies nothing
    alpha, n, j = _ALPHA4, 4, 1
    cert = nns_exists(alpha, n)
    cos, sin = cert.h[j, j], cert.h[j, n + 1 + j]
    col = column_index(n)[(1, 2, 1)]

    def stray(a, order):
        c = build_C(a, order)
        c[j, col] = sin - 1j * cos
        return c

    c = stray(alpha, n)
    assert c[j, col] != 0 and cos * c[j, col].real + sin * c[j, col].imag == 0
    substitute(stray)
    assert verify_certificate(cert, alpha, n) == (True, cert.margin)
    assert feasibility._chain(c[None], [alpha], n) == [None]
    assert not isinstance(nns_exists(alpha, n), Certificate)


def test_certificate_rule_is_scale_free(chain4):
    scales = [[10.0 ** (6 - i)] for i in range(len(chain4.h))]
    scaled = Certificate(h=chain4.h * scales, margins=chain4.margins)
    ok, margin = verify_certificate(scaled, _ALPHA4, 4)
    assert ok
    assert margin == pytest.approx(chain4.margin, rel=1e-14)


def _pushed_below_bar(cert, i, m):
    """Link i turned within its two rows of M until it still separates the
    columns it removes, but by less than TOL_MARGIN; (h, margin)."""
    link = cert.h[i]
    alive = list(_in_play(cert, m))[i]
    rows = m.shape[0] // 2
    psi = math.atan2(link[rows + i], link[i])

    def pushed(t):
        h = np.zeros_like(link)
        h[i], h[rows + i] = math.cos(psi + t), math.sin(psi + t)
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
    for i in range(len(chain4.h)):
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


@pytest.mark.parametrize("alpha", ["2.0", "1.6", None, 2 + 0j, 1.0, 3.3],
                         ids=["str", "str-1.6", "None", "complex", "below", "above"])
def test_angle_must_be_a_real_number(alpha, chain4):
    # an angle that is no real number cannot be compared with the range, and
    # is refused with the range's ValueError, alone and inside a stack, not
    # failed with a TypeError; so is an angle outside the range.  A system
    # built or re-checked alone is refused by the same check
    calls = [lambda: nns_exists(alpha, 4), lambda: feasibility._decide([2.0, alpha, math.pi], 4),
             lambda: realize(alpha, 4), lambda: verify_certificate(chain4, alpha, 4)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^alpha must lie in \[pi/2, pi\]$"):
            call()


@pytest.mark.parametrize("alpha, n", [(1.6, 4), (2.5, 4), (2.0, 12), (math.pi, 4)],
                         ids=["certificate", "witness", "support", "above-pi"])
def test_float32_angle_is_its_float_value(alpha, n):
    # a numpy float32 angle is judged at its float64 value, the one its
    # system is built at, alone and inside a stack: that value's bits, or,
    # for float32(pi) > pi, its ValueError
    single = np.float32(alpha)
    value = float(single)
    if value > math.pi + 1e-12:
        for alphas in ((single,), [2.0, single, 3.0]):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[pi/2, pi\]$"):
                feasibility._decide(alphas, n)
        with pytest.raises(ValueError, match=r"^alpha must lie in \[pi/2, pi\]$"):
            realize(single, n)
        return
    assert realize(single, n).tobytes() == realize(value, n).tobytes()
    assert _outcome_bits(nns_exists(single, n)) == _outcome_bits(nns_exists(value, n))
    stacked = feasibility._decide([2.0, single, 3.0], n)
    assert _outcome_bits(stacked[1]) == _outcome_bits(feasibility._decide([2.0, value, 3.0], n)[1])


@pytest.fixture
def substitute(monkeypatch):
    """Make `feasibility` build each angle's system with `builder` (build_C
    itself by default), in a stack or alone; returns the list of every stack
    it builds, in call order, a system built alone as a stack of one."""

    def install(builder=build_C):
        return build_per_angle(monkeypatch, builder)

    return install


def _tiny_system(alpha, n):
    # one complex row at roundoff scale: its real embedding is a 2 x 3
    # block of 1e-14, infeasible but far below the margin bar of the row
    # chain
    return np.full((1, 3), 1e-14 + 1e-14j)


def _crossed_system(alpha, n):
    # infeasible (h = (1, 2, 5, 0)/5 separates by 0.6), but not of the shape
    # of an order-3 system, so the proof's chain is not tried on it
    return np.array([[1, -1, 1j], [1, 2, -1]], dtype=complex)


def _reversed_columns(alpha, n):
    # the same system with its columns in reverse order: the closed form and
    # the proof's chain, both in column order, miss their bars on it; the
    # projection knows no column order.  Laid out C-contiguous, as a builder
    # lays out its systems
    return np.ascontiguousarray(build_C(alpha, n)[:, ::-1])


def test_crossed_system_reaches_the_projection(substitute, nnls_calls):
    # the projection proposes no witness and certifies nothing: the outcome
    # is indeterminate, its detail naming the projection residual and the
    # chain that does not hold
    substitute(_crossed_system)
    outcome = nns_exists(math.pi, 3)
    assert nnls_calls == [(5, 3)]
    assert isinstance(outcome, Indeterminate)
    assert str(outcome) == ("projection residual 4.804e-01: no witness within 1.0e-08, "
                            "and the necessity proof's chain does not hold at margin 1.0e-08")


def _undecidable_below_threshold(alpha, n):
    # the system of `undecidable_below_threshold` in test_cli: every entry
    # 1e-7 + 1e-7j below the threshold, the true system above it
    if alpha > conjectured_threshold(n):
        return build_C(alpha, n)
    return np.full(build_C(alpha, n).shape, 1e-7 + 1e-7j)


def _outcome_bits(outcome):
    bits = [outcome.kind, float(outcome.metric).hex(), str(outcome)]
    for name in ("y", "h", "margins"):
        if hasattr(outcome, name):
            a = getattr(outcome, name)
            bits += [a.tobytes(), a.shape, a.dtype.str, a.flags.writeable]
    return bits


@pytest.mark.parametrize("system, orders, points, stack", [
    (build_C, range(1, 13), 41, None),
    (build_B, range(1, 9), 9, None),
    (_reversed_columns, range(1, 13), 9, None),
    (_undecidable_below_threshold, range(1, 13), 9, None),
    (build_C, range(1, 13), 41, 7),
], ids=["C", "B", "reversed", "undecidable-below", "C-stack7"])
def test_grid_decision_is_each_angle_alone(substitute, monkeypatch, system, orders, points,
                                           stack):
    # a grid decided in one stack, or cut into stacks of 7 angles, gives
    # every angle the outcome it gets alone, bit for bit: kind, metric, y, h
    # and margins, each array with its shape, dtype and writeability, also
    # under a substituted builder of C's shape.  The grid
    # holds the catalog endpoints, the band below the threshold, the
    # order-11/12 gap and both ends of [pi/2, pi]
    substitute(system)
    if stack is not None:
        monkeypatch.setattr(feasibility, "STACK", stack)
    if system is _undecidable_below_threshold:
        monkeypatch.setattr(feasibility, "TOL_MARGIN", 1e-6)
    kinds = set()
    for n in orders:
        conj = conjectured_threshold(n)
        grid = [*np.linspace(math.pi / 2, math.pi, points).tolist(),
                *(conjectured_threshold(k) for k in range(2, 11)),
                *(conj - 10.0 ** -e for e in range(3, 10)),
                *np.linspace(conj, conjectured_threshold(10), 5 if n > 10 else 0).tolist(),
                math.pi / 2, math.pi]
        grid = [alpha for alpha in grid if math.pi / 2 <= alpha <= math.pi]
        stacked = feasibility._decide(grid, n)
        alone = [feasibility._decide((alpha,), n)[0] for alpha in grid]
        assert [_outcome_bits(o) for o in stacked] == [_outcome_bits(o) for o in alone], n
        kinds |= {o.kind for o in stacked}
    assert kinds >= {"witness", "certificate" if system is build_C else "indeterminate"}


def test_stage_rows_keep_their_order():
    # a stage is handed the systems at its rows in the order of the rows: a
    # view of the stack where they run consecutively, else a copy, also
    # when the rows span a consecutive range out of order
    stack = feasibility.read_only(np.arange(5.0)[:, None] * np.ones((5, 3)))
    for rows in ([2], [1, 2, 3], [0, 1, 2, 3, 4], [0, 2, 1, 3], [3, 1], [0, 4]):
        picked = feasibility._rows(stack, rows)
        assert picked.tobytes() == stack[rows].tobytes(), rows
        assert np.shares_memory(picked, stack) == (rows in ([2], [1, 2, 3], [0, 1, 2, 3, 4])), rows


def test_long_grid_is_decided_in_stacks(monkeypatch):
    # a grid longer than STACK is decided in consecutive stacks of at most
    # STACK angles, so a call never holds more than STACK systems; every
    # angle of this grid lies below the threshold and reaches the chain
    sizes = []
    chain = feasibility._chain

    def recording(c, alphas, n):
        sizes.append(len(c))
        return chain(c, alphas, n)

    monkeypatch.setattr(feasibility, "_chain", recording)
    stack = feasibility.STACK
    grid = necessity_grid(4, 2 * stack + 3).tolist()
    outcomes = feasibility._decide(grid, 4)
    assert sizes == [stack, stack, 3]
    assert len(outcomes) == len(grid)
    assert all(isinstance(outcome, Certificate) for outcome in outcomes)


@pytest.mark.parametrize("n", [11, 12])
def test_support_table_runs_before_the_chain(monkeypatch, n):
    # in a stack the support table judges the open angles before the chain,
    # in the stages' order, so on an ascending grid from below the threshold
    # into the gap the chain is handed none of the angles the table decided,
    # and still a view of the one built stack
    build, chain = feasibility.build_C_stack, feasibility._chain
    table = feasibility._support_witnesses
    built, decided, chained = [], [], []

    def recorded_table(c, alphas, rows):
        found = table(c, alphas, rows)
        decided.extend(alpha for alpha, witness in zip(alphas, found) if witness is not None)
        return found

    monkeypatch.setattr(feasibility, "build_C_stack",
                        lambda alphas, n: built.append(build(alphas, n)) or built[-1])
    monkeypatch.setattr(feasibility, "_support_witnesses", recorded_table)
    monkeypatch.setattr(feasibility, "_chain",
                        lambda c, alphas, n: chained.append((c, alphas)) or chain(c, alphas, n))
    conj = conjectured_threshold(n)
    grid = np.linspace(conj - 0.05, conjectured_threshold(10), 40).tolist()
    outcomes = feasibility._decide(grid, n)
    assert len(built) == 1 and len(chained) == 1
    c, alphas = chained[0]
    assert decided == [alpha for alpha in grid if alpha >= conj]
    assert alphas == [alpha for alpha in grid if alpha < conj]
    assert np.shares_memory(c, built[0])
    assert [o.kind for o in outcomes] == ["certificate" if a < conj else "witness" for a in grid]


def test_duplicate_rows_give_same_outcome_class(substitute):
    # the witness side: the proof's chain is written for the rows of C, so
    # B certifies nothing from order 2 on
    cases = []
    for n in range(1, 6):
        cases.append((n, math.pi - 0.01))
        if n >= 2:
            cases.append((n, conjectured_threshold(n) + 0.02))
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
    for n in (0, 13):
        with pytest.raises(ValueError, match=f"^order must lie in 1..12, got {n}$"):
            threshold_bisect(n)
    for tol in (1e-9, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^tol_alpha must be finite and at least 1e-8, "
                                             f"got {tol!r}$"):
            threshold_bisect(3, tol_alpha=tol)


@pytest.mark.parametrize("tol", [True, False, np.bool_(True), "1e-6", None])
def test_tolerance_must_be_a_real_number(tol):
    # a bool is refused as the orders refuse one, not read as 1.0 or 0.0,
    # and a value that is no number at all gets the same ValueError
    with pytest.raises(ValueError, match="^tol_alpha must be finite and at least 1e-8, got "):
        threshold_bisect(4, tol)


def test_numpy_float_tolerance_passes():
    assert threshold_bisect(4, np.float64(1e-6)) == threshold_bisect(4, 1e-6)


@pytest.mark.parametrize("order", [3.0, 2.5, True], ids=["integral-float", "float", "bool"])
@pytest.mark.parametrize("call", [
    lambda n: build_C(2.0, n),
    lambda n: nns_exists(2.0, n),
    threshold_bisect,
    lambda n: necessity_scan(n, 3),
], ids=["build_C", "nns_exists", "threshold_bisect", "necessity_scan"])
def test_order_must_be_an_integer(call, order):
    # an order that is not an integer is refused up front with the order
    # message, not let through as a bool or failed later with a TypeError
    with pytest.raises(ValueError, match=f"^order must lie in 1..12, got {order}$"):
        call(order)


def test_numpy_integer_order_passes():
    n = np.int64(3)
    assert build_C(2.0, n).tobytes() == build_C(2.0, 3).tobytes()
    assert threshold_bisect(n).order == 3


def test_numpy_integer_order_is_reported_as_an_int():
    # records carry the order as a Python int, so they encode as JSON
    n = np.int64(3)
    estimate = threshold_bisect(n)
    rows = necessity_scan(n, 2)
    assert type(estimate.order) is int and {type(row["n"]) for row in rows} == {int}
    assert json.loads(json.dumps(estimate.to_dict()))["n"] == 3
    assert [row["n"] for row in json.loads(json.dumps(rows))] == [3, 3]


@pytest.mark.parametrize("outcome, message, probed", [
    (Witness(y=np.ones(3) / 3, residual=0.0), "infeasibility near pi/2", [math.pi / 2 + 1e-4]),
    (Certificate(h=np.ones((1, 4)), margins=np.ones(1)), "feasibility at pi",
     [math.pi / 2 + 1e-4, math.pi]),
], ids=["witness-at-left", "certificate-at-right"])
def test_threshold_bisect_checks_endpoints(monkeypatch, outcome, message, probed):
    # every probe is one `nns_exists` decision: a witness at the left
    # endpoint, or a certificate at pi, contradicts a single threshold
    probes = []
    monkeypatch.setattr(feasibility, "nns_exists",
                        lambda alpha, n: probes.append(alpha) or outcome)
    with pytest.raises(NonMonotonePredicate, match=message):
        threshold_bisect(3)
    assert probes == probed


@pytest.mark.parametrize("tol_alpha", [None, 1e-8])
def test_threshold_bisect_raises_unresolved_probe(monkeypatch, tol_alpha):
    # an indeterminate probe cannot be bracketed: it stops the bisection at
    # the default tolerance and at the finest one alike
    probe = Indeterminate("stuck")
    monkeypatch.setattr(feasibility, "nns_exists", lambda alpha, n: probe)
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


def _assert_matches_reference(c, alpha, n):
    """`nns_exists` is a Certificate exactly where `_reference_chain` finds
    links on c, the order-n system at alpha, with the same rows and margins,
    and it verifies; returns whether it is one."""
    expected = _reference_chain(c)
    outcome = nns_exists(alpha, n)
    assert isinstance(outcome, Certificate) == (expected is not None), (n, alpha)
    if expected is None:
        return False
    assert list(range(len(outcome.margins))) == [row for row, _ in expected]
    # the two bisectors differ by a few ulps of pi, a margin by as much
    assert_allclose(outcome.margins,
                    [margin for _, margin in expected], rtol=1e-12, atol=1e-14)
    assert verify_certificate(outcome, alpha, n) == (True, outcome.margin)
    return True


@pytest.mark.parametrize("system", [build_C], ids=["C"])
def test_row_chain_matches_the_row_by_row_reference(system):
    # on the corpus of every order; the proof's chain is written for the
    # rows and columns of C in their own order, so it is C that is compared
    for n in range(1, 13):
        for alpha in _corpus(n):
            _assert_matches_reference(system(alpha, n), alpha, n)


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
            assert all(type(link["row"]) is int for link in outcome.to_dict()["steps"])
            assert verify_certificate(outcome, alpha, n) == (True, outcome.margin)


@pytest.mark.parametrize("n", range(1, 13))
def test_explicit_chain_holds_exactly_where_the_row_chain_does(n):
    # a 300-point grid over [pi/2, pi] and conj -+ 1e-12 ... 1e-1, on both
    # sides of the band where the links' margins fall under TOL_MARGIN
    conj = conjectured_threshold(n)
    offsets = np.geomspace(1e-12, 1e-1, 60).tolist()
    angles = [*np.linspace(math.pi / 2, math.pi, 300).tolist(),
              *(conj + sign * d for sign in (-1, 1) for d in offsets)]
    held = sum(_assert_matches_reference(build_C(alpha, n), alpha, n)
               for alpha in angles if math.pi / 2 <= alpha <= math.pi)
    assert held >= 60


def test_explicit_chain_must_remove_the_columns_of_each_link():
    # a zero column is a nonnegative null vector: link 0 leaves it in play
    # at h'M = 0, and no later link is judged on it, so the chain must not
    # hold although every link reaches the margin bar
    alpha, n = _ALPHA4, 4
    c = build_C_stack((alpha,), n)
    assert feasibility._chain(c, [alpha], n)[0] is not None
    c[:, :, 2] = 0  # the column (2, 0, 2), in play for link 0 only
    assert feasibility._chain(c, [alpha], n) == [None]


def _blas_free_grids():
    """(n, angles): the grid `test_decision_bits_are_pinned` decides and the
    necessity grids of every order."""
    for n in (4, 10, 12):
        conj = conjectured_threshold(n)
        yield n, [*np.linspace(math.pi / 2, math.pi, 24).tolist(), conj - 1e-3, conj + 1e-3]
    for n in range(1, 13):
        yield n, necessity_grid(n, 40).tolist()


def test_chain_margins_do_not_depend_on_blas():
    # every link margin is the least cos Re C[j, k] + sin Im C[j, k] over
    # the columns with n1 = j, written out elementwise here, bit for bit;
    # and the generic rule, re-judging each link on the rebuilt system,
    # gives the same margin, bit for bit
    certified = 0
    for n, alphas in _blas_free_grids():
        n1 = np.array([label[1] for label in column_order(n)])
        for alpha, cert in zip(alphas, feasibility._decide(alphas, n)):
            if not isinstance(cert, Certificate):
                continue
            c, m = build_C(alpha, n), realize(alpha, n)
            own = [(cert.h[j, j] * c[j, n1 == j].real + cert.h[j, n + 1 + j] * c[j, n1 == j].imag)
                   .min() for j in range(n + 1)]
            assert [x.hex() for x in cert.margins.tolist()] == [float(x).hex() for x in own]
            alive, judged = np.ones(m.shape[1], dtype=bool), []
            for link in cert.h:
                margin, alive = feasibility._separation(link, m, alive)
                judged.append(margin)
            assert judged == cert.margins.tolist() and not alive.any(), (n, alpha)
            assert verify_certificate(cert, alpha, n) == (True, cert.margin)
            certified += 1
    assert certified >= 12 * 40


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
    assert sum(map(len, build_calls)) == 3
    assert [row["verified"] for row in rows] == [True] * 3


def test_necessity_scan_empty():
    assert necessity_scan(3, 0) == []


@pytest.mark.parametrize("points", [2.5, 3.0, -1, True], ids=["float", "integral-float",
                                                             "negative", "bool"])
@pytest.mark.parametrize("call", [necessity_grid, necessity_scan])
def test_necessity_points_must_be_a_count(call, points):
    # a count that is not a nonnegative integer is refused up front, not
    # spaced as if it were one (2.5 gave 3 points spaced for 3.5), emptied
    # (-1) or read as 1 (True)
    with pytest.raises(ValueError, match=f"^points must be a nonnegative integer, got {points}$"):
        call(4, points)


def test_numpy_integer_points_pass():
    assert necessity_grid(4, np.int64(3)).tobytes() == necessity_grid(4, 3).tobytes()
    assert necessity_scan(np.int64(4), np.int64(3)) == necessity_scan(4, 3)


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


def _nan_triangle_solve(a, b):
    return np.full(b.shape, np.nan)


def _singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


# the NaN comes from below `_qr_solve` (the triangle solve as `nnls` binds
# it), so it passes through the one finite check every solve shares
_BREAKS = {
    "nan": (paradist.nnls, "solve", _nan_triangle_solve),
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
    row = necessity_point(alpha, 3, nns_exists(alpha, 3))
    assert row.keys() == {"alpha", "n", "outcome", "residual", "anomaly"}
    assert (row["alpha"], row["n"], row["outcome"], row["anomaly"]) == (alpha, 3, "witness", True)
    assert row["residual"] <= TOL_WITNESS


def test_necessity_point_flags_indeterminate(substitute, monkeypatch):
    # one complex row of 1e-7: no witness within 1e-8, and no chain, whose
    # bar the detail names as it is read at call time
    substitute(lambda alpha, n: np.full((1, 3), 1e-7 + 1e-7j))
    monkeypatch.setattr(feasibility, "TOL_MARGIN", 1e-6)
    row = necessity_point(2.0, 1, nns_exists(2.0, 1))
    assert row.keys() == {"alpha", "n", "outcome", "detail", "anomaly"}
    assert (row["outcome"], row["anomaly"]) == ("indeterminate", True)
    assert row["detail"].endswith("the necessity proof's chain does not hold at margin 1.0e-06")


def test_necessity_point_lists_the_chain():
    alpha = float(necessity_grid(3, 1)[0])
    row = necessity_point(alpha, 3, nns_exists(alpha, 3))
    assert row.keys() == {"alpha", "n", "outcome", "margin", "steps", "verified", "anomaly"}
    assert [step["row"] for step in row["steps"]] == [0, 1, 2, 3]
    assert row["margin"] == min(step["margin"] for step in row["steps"]) >= TOL_MARGIN


def _closed_form_witness(alpha, n):
    # the stacked catalog stage on the stack of one
    held, y = catalog.catalog_solutions([alpha], n)
    return feasibility._witnesses(build_C_stack((alpha,), n), y)[0] if held else None


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_agrees_with_nns_exists(n, nnls_calls):
    # a grid over [pi/2, pi] and conj +- 1e-12 ... 1e-2; the catalog's
    # endpoints are the conjectured thresholds of the orders 2..n (order 1
    # is the single angle pi, inside the grid); each float endpoint
    # fl(conj(k)) lies below conj(k) and takes order k+1's closed form, so
    # only order n's own endpoint has none.  Wherever the closed form
    # passes it is the witness, bit for bit; the projection runs only
    # where both paper constructions miss: at order n's own endpoint, or
    # in the band just below conj where the chain's margins (about
    # n (conj - alpha)) fall under TOL_MARGIN.  Above the catalog, orders
    # 11 and 12 have no closed form on [conj, conj(10)], order 10's own
    # endpoint included, and the support table decides there instead
    conj = conjectured_threshold(n)
    covered = conjectured_threshold(min(n, 10))
    offsets = [sign * 10.0 ** -e for e in range(2, 13) for sign in (-1, 1)]
    grid = [*np.linspace(math.pi / 2, math.pi, 41).tolist(),
            *(conj + d for d in offsets if conj + d <= math.pi)]
    ends = [conj] if 2 <= n <= 10 else []
    above = 0
    for alpha in grid:
        witness = _closed_form_witness(alpha, n)
        projected = len(nnls_calls)
        outcome = nns_exists(alpha, n)
        if witness is not None:
            assert isinstance(outcome, Witness), alpha
            assert outcome.y.tobytes() == witness.y.tobytes(), alpha
            assert outcome.residual == witness.residual, alpha
        near_end = any(abs(alpha - end) <= 1e-12 for end in ends)
        if len(nnls_calls) > projected:
            assert near_end or 0 < n * (conj - alpha) < 2e-8, alpha
        if alpha < conj:
            assert witness is None, alpha
        elif alpha <= covered and n > 10:
            assert witness is None, alpha
            assert isinstance(outcome, Witness), alpha
        elif not near_end:
            assert witness is not None, alpha
            above += 1
    assert above >= (1 if n == 1 else 20)


@pytest.mark.parametrize("n", [11, 12])
def test_support_table_covers_the_gap(n, nnls_calls):
    # on [conj(n), conj(10)] every angle is a witness from the table,
    # down to the threshold itself and up to the catalog's order-10
    # endpoint, where the order-10 closed form rounds below 0
    conj = conjectured_threshold(n)
    top = conjectured_threshold(10)
    grid = [*np.linspace(conj, top, 2000).tolist(),
            *(conj + d for d in [0.0, *(10.0 ** -e for e in range(3, 16))]), top]
    for alpha in grid:
        outcome = nns_exists(alpha, n)
        assert isinstance(outcome, Witness), alpha
        assert outcome.residual <= TOL_WITNESS, alpha
    assert nnls_calls == []


@pytest.mark.parametrize("n", [11, 12])
def test_support_table_proposes_nothing_below_threshold(n):
    # every row is judged on the whole stack; none holds an angle below
    # the threshold, whatever its support would give there
    conj = conjectured_threshold(n)
    alphas = [conj - 10.0 ** -e for e in range(2, 16)]
    c = build_C_stack(alphas, n)
    table = feasibility._support_columns(n)
    assert feasibility._support_witnesses(c, alphas, table) == [None] * len(alphas)


@pytest.mark.parametrize("n", [11, 12])
def test_support_witnesses_take_the_first_passing_row(n):
    # the rows overlap: judged row by row over the whole stack, each angle
    # gets, bit for bit, the first row that holds it and passes, as when
    # its rows are tried one at a time
    rows = feasibility._support_columns(n)
    alphas = np.linspace(conjectured_threshold(n), conjectured_threshold(10), 23).tolist()
    c = build_C_stack(alphas, n)
    together = feasibility._support_witnesses(c, alphas, rows)
    for i, alpha in enumerate(alphas):
        for row in rows:
            first = feasibility._support_witnesses(c[i:i + 1], [alpha], [row])[0]
            if first is not None:
                break
        assert first.y.tobytes() == together[i].y.tobytes(), alpha


@pytest.mark.parametrize("n, row", [(n, row) for n in (11, 12)
                                    for row in range(len(feasibility._support_columns(n)))])
def test_support_witnesses_match_svd_null_vectors(n, row):
    # LAPACK's SVD stays here as the reference: on 400 angles over a row,
    # the bordered normal equations accept exactly the angles where the last
    # right singular vector of the support's columns, its sum made 1,
    # passes the witness rule, and both give the same y within 1e-12
    lo, hi, cols = feasibility._support_columns(n)[row]
    alphas = np.linspace(lo, hi, 400).tolist()
    c = build_C_stack(alphas, n)
    found = feasibility._support_witnesses(c, alphas, [(lo, hi, cols)])
    v = np.linalg.svd(np.concatenate((c.real, c.imag), axis=-2)[..., cols])[2][:, -1]
    ref = np.zeros((len(alphas), c.shape[-1]))
    ref[:, cols] = v / v.sum(axis=-1, keepdims=True)
    residual = np.abs(c @ ref[..., None]).max(axis=(-2, -1))
    passes = (ref.min(axis=-1) >= 0) & (residual <= TOL_WITNESS)
    assert passes.any()
    assert [w is not None for w in found] == passes.tolist()
    for witness, y in zip(found, ref):
        if witness is not None:
            assert_allclose(witness.y, y, rtol=0, atol=1e-12)


def test_singular_support_system_gets_no_witness():
    # one exactly singular system in the stack (a constant matrix, so the
    # bordered normal equations have rank one) gets no witness, and raises
    # nothing; every other angle keeps the bits it gets alone
    rows = feasibility._support_columns(12)
    alphas = np.linspace(conjectured_threshold(12), conjectured_threshold(10), 8).tolist()
    c = build_C_stack(alphas, 12)
    c[2] = 1e-7 + 1e-7j
    found = feasibility._support_witnesses(c, alphas, rows)
    for i, alpha in enumerate(alphas):
        alone = feasibility._support_witnesses(c[i:i + 1], [alpha], rows)[0]
        assert (alone is None) == (found[i] is None) == (i == 2), alpha
        if alone is not None:
            assert alone.y.tobytes() == found[i].y.tobytes(), alpha
            assert alone.residual == found[i].residual, alpha


@pytest.fixture
def embedded(monkeypatch):
    """Every stack of systems `feasibility` embeds as M, in call order."""
    calls = []
    embed = feasibility._embed
    monkeypatch.setattr(feasibility, "_embed", lambda c: calls.append(c) or embed(c))
    return calls


def test_certificate_embeds_nothing(embedded):
    # the chain reads C itself and no table row holds an angle below the
    # threshold, so an order-12 certificate embeds no system
    assert isinstance(nns_exists(conjectured_threshold(12) - 0.01, 12), Certificate)
    assert embedded == []


@pytest.mark.parametrize("n", [11, 12])
def test_support_witnesses_embed_only_the_rows_they_hold(embedded, nnls_calls, n):
    # from below the threshold into the gap, only the table step embeds,
    # and only the systems of gap angles its rows hold; a lone gap angle
    # embeds its own system alone
    conj = conjectured_threshold(n)
    alphas = [conj - 0.1, conj - 0.01, *np.linspace(conj, conjectured_threshold(10), 9).tolist()]
    outcomes = feasibility._decide(alphas, n)
    assert [o.kind for o in outcomes] == ["certificate"] * 2 + ["witness"] * 9
    assert nnls_calls == []
    angle = {c.tobytes(): alpha for alpha, c in zip(alphas, build_C_stack(alphas, n))}
    assert {angle[c.tobytes()] for stack in embedded for c in stack} == set(alphas[2:])
    embedded.clear()
    assert isinstance(nns_exists(alphas[6], n), Witness)
    assert embedded and all(c.tobytes() == build_C(alphas[6], n).tobytes()
                            for stack in embedded for c in stack)


def test_witness_vectors_are_read_only(nnls_calls):
    # a returned witness's vector cannot change after its residual was
    # judged: a lone angle's, a projection's, and every one of a grid
    # decided in one stack (closed form and support table alike)
    lone = nns_exists(math.pi, 4)
    projected = nns_exists(conjectured_threshold(4), 4)
    assert isinstance(projected, Witness) and nnls_calls
    witnesses = [lone, projected]
    for n in (4, 12):
        grid = np.linspace(math.pi / 2, math.pi, 120).tolist()
        witnesses += [o for o in feasibility._decide(grid, n) if isinstance(o, Witness)]
    assert not any(witness.y.flags.writeable for witness in witnesses)
    with pytest.raises(ValueError):
        lone.y[0] = 1.0


def test_support_table_structure():
    # rows sorted and overlapping, covering [conj(n), conj(10)] exactly,
    # each naming distinct columns of its own order
    assert sorted(SUPPORTS) == [11, 12]
    for n, rows in SUPPORTS.items():
        labels = column_order(n)
        assert rows[0][0] == conjectured_threshold(n)
        assert rows[-1][1] == conjectured_threshold(10)
        assert list(rows) == sorted(rows)
        for lo, hi, support in rows:
            assert lo < hi
            assert len(set(support)) == len(support) <= 2 * (n + 1)
            assert all(label in labels for label in support), (n, lo)
        for before, after in zip(rows, rows[1:]):
            assert after[0] <= before[1], (n, after[0])


def test_support_table_tool_reaches_the_engine():
    # `tools/support_tables.py` builds SUPPORTS from the engine's own pieces
    # (`build_C_stack`, `_project`, `_support_witnesses`) and sets
    # up no projection of its own; a rename must fail here rather than in
    # the next regeneration.  At the midpoint of each committed row the
    # projection the tool runs proposes a witness, and the committed
    # support passes the witness rule on the system the tool builds
    spec = importlib.util.spec_from_file_location("support_tables", SUPPORT_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert not hasattr(tool, "nnls")
    assert list(tool.ORDERS) == sorted(SUPPORTS)
    for n, rows in SUPPORTS.items():
        index = column_index(n)
        for lo, hi, labels in rows:
            alpha = 0.5 * (lo + hi)
            c = tool.build_C_stack((alpha,), n)
            assert isinstance(tool.feasibility._project(c[0]), Witness), (n, lo)
            cols = np.array([index[label] for label in labels])
            [witness] = tool.feasibility._support_witnesses(c, [alpha], [(lo, hi, cols)])
            assert witness is not None, (n, lo)


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
    c = build_C(alpha, n)
    y = explicit_nns(n, alpha)
    assert y.min() < 0
    assert feasibility._witness(c, y) is None
    assert catalog.catalog_solutions([alpha], n) == ([], None)
    assert isinstance(feasibility._witness(c, np.maximum(y, 0)), Witness)


def test_witness_rule_refuses_a_vector_that_does_not_fit():
    alpha = conjectured_threshold(3) + 0.01
    c = build_C(alpha, 3)
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


@pytest.mark.parametrize("k", range(2, 11))
def test_catalog_endpoint_is_the_next_order(k, nnls_calls):
    # fl(conj(k)) lies exactly below conj(k), so it belongs to order k+1:
    # at every order above k it is a witness without the projection, for
    # k <= 9 order k+1's padded vector, normalised, bit for bit, and for
    # k = 10 (orders 11 and 12) a support table row's null vector
    alpha = conjectured_threshold(k)
    for n in range(k + 1, 13):
        outcome = nns_exists(alpha, n)
        assert isinstance(outcome, Witness), n
        if k <= 9:
            y = np.array(catalog._solution(k + 1, k + 1, alpha))
            for _ in range(k + 1, n):
                y = pad_solution(y)
            assert outcome.y.tobytes() == (y / float(np.add.reduce(y))).tobytes(), n
    assert nnls_calls == []


@pytest.mark.parametrize("n", [11, 12])
def test_threshold_above_the_catalog_runs_no_projection(n, nnls_calls):
    # the support table decides every feasible probe and the chain every
    # infeasible one, down to the finest bracket width
    for tol in (1e-6, 1e-7, 1e-8):
        estimate = threshold_bisect(n, tol)
        half = estimate.bracket_width / 2
        assert estimate.bracket_width <= tol
        assert estimate.alpha_star - half < conjectured_threshold(n) <= estimate.alpha_star + half
    assert nnls_calls == []


def test_threshold_search_runs_no_projection(nnls_calls, build_calls):
    # every feasible probe rests on a closed form and every infeasible one
    # on the proof's chain, for each order the catalog covers: no probe
    # reaches the projection, and each of the 39 probes (3 at order 1, then
    # 4 per order, where plain bisection made 23) is one decision that
    # builds its system once
    for n in range(1, 11):
        threshold_bisect(n)
    assert nnls_calls == []
    assert [len(c) for c in build_calls] == [1] * 39


def test_probe_falls_back_to_the_projection(substitute, nnls_calls, monkeypatch):
    expected = threshold_bisect(3)
    assert nnls_calls == []
    conj = conjectured_threshold(3)
    substitute(lambda alpha, n: _reversed_columns(alpha, n) if alpha > conj else build_C(alpha, n))
    decisions = _record_decisions(monkeypatch)
    # above the threshold the columns are reversed, so each feasible probe
    # now rests on the projection; the infeasible ones rest on the chain as
    # before, and every probe decides as before
    assert threshold_bisect(3) == expected
    above = [alpha for alpha, outcome in decisions if alpha > conj]
    assert all(isinstance(outcome, Witness) for alpha, outcome in decisions if alpha > conj)
    assert len(above) == 2
    assert len(nnls_calls) == len(above)


def _record_decisions(monkeypatch):
    """Every (alpha, outcome) `nns_exists` returns from now on, in call
    order."""
    decisions = []
    decide = feasibility.nns_exists

    def recorded(alpha, n):
        decisions.append((alpha, decide(alpha, n)))
        return decisions[-1][1]

    monkeypatch.setattr(feasibility, "nns_exists", recorded)
    return decisions


def _plain_bisection(n, tol_alpha, decide=nns_exists):
    """The threshold search as plain bisection ran it, one decision of
    `decide` per halving of [pi/2 + 1e-4, pi]: the reference whose bits the
    guided search must return.  (alpha_star, width, decisions)."""
    lo, hi = math.pi / 2 + 1e-4, math.pi
    decisions = 2

    def feasible(alpha):
        outcome = decide(alpha, n)
        if isinstance(outcome, Indeterminate):
            raise outcome
        return isinstance(outcome, Witness)

    assert not feasible(lo) and feasible(hi)
    while hi - lo > tol_alpha:
        mid = 0.5 * (lo + hi)
        decisions += 1
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), hi - lo, decisions


_SEARCH_TOLERANCES = sorted({*np.random.default_rng(27).uniform(-8, -2, 10).round(3).tolist(), -6, -8})


@pytest.mark.parametrize("n", range(1, 13))
def test_threshold_is_plain_bisection_bit_for_bit(n):
    # the decision is monotone along every search here, so the guided
    # search returns plain bisection's alpha_star and width, bit for bit
    for exponent in _SEARCH_TOLERANCES:
        tol = 10.0 ** exponent
        estimate = threshold_bisect(n, tol)
        expected = _plain_bisection(n, tol)[:2]
        assert (estimate.alpha_star.hex(), estimate.bracket_width.hex()) == tuple(
            x.hex() for x in expected), (n, tol)


@pytest.mark.parametrize("n", range(3, 13))
def test_threshold_search_does_not_creep(n, monkeypatch):
    # far below the boundary the least link margin is 1, and at a width
    # just under 4/n a search that probed next to its guess a + margin/n
    # crept up one certificate after another (904 decisions at n = 6).
    # Phase 1 makes at most two probes, so the search makes at most two
    # decisions more than plain bisection, with its bits
    tol = 0.999 * 4 / n
    expected = _plain_bisection(n, tol)[:2]
    decisions = _record_decisions(monkeypatch)
    estimate = threshold_bisect(n, tol)
    assert (estimate.alpha_star, estimate.bracket_width) == expected
    halvings = math.ceil(math.log2((math.pi / 2 - 1e-4) / tol))
    assert len(decisions) <= 2 + halvings + 2


@pytest.mark.parametrize("n", range(1, 13))
def test_least_margin_inverts_to_the_boundary(n):
    # link 0 reads row 0 of C, whose entries lie within +-n(alpha - pi/2) of
    # its bisector, so below the boundary the least link margin is
    # min(1, cot(n(alpha - pi/2))): where that is under 1, alpha +
    # atan(margin)/n is the boundary within a few ulps, and where it is 1
    # the guess alpha + pi/(4n) lies no higher than the boundary
    conj = conjectured_threshold(n)
    for distance in np.geomspace(1e-6, conj - math.pi / 2 - 1e-4, 40).tolist():
        alpha = conj - distance
        outcome = nns_exists(alpha, n)
        assert isinstance(outcome, Certificate), (n, distance)
        if n * (alpha - math.pi / 2) > math.pi / 4:
            guess = alpha + math.atan(outcome.margin) / n
            assert abs(guess - conj) <= 4 * math.ulp(conj), (n, distance)
        else:
            assert abs(outcome.margin - 1) <= 1e-12, (n, distance)
            assert alpha + math.pi / (4 * n) <= conj, (n, distance)


def test_threshold_search_is_bounded(monkeypatch):
    # certificates at margin TOL_MARGIN up to a boundary away from order 4's
    # conjectured one: far from it (2.5), or just outside the bracket plain
    # bisection ends on at the conjectured boundary, so that the guess's
    # lower end comes out a witness or its upper end a certificate.  The
    # search then replays bisection's midpoints and returns plain
    # bisection's bits; phase 1 makes at most two probes, so it makes at
    # most two decisions more than plain bisection
    conj = conjectured_threshold(4)

    def decide(alpha, n):
        if alpha < boundary:
            return Certificate(h=np.ones((1, 2 * (n + 1))), margins=np.full(1, TOL_MARGIN))
        return Witness(y=np.ones(p_count(n)) / p_count(n), residual=0.0)

    monkeypatch.setattr(feasibility, "nns_exists", decide)
    decisions = _record_decisions(monkeypatch)
    for tol in (1e-2, 1e-4, 1e-6):
        guess = [math.pi / 2 + 1e-4, math.pi]
        while guess[1] - guess[0] > tol:
            mid = 0.5 * (guess[0] + guess[1])
            guess[mid >= conj] = mid
        for boundary in (2.5, guess[0] - tol / 3, guess[1] + tol / 3):
            decisions.clear()
            estimate = threshold_bisect(4, tol)
            *expected, plain = _plain_bisection(4, tol, decide)
            assert (estimate.alpha_star, estimate.bracket_width) == tuple(expected), (tol, boundary)
            assert len(decisions) <= plain + 2, (tol, boundary)


@pytest.mark.parametrize("n", range(1, 13))
def test_threshold_search_decides_the_endpoints_then_plain_bisections_bracket(n, monkeypatch):
    # the least margin inverts to the boundary, so after the two endpoints
    # the search decides only the ends of the bracket plain bisection ends
    # on that lie strictly inside them, and no midpoint after: four
    # decisions an order, three at order 1, whose boundary is pi itself
    lo, hi = math.pi / 2 + 1e-4, math.pi
    decisions = _record_decisions(monkeypatch)
    for tol in (1e-2, 1e-4, 1e-6, 1e-7):
        # plain bisection's bracket, decided by this module's own unrecorded
        # `nns_exists`
        left, right = lo, hi
        while right - left > tol:
            mid = 0.5 * (left + right)
            if isinstance(nns_exists(mid, n), Witness):
                right = mid
            else:
                left = mid
        decisions.clear()
        threshold_bisect(n, tol)
        probes = [alpha for alpha, _ in decisions]
        assert probes == [lo, hi] + [end for end in (left, right) if lo < end < hi], tol
        assert len(probes) == (3 if n == 1 else 4), tol


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-8])
def test_threshold_bracket_rests_on_decided_probes(n, tol, build_calls, monkeypatch):
    # the reported bracket holds a decided certificate below a decided
    # witness and is at most tol wide; each decision builds its system once.
    # The bracket's ends are replayed from bisection's midpoints: one that
    # was decided takes its outcome, any other must lie at or below a
    # decided certificate or at or above a decided witness, not both
    decisions = _record_decisions(monkeypatch)
    estimate = threshold_bisect(n, tol)
    feasible = {alpha: isinstance(outcome, Witness) for alpha, outcome in decisions}
    assert all(isinstance(outcome, Witness | Certificate) for _, outcome in decisions)
    certificates = [a for a, found in feasible.items() if not found]
    witnesses = [b for b, found in feasible.items() if found]
    lo, hi = math.pi / 2 + 1e-4, math.pi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid not in feasible:
            below, above = mid <= max(certificates), mid >= min(witnesses)
            assert below != above, mid
        if feasible.get(mid, mid >= min(witnesses)):
            hi = mid
        else:
            lo = mid
    assert (estimate.alpha_star, estimate.bracket_width) == (0.5 * (lo + hi), hi - lo)
    assert any(lo <= a < b <= hi for a in certificates for b in witnesses)
    assert estimate.bracket_width <= tol
    assert [len(c) for c in build_calls] == [1] * len(decisions)


def test_probe_of_another_shape_reaches_the_projection(substitute, nnls_calls):
    # B repeats the rows of C: the chain, built for n+1 rows, does not hold
    # on it, and the left endpoint has no closed form, so the probe goes to
    # the projection, which finds no witness there either, and the probe
    # that cannot be bracketed raises
    calls = substitute(build_B)
    with pytest.raises(Indeterminate, match="chain does not hold"):
        threshold_bisect(3)
    assert [c.shape for c in calls] == [(1, 8, p_count(3))]
    assert nnls_calls == [(17, p_count(3))]


@pytest.fixture
def build_calls(substitute):
    """Every stack of systems `feasibility` builds, in call order, a
    system built alone as a stack of one."""
    return substitute()


@pytest.mark.parametrize("alpha, expected", [
    (math.pi, Witness),
    (conjectured_threshold(4) - 0.05, Certificate),
], ids=["witness", "certificate"])
def test_one_build_per_decision(build_calls, alpha, expected):
    assert isinstance(nns_exists(alpha, 4), expected)
    assert [len(c) for c in build_calls] == [1]
    assert not build_calls[0].flags.writeable


def test_passed_in_system_is_judged_against_its_own_matrix(substitute):
    # the system substituted for C is the one projected and the one judged:
    # the witness's residual is that of B, which repeats rows of C
    calls = substitute(build_B)
    witness = nns_exists(conjectured_threshold(3) + 0.02, 3)
    assert isinstance(witness, Witness)
    assert len(calls) == 1 and calls[0].shape == (1, 8, p_count(3))
    assert witness.residual == float(np.abs(calls[0][0] @ witness.y).max())


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
# and every threshold keeps its bits.  Re-recorded again when the proof's
# chain, psi_j = (n-j)(alpha - pi/2), replaced the generic row pass, which
# read each bisector off the phases of the row's entries: link h and
# margins moved by at most 1.6e-15, while every kind, link row, witness and
# threshold keeps its bits.  Re-recorded again when the paper's explicit
# solution came first in the decision: a witness's y (and residual) now
# comes from the closed form wherever that form passes, not from the
# projection, while every kind, link row, certificate h and margin and
# threshold keeps its bits (with the projection's witnesses put back, the
# digest is the previous one).  Re-recorded again when the support tables
# for orders 11 and 12 came in front of the projection: the two n = 12
# witnesses on [conj(12), conj(10)), at pi/2 + 2 (pi/2)/23 and conj + 1e-3,
# are now a table support's null vector, while every kind, certificate h
# and margin and threshold keeps its bits (with the table skipped, the
# digest is the previous one).  Re-recorded again when the support rows'
# null vectors came from the bordered normal equations (Ms'Ms + 11') y = 1
# in place of an SVD: those two witnesses' y and residual moved in their
# last bits, while every kind, certificate h and margin and threshold
# keeps its bits (with the SVD put back, the digest is the previous one).
DECISIONS_SHA = "ec543031a5232d713961433a636068fa0aab50a22d5e4be7a1c1463d5ebd058e"


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
            for row, h in enumerate(getattr(outcome, "h", ())):
                digest.update(repr(row).encode())
                digest.update(h.tobytes())
    for n in range(1, 11):
        digest.update(threshold_bisect(n).alpha_star.hex().encode())
    assert digest.hexdigest() == DECISIONS_SHA


# alpha_star and bracket_width of threshold_bisect(n, tol_alpha) as hex
# floats, n = 1..10, at two tolerances finer than the default (which
# DECISIONS_SHA pins).  The 1e-8 entries for n = 1, 4, 5 and 8 pin brackets
# that miss pi/2 + pi/(2n), the known misses of ROADMAP item 1: a probe just
# below it gets a false projection witness.  That item re-records them on
# purpose.
THRESHOLD_BITS = {
    1e-7: [
        (1, "0x1.921fb4dfbc87ap+1", "0x1.9219278000000p-24"),
        (2, "0x1.2d97c79c9e468p+1", "0x1.9219278000000p-24"),
        (3, "0x1.0c1523b6f1e88p+1", "0x1.921927a000000p-24"),
        (4, "0x1.f6a7a1f61e4bcp+0", "0x1.9219278000000p-24"),
        (5, "0x1.e28c72d2b6e04p+0", "0x1.9219279000000p-24"),
        (6, "0x1.d524fe1071edep+0", "0x1.9219279000000p-24"),
        (7, "0x1.cb91f39561a8ep+0", "0x1.9219278000000p-24"),
        (8, "0x1.c463ac1d9bbf0p+0", "0x1.9219279000000p-24"),
        (9, "0x1.becde59bf6a24p+0", "0x1.9219279000000p-24"),
        (10, "0x1.ba56148be8094p+0", "0x1.9219279000000p-24"),
    ],
    1e-8: [
        (1, "0x1.921fb53169a3ap+1", "0x1.9219280000000p-28"),
        (2, "0x1.2d97c7ee4b628p+1", "0x1.9219280000000p-28"),
        (3, "0x1.0c15237e665f0p+1", "0x1.9219260000000p-28"),
        (4, "0x1.f6a7a28056f16p+0", "0x1.9219270000000p-28"),
        (5, "0x1.e28c73118ace6p+0", "0x1.9219270000000p-28"),
        (6, "0x1.d524fe1d02b72p+0", "0x1.9219280000000p-28"),
        (7, "0x1.cb91f3bb1404ap+0", "0x1.9219270000000p-28"),
        (8, "0x1.c463abdec7d0ep+0", "0x1.9219270000000p-28"),
        (9, "0x1.becde5daca906p+0", "0x1.9219270000000p-28"),
        (10, "0x1.ba561433f288ap+0", "0x1.9219280000000p-28"),
    ],
}


@pytest.mark.parametrize("tol_alpha", sorted(THRESHOLD_BITS))
def test_fine_threshold_bits_are_pinned(tol_alpha):
    for n, alpha_star, width in THRESHOLD_BITS[tol_alpha]:
        estimate = threshold_bisect(n, tol_alpha)
        assert (estimate.alpha_star.hex(), estimate.bracket_width.hex()) == (alpha_star, width), n
