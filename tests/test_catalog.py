import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import paradist.catalog as catalog
from paradist.catalog import (
    AlphaOutOfInterval,
    alpha_interval,
    catalog_order,
    catalog_solutions,
    conjectured_threshold,
    explicit_nns,
    in_interval,
    interval_samples,
    pad_solution,
    quadrant_of,
    verify_catalog_entry,
    verify_vector,
)
from paradist.labels import column_order, p_count
from paradist.symmetry import expand, palindrome_check, reduce, symmetrize_permutation
from paradist import tensor
from paradist.tensor import build_C


def test_intervals():
    assert alpha_interval(1) == (math.pi, math.pi)
    lo, hi = alpha_interval(2)
    assert_allclose((lo, hi), (3 * math.pi / 4, math.pi))
    lo, hi = alpha_interval(4)
    assert_allclose((lo, hi), (5 * math.pi / 8, 2 * math.pi / 3))
    for n in range(2, 11):
        lo, hi = alpha_interval(n)
        assert_allclose(lo, conjectured_threshold(n))
        assert_allclose(hi, conjectured_threshold(n - 1))
        assert in_interval(n, lo)
        assert not in_interval(n, hi)


def test_explicit_order_one():
    assert_allclose(explicit_nns(1, math.pi), [1, 1, 1])


def test_explicit_order_two_at_left_endpoint():
    y = explicit_nns(2, 3 * math.pi / 4)
    root_half = math.sqrt(2) / 2
    assert_allclose(y, [1, 0, 1, root_half, root_half, 1], atol=1e-15)


def test_explicit_order_three_at_left_endpoint():
    y = explicit_nns(3, 2 * math.pi / 3)
    r = math.sqrt(3) / 2
    assert_allclose(y, [3 * r, 0, 0, 3 * r, r, r, r, r, r, 0], atol=1e-14)


def test_interval_enforced():
    with pytest.raises(AlphaOutOfInterval):
        explicit_nns(2, 2.0)
    with pytest.raises(AlphaOutOfInterval):
        explicit_nns(1, 3.0)
    with pytest.raises(ValueError):
        explicit_nns(11, 1.6)


def test_quadrant_examples():
    a2 = 0.5 * sum(alpha_interval(2))
    assert quadrant_of(1, a2, 2) == 2
    assert quadrant_of(2, a2, 2) == 4
    a5 = 0.5 * sum(alpha_interval(5))
    assert quadrant_of(3, a5, 5) == 4


def quadrant_by_signs(angle):
    c, s = math.cos(angle), math.sin(angle)
    quads = []
    if c >= -1e-12 and s >= -1e-12:
        quads.append(1)
    if c <= 1e-12 and s >= -1e-12:
        quads.append(2)
    if c <= 1e-12 and s <= 1e-12:
        quads.append(3)
    if c >= -1e-12 and s <= 1e-12:
        quads.append(4)
    return quads


def test_quadrants_match_signs():
    for n in range(2, 11):
        for alpha in interval_samples(n, 7):
            for k in range(n + 1):
                q = quadrant_of(k, float(alpha), n)
                assert q in quadrant_by_signs(k * float(alpha))


def test_quadrant_validation():
    with pytest.raises(ValueError):
        quadrant_of(0, math.pi, 1)
    with pytest.raises(AlphaOutOfInterval):
        quadrant_of(1, 1.0, 3)


# an order that is not an integer, each at an angle its float interval held,
# so that it reached the tables: 2.5 raised KeyError, 2.0 TypeError, and
# True gave order 1's vector
_NOT_ORDERS = [(2.5, conjectured_threshold(2.5) + 1e-3), (2.0, 2.4), (True, math.pi),
               (np.float64(3.0), 2.2)]


@pytest.mark.parametrize("n, alpha", _NOT_ORDERS, ids=["float", "integral-float", "bool",
                                                      "numpy-float"])
@pytest.mark.parametrize("call", [
    lambda n, alpha: alpha_interval(n),
    explicit_nns,
    verify_catalog_entry,
    lambda n, alpha: quadrant_of(1, alpha, n),
], ids=["alpha_interval", "explicit_nns", "verify_catalog_entry", "quadrant_of"])
def test_catalog_order_must_be_an_integer(call, n, alpha):
    with pytest.raises(ValueError, match=f"^order must lie in 1..10, got {n}$"):
        call(n, alpha)


def test_numpy_integer_order_passes():
    alpha = float(interval_samples(4, 3)[1])
    assert alpha_interval(np.int64(4)) == alpha_interval(4)
    assert explicit_nns(np.int64(4), alpha).tobytes() == explicit_nns(4, alpha).tobytes()
    assert verify_catalog_entry(np.int64(4), alpha) == verify_catalog_entry(4, alpha)
    assert quadrant_of(1, alpha, np.int64(4)) == quadrant_of(1, alpha, 4)


@pytest.mark.parametrize("count", [2.5, 3.0, -1, True], ids=["float", "integral-float",
                                                             "negative", "bool"])
def test_interval_samples_count_must_be_a_count(count):
    # 2.5 gave 3 angles spaced for 2.5, True gave 1 angle and -1 gave none
    with pytest.raises(ValueError, match=f"^count must be a nonnegative integer, got {count}$"):
        interval_samples(4, count)


def test_numpy_integer_count_passes():
    assert interval_samples(4, np.int64(3)).tobytes() == interval_samples(4, 3).tobytes()
    assert len(interval_samples(4, 0)) == 0


def test_interval_samples_cover_left_endpoint():
    for n in range(1, 11):
        samples = interval_samples(n, 20)
        assert len(samples) == 20
        lo, hi = alpha_interval(n)
        assert samples[0] == lo
        assert all(in_interval(n, a) for a in samples)


def test_catalog_verifies_on_samples():
    for n in range(1, 11):
        for alpha in interval_samples(n, 5):
            report = verify_catalog_entry(n, float(alpha))
            assert report.passed, (n, alpha, report)
            assert report.residual_inf <= 1e-9
            assert report.min_entry >= -1e-12


def test_catalog_vectors_are_palindromic():
    for n in range(1, 11):
        for alpha in interval_samples(n, 3):
            assert palindrome_check(explicit_nns(n, float(alpha)))


def test_report_shape_and_dict():
    report = verify_catalog_entry(2, 3 * math.pi / 4)
    payload = report.to_dict()
    assert payload["n"] == 2
    assert payload["passed"] is True
    assert payload["tolerances"]["residual"] == 1e-9


def test_pad_first_order_solution():
    padded = pad_solution(explicit_nns(1, math.pi))
    assert len(padded) == p_count(2)
    residual = np.max(np.abs(build_C(math.pi, 2) @ padded))
    assert residual <= 1e-12
    assert np.min(padded) >= 0


def test_pad_zero_and_nonnegativity(rng):
    assert_allclose(pad_solution(np.zeros(6)), np.zeros(10))
    y = rng.uniform(0, 1, p_count(3))
    assert np.min(pad_solution(y)) >= 0


def test_pad_chain_across_orders():
    for n in range(1, 10):
        alpha = float(interval_samples(n, 3)[1] if n > 1 else math.pi)
        y = explicit_nns(n, alpha)
        padded = pad_solution(y)
        report = verify_vector(padded, alpha, n + 1)
        assert report.passed, (n, alpha, report)


def _pad_by_full_vector(y, times=1):
    """Padding by its definition: the expanded vector tensored with
    (1, 0, 0) once per added order, averaged over digit permutations and
    reduced."""
    full = expand(np.asarray(y, dtype=float))
    for _ in range(times):
        full = np.kron(full, [1.0, 0.0, 0.0])
    return reduce(symmetrize_permutation(full))


@pytest.mark.parametrize("k", range(1, 10))
def test_pad_matches_the_full_vector_oracle(k, rng):
    alpha = math.pi if k == 1 else float(interval_samples(k, 5)[2])
    for y in (explicit_nns(k, alpha), rng.uniform(0, 1, p_count(k))):
        expected = _pad_by_full_vector(y)
        assert_allclose(pad_solution(y), expected, rtol=0,
                        atol=1e-14 * np.max(np.abs(expected)))


@pytest.mark.parametrize("n", range(1, 12))
def test_pad_solution_is_the_one_step_map_bit_for_bit(n, rng):
    # the label (n0, n1, n2) at position i moves to position i + n1 at
    # order n+1 (one more entry in each earlier group) and is multiplied by
    # (n0 + 1)/(n + 1); the map written out here, bit for bit
    labels = np.array(column_order(n))
    for y in (rng.uniform(0, 1, p_count(n)), rng.standard_normal(p_count(n))):
        expected = np.zeros(p_count(n + 1))
        expected[np.arange(len(labels)) + labels[:, 1]] = y * ((labels[:, 0] + 1) / (n + 1))
        assert pad_solution(y).tobytes() == expected.tobytes()


@pytest.mark.parametrize("k, n", [(1, 4), (2, 7), (3, 10), (6, 10), (9, 10)])
def test_padding_several_orders_is_padding_once_per_order(k, n, rng):
    y = rng.uniform(0, 1, p_count(k))
    padded = y
    for _ in range(k, n):
        padded = pad_solution(padded)
    expected = _pad_by_full_vector(y, times=n - k)
    assert_allclose(padded, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))


# pi to 60 digits: its error is far below the gaps of 4e-17 and more
# between a conjectured threshold and its float
PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
EXACT_CONJ = {k: PI / 2 + PI / (2 * k) for k in range(1, 13)}


def _exact_order(alpha, top):
    """The order k = 1..top whose interval [conj(k), conj(k-1)) holds the
    float alpha as an exact rational, by scan; pi +- 1e-12 is order 1."""
    if abs(alpha - math.pi) <= 1e-12:
        return 1
    exact = Fraction(alpha)
    return next((k for k in range(2, top + 1)
                 if EXACT_CONJ[k] <= exact < EXACT_CONJ[k - 1]), None)


def test_conjectured_thresholds_round_down():
    # every fl(conj(k)), k = 1..11, lies exactly below conj(k), so a catalog
    # endpoint belongs to the order above it (fl(conj(12)) rounds up)
    for k in range(1, 12):
        assert Fraction(conjectured_threshold(k)) < EXACT_CONJ[k], k
    assert Fraction(conjectured_threshold(12)) > EXACT_CONJ[12]


def _angles(rng):
    ends = [conjectured_threshold(k) for k in range(1, 13)]
    return [*rng.uniform(math.pi / 2, math.pi, 3000).tolist(), *ends,
            *(np.nextafter(end, d) for end in ends for d in (0.0, 4.0)),
            math.pi / 2, math.pi - 1e-12, math.pi - 2e-12, math.pi + 1e-12]


def test_catalog_order_is_the_interval_scan(rng):
    # the bisection over the cached left endpoints picks the order the
    # exact scan over k = 1..top picks, at every endpoint and next to it;
    # the float intervals of `in_interval` differ only at the endpoints
    angles = _angles(rng)
    ends = {conjectured_threshold(k): k for k in range(2, 11)}
    for top in range(1, 11):
        orders = [catalog_order(a, top) for a in angles]
        assert orders == [_exact_order(a, top) for a in angles]
        scanned = [next((k for k in range(1, top + 1) if in_interval(k, a)), None)
                   for a in angles]
        differ = [a for a, got, scan in zip(angles, orders, scanned) if got != scan]
        assert sorted(set(differ)) == sorted(end for end, k in ends.items() if k <= top), top
        assert all(catalog_order(end, top) == (k + 1 if k < top else None)
                   for end, k in ends.items() if k <= top)


def test_catalog_solutions_are_padded_explicit_solutions(rng):
    # pad_solution, once per order, is the reference, bit for bit; the
    # grid mixes orders, so rows of several orders are padded together.
    # At fl(conj(k)) the vector is order k+1's, outside its float interval,
    # so the reference evaluates each order's table at one angle directly
    angles = _angles(rng)[::7] + [conjectured_threshold(k) for k in range(2, 11)]
    for n in range(1, 13):
        rows, y = catalog_solutions(angles, n)
        expected = {}
        for row, alpha in enumerate(angles):
            k = _exact_order(alpha, min(n, 10))
            if k is not None:
                padded = np.array(catalog._solution(k, k, alpha))
                for _ in range(k, n):
                    padded = pad_solution(padded)
                expected[row] = padded
        assert sorted(rows) == sorted(expected)
        assert len(rows) > 50 or n == 1
        if rows:
            assert y.tobytes() == np.array([expected[row] for row in rows]).tobytes(), n
        else:
            assert y is None
    assert catalog_solutions([math.pi / 2], 4) == ([], None)


def _laurent_residual(k, table):
    """C_k times the order-k solution given by `table`, times 2 (even k)
    or 2i (odd k), in integers: its Laurent coefficients in z = exp(i*alpha),
    row by row, at exponents -k..3k.  Entry (j, col) of C_k is coeff * z**e
    (`tensor._row_tables`), 2 cos(j*alpha) is z**j + z**-j and
    2i sin(j*alpha) is z**j - z**-j."""
    flat, coeff, expo = tensor._row_tables(k)
    assert not coeff.imag.any() and (coeff.real == np.round(coeff.real)).all()
    sign = -1 if k % 2 else 1
    residual = np.zeros((k + 1, 4 * k + 1), dtype=np.int64)
    for position, c, e in zip(flat.tolist(), coeff.real.astype(int).tolist(), expo.tolist()):
        row, col = divmod(position, p_count(k))
        for cy, j in zip(table[col][::2], table[col][1::2]):
            residual[row, k + e + j] += c * cy
            residual[row, k + e - j] += sign * c * cy
    return residual


@pytest.mark.parametrize("k", range(2, 11))
def test_tables_solve_the_system_identically(k):
    # C_k y_k = 0 for every alpha, proved in integer arithmetic; every entry
    # has at most two terms, integer coefficients and 0 <= j <= k
    table = catalog._TABLES[k]
    assert len(table) == p_count(k)
    for entry in table:
        assert len(entry) in (0, 2, 4)
        assert all(type(x) is int for x in entry)
        assert all(0 <= j <= k for j in entry[1::2])
    assert not _laurent_residual(k, table).any()
    # negative control: one coefficient changed by one breaks the identity
    for col, entry in enumerate(table):
        if entry:
            changed = list(table)
            changed[col] = (entry[0] + 1, *entry[1:])
            assert _laurent_residual(k, changed).any(), (k, col)


def test_order_one_table_is_the_constant_one():
    assert catalog._TABLES[1] == ((1, 0),) * 3
    assert explicit_nns(1, math.pi).tobytes() == np.ones(3).tobytes()


# sha256 digests of the catalog's solutions as the paper's formulas gave
# them, one hand-written function per order, recorded with numpy 2.4.6
# before the formulas became integer tables: `catalog_solutions` on
# `_pinned_grid` at n = 1..12 (rows ascending, then their solutions), and
# `explicit_nns` on 50 `interval_samples` of each order 1..10
CATALOG_SOLUTIONS_SHA = "cf4e340fbd42cf87f9e8de5c8839d11c6ebb39ff29f9ab141a5fee0072db963d"
EXPLICIT_NNS_SHA = "dd379d3537c29d7804979ded3017e45b5b4ea7a4dd4d5d37ba9befbd23d0c611"


def _pinned_grid():
    """241 even angles over [pi/2, pi], every fl(conj(k)), k = 1..12, with
    both its float neighbours, and pi - 1e-12, pi - 2e-12, pi + 1e-12; the
    even angles are split in two halves, ascending then descending, so rows
    of every order alternate."""
    ends = [conjectured_threshold(k) for k in range(1, 13)]
    even = np.linspace(math.pi / 2, math.pi, 241).tolist()
    return [*even[::2], *ends,
            *(float(np.nextafter(end, d)) for end in ends for d in (0.0, 4.0)),
            *even[1::2][::-1], math.pi - 1e-12, math.pi - 2e-12, math.pi + 1e-12]


def test_solutions_keep_the_bits_of_the_paper_formulas():
    grid = _pinned_grid()
    digest = hashlib.sha256()
    for n in range(1, 13):
        rows, y = catalog_solutions(grid, n)
        assert rows == sorted(rows)
        assert {catalog_order(a, min(n, 10)) for a in grid} - {None} == set(range(1, min(n, 10) + 1))
        digest.update(np.array(rows, dtype=np.int64).tobytes())
        digest.update(y.tobytes())
    assert digest.hexdigest() == CATALOG_SOLUTIONS_SHA
    digest = hashlib.sha256()
    for k in range(1, 11):
        for alpha in interval_samples(k, 50):
            digest.update(explicit_nns(k, float(alpha)).tobytes())
    assert digest.hexdigest() == EXPLICIT_NNS_SHA


@pytest.mark.parametrize("n", range(1, 13))
def test_one_angle_is_its_row_of_the_grid(n):
    # the Python path a lone angle takes (`catalog_order`, then `_solution`)
    # gives the row the numpy pass gives
    grid = _pinned_grid()
    rows, y = catalog_solutions(grid, n)
    solved = dict(zip(rows, y))
    for row, alpha in enumerate(grid):
        k = catalog_order(alpha, min(n, catalog.CATALOG_MAX_ORDER))
        if k is None:
            assert row not in solved, alpha
        else:
            assert catalog._solution(k, n, alpha).tobytes() == solved[row].tobytes(), alpha
