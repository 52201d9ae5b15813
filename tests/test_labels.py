import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paradist.labels import (
    column_index,
    column_order,
    column_positions,
    label_orbit,
    linear_to_ternary,
    orbit_size,
    orbit_sizes,
    p_count,
    order_from_p,
    ternary_to_linear,
)


def test_linear_index_examples():
    assert ternary_to_linear((0, 0)) == 1
    assert ternary_to_linear((0, 1)) == 2
    assert ternary_to_linear((2, 2)) == 9


def test_linear_index_bijective_exhaustive():
    for n in range(1, 9):
        seen = set()
        for digits in itertools.product(range(3), repeat=n):
            j = ternary_to_linear(digits)
            assert linear_to_ternary(j, n) == digits
            seen.add(j)
        assert seen == set(range(1, 3**n + 1))


def test_label_orbit_examples():
    assert label_orbit((0, 1)) == (1, 1, 0)
    assert label_orbit((1, 2)) == (0, 1, 1)
    assert label_orbit((0, 0)) == (2, 0, 0)


def test_p_count():
    assert p_count(2) == 6
    assert p_count(3) == 10
    assert p_count(1) == 3
    with pytest.raises(ValueError):
        p_count(0)


def test_order_from_p():
    for n in range(1, 13):
        assert order_from_p(p_count(n)) == n
    with pytest.raises(ValueError):
        order_from_p(7)


def test_column_order_examples():
    assert column_order(1) == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    assert column_order(2) == (
        (2, 0, 0), (1, 0, 1), (0, 0, 2), (1, 1, 0), (0, 1, 1), (0, 2, 0))
    assert column_order(3) == (
        (3, 0, 0), (2, 0, 1), (1, 0, 2), (0, 0, 3),
        (2, 1, 0), (1, 1, 1), (0, 1, 2),
        (1, 2, 0), (0, 2, 1),
        (0, 3, 0))


def test_column_order_complete_and_unique():
    for n in range(1, 13):
        order = column_order(n)
        assert len(order) == p_count(n)
        assert len(set(order)) == len(order)
        assert all(sum(lab) == n for lab in order)


def test_orbit_sizes_sum_to_power():
    for n in range(1, 9):
        assert sum(orbit_sizes(n)) == 3**n


def test_orbit_size_values():
    assert orbit_size((2, 0, 0)) == 1
    assert orbit_size((1, 1, 1)) == 6
    assert orbit_size((2, 1, 0)) == 3


def test_column_positions_match_orbits():
    for n in range(1, 7):
        pos = column_positions(n)
        index = column_index(n)
        for digits in itertools.product(range(3), repeat=n):
            lin = ternary_to_linear(digits) - 1
            assert pos[lin] == index[label_orbit(digits)]


def test_invalid_digits_rejected():
    with pytest.raises(ValueError):
        ternary_to_linear((0, 3))
    with pytest.raises(ValueError):
        ternary_to_linear(())


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8))
def test_round_trip_property(digits):
    n = len(digits)
    j = ternary_to_linear(digits)
    assert 1 <= j <= 3**n
    assert linear_to_ternary(j, n) == tuple(digits)
    counts = label_orbit(digits)
    assert sum(counts) == n
