"""Ternary digit labels and multiset-orbit indexing.

Vectors of length 3**n are indexed by ternary digit strings (leftmost digit
most significant), and orbit-reduced vectors by multiset labels
(n0, n1, n2) counting how many 0s, 1s and 2s a digit string contains.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt

import numpy as np

Triple = tuple[int, int, int]

MAX_ORDER = 12


def is_integer(x) -> bool:
    """An int or numpy integer; a bool, or a float even when integral, is not."""
    return type(x) is int or isinstance(x, np.integer)


def check_order(n: int) -> int:
    """Refuse an order that is not an integer (`is_integer`) in 1..MAX_ORDER;
    return it as a Python int."""
    if not is_integer(n) or not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must lie in 1..{MAX_ORDER}, got {n}")
    return int(n)


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark the array a read-only and return it."""
    a.setflags(write=False)
    return a


def check_count(count: int, name: str) -> None:
    """Refuse a count that is not an integer (`is_integer`) >= 0; `name` names it."""
    if not is_integer(count) or count < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {count}")


def _check_digits(digits) -> tuple[int, ...]:
    digits = tuple(int(d) for d in digits)
    if len(digits) < 1:
        raise ValueError("label must have at least one digit")
    if any(d < 0 or d > 2 for d in digits):
        raise ValueError(f"digits must lie in 0..2, got {digits}")
    return digits


def ternary_to_linear(digits) -> int:
    """1-based position of a ternary digit string among all strings of its length."""
    digits = _check_digits(digits)
    j = 0
    for d in digits:
        j = 3 * j + d
    return j + 1


def linear_to_ternary(j: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`ternary_to_linear` for strings of length ``n``."""
    if not 1 <= j <= 3**n:
        raise ValueError(f"index {j} outside 1..3^{n}")
    rem = j - 1
    return tuple((rem // 3 ** (n - 1 - p)) % 3 for p in range(n))


def label_orbit(digits) -> Triple:
    """Multiset label of a ternary string: counts of 0s, 1s and 2s."""
    digits = _check_digits(digits)
    return (digits.count(0), digits.count(1), digits.count(2))


def p_count(n: int) -> int:
    """Number of multiset labels of length n, (n+1)(n+2)/2."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return (n + 1) * (n + 2) // 2


def order_from_p(p: int) -> int:
    """Order n such that p_count(n) == p."""
    n = (isqrt(8 * p + 1) - 3) // 2
    if n < 1 or p_count(n) != p:
        raise ValueError(f"{p} is not a valid reduced length")
    return n


@lru_cache(maxsize=None)
def column_order(n: int) -> tuple[Triple, ...]:
    """Canonical multiset-label order: grouped by rising count of 1s,
    count of 0s falling within each group."""
    if n < 1:
        raise ValueError("order must be >= 1")
    out = []
    for n1 in range(n + 1):
        for n2 in range(n - n1 + 1):
            out.append((n - n1 - n2, n1, n2))
    assert len(out) == p_count(n)
    return tuple(out)


@lru_cache(maxsize=None)
def column_index(n: int) -> dict[Triple, int]:
    """Map from multiset label to its position in :func:`column_order`."""
    return {lab: i for i, lab in enumerate(column_order(n))}


def orbit_size(label) -> int:
    """Number of ternary strings with the given digit counts."""
    n0, n1, n2 = (int(c) for c in label)
    if min(n0, n1, n2) < 0:
        raise ValueError("counts must be nonnegative")
    n = n0 + n1 + n2
    return comb(n, n0) * comb(n - n0, n1)


@lru_cache(maxsize=None)
def orbit_sizes(n: int) -> tuple[int, ...]:
    """Orbit sizes in column order."""
    return tuple(orbit_size(lab) for lab in column_order(n))


@lru_cache(maxsize=None)
def column_positions(n: int) -> np.ndarray:
    """For each 0-based linear index of a ternary string, the position of
    its orbit in column order.  Shape (3**n,), read-only."""
    check_order(n)
    idx = np.arange(3**n)
    n1 = np.zeros(3**n, dtype=np.int64)
    n2 = np.zeros(3**n, dtype=np.int64)
    for p in range(n):
        d = (idx // 3 ** (n - 1 - p)) % 3
        n1 += d == 1
        n2 += d == 2
    lut = np.full((n + 1, n + 1), -1, dtype=np.int64)
    for pos, (_, k1, k2) in enumerate(column_order(n)):
        lut[k1, k2] = pos
    return read_only(lut[n1, n2])
