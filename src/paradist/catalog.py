"""Explicit nonnegative solutions of the reduced system for orders 1..10.

Each order has a half-open admissible interval of phase angles (closed on
the left); the order-1 entry is the single angle pi.  Vectors are laid out
in canonical column order, written below block by block: first the labels
with no 1-digits, then one 1-digit, and so on.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .labels import column_order, order_from_p, p_count
from .tensor import build_C

CATALOG_MAX_ORDER = 10
TOL_RESIDUAL = 1e-9
TOL_NEGATIVE = 1e-12


class AlphaOutOfInterval(ValueError):
    """Angle outside the admissible interval for the requested order."""


def conjectured_threshold(n: int) -> float:
    """Left endpoint pi/2 + pi/(2n) of the admissible region at order n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return math.pi / 2 + math.pi / (2 * n)


def alpha_interval(n: int) -> tuple[float, float]:
    """Catalog interval for order n: [pi/2 + pi/(2n), pi/2 + pi/(2(n-1)))
    for n >= 2, and the single point pi for n = 1."""
    check_catalog_order(n)
    if n == 1:
        return (math.pi, math.pi)
    return (conjectured_threshold(n), conjectured_threshold(n - 1))


def in_interval(n: int, alpha: float) -> bool:
    lo, hi = alpha_interval(n)
    if n == 1:
        return abs(alpha - math.pi) <= 1e-12
    return lo <= alpha < hi


@lru_cache(maxsize=None)
def _catalog_ends(top: int) -> tuple[float, ...]:
    """fl(conj(k)) for k = top, ..., 1, ascending: the left endpoints of
    the catalog intervals of the orders top..2, then pi."""
    return tuple(conjectured_threshold(k) for k in range(top, 0, -1))


def catalog_order(alpha: float, top: int) -> int | None:
    """The order k = 1..top (top <= CATALOG_MAX_ORDER) whose interval
    [conj(k), conj(k-1)) holds alpha exactly, or None: order 1's single
    angle pi first, then a bisection over the cached left endpoints.  Each
    fl(conj(k)), k = 2..10, lies just below conj(k) and so goes to order
    k+1, whose padded vector is nonnegative there while order k's is not;
    `in_interval` keeps the float intervals, closed at fl(conj(k)), for the
    catalog's own reports (`explicit_nns`, `verify-catalog`)."""
    if abs(alpha - math.pi) <= 1e-12:
        return 1
    i = bisect_left(_catalog_ends(top), alpha)
    return top + 1 - i if 1 <= i < top else None


def interval_samples(n: int, count: int) -> np.ndarray:
    """Deterministic angles in the catalog interval, left endpoint included."""
    lo, hi = alpha_interval(n)
    # keep strictly below the open right endpoint; n = 1 gives pi every time
    return lo + (hi - lo) * np.arange(count) / max(count, 1)


def _nns_1(a: float) -> np.ndarray:
    return np.ones(3)


def _nns_2(a: float) -> np.ndarray:
    c = math.cos
    return np.array([1, c(2 * a), 1,
                     -c(a), -c(a),
                     1])


def _nns_3(a: float) -> np.ndarray:
    s = math.sin
    return np.array([3 * s(a), s(3 * a), s(3 * a), 3 * s(a),
                     -s(2 * a), -s(2 * a), -s(2 * a),
                     s(a), s(a),
                     0])


def _nns_4(a: float) -> np.ndarray:
    c = math.cos
    return np.array([6, 0, -2 * c(4 * a), 0, 6,
                     -3 * c(a), c(3 * a), c(3 * a), -3 * c(a),
                     2, 0, 2,
                     -3 * c(a), -3 * c(a),
                     6])


def _nns_5(a: float) -> np.ndarray:
    s = math.sin
    return np.array([20 * s(a), 0, -2 * s(5 * a), -2 * s(5 * a), 0, 20 * s(a),
                     -4 * s(2 * a), s(4 * a), 2 * s(4 * a), s(4 * a), -4 * s(2 * a),
                     3 * s(a), -s(3 * a), -s(3 * a), 3 * s(a),
                     -s(2 * a), 0, -s(2 * a),
                     2 * s(a), 2 * s(a),
                     0])


def _nns_6(a: float) -> np.ndarray:
    c = math.cos
    return np.array([20, 0, 0, 2 * c(6 * a), 0, 0, 20,
                     -10 * c(a), 0, -c(5 * a), -c(5 * a), 0, -10 * c(a),
                     3, 0, c(4 * a), 0, 3,
                     c(3 * a), 0, 0, c(3 * a),
                     -2 * c(2 * a), 0, -2 * c(2 * a),
                     0, 0,
                     5])


def _nns_7(a: float) -> np.ndarray:
    s = math.sin
    return np.array([140 * s(a), 0, 0, 4 * s(7 * a), 4 * s(7 * a), 0, 0, 140 * s(a),
                     -30 * s(2 * a), 0, -2 * s(6 * a), -4 * s(6 * a), -2 * s(6 * a), 0, -30 * s(2 * a),
                     20 * s(a), 0, 2 * s(5 * a), 2 * s(5 * a), 0, 20 * s(a),
                     2 * s(4 * a) - 4 * s(2 * a), s(4 * a), 0, s(4 * a), 2 * s(4 * a) - 4 * s(2 * a),
                     -4 * s(3 * a) + 6 * s(a), -2 * s(3 * a), -2 * s(3 * a), -4 * s(3 * a) + 6 * s(a),
                     0, 0, 0,
                     10 * s(a), 10 * s(a),
                     0])


def _nns_8(a: float) -> np.ndarray:
    c = math.cos
    return np.array([140, 0, 0, 0, -4 * c(8 * a), 0, 0, 0, 140,
                     -70 * c(a), 0, 0, 2 * c(7 * a), 2 * c(7 * a), 0, 0, -70 * c(a),
                     20, 0, 0, -2 * c(6 * a), 0, 0, 20,
                     5 * c(3 * a), -c(5 * a), 0, 0, -c(5 * a), 5 * c(3 * a),
                     -8 * c(2 * a), 2 * c(4 * a), 0, 2 * c(4 * a), -8 * c(2 * a),
                     0, 0, 0, 0,
                     10, 0, 10,
                     -35 * c(a), -35 * c(a),
                     140])


def _nns_9(a: float) -> np.ndarray:
    s = math.sin
    return np.array([504 * s(a), 0, 0, 0, -4 * s(9 * a), -4 * s(9 * a), 0, 0, 0, 504 * s(a),
                     -112 * s(2 * a), 0, 0, 2 * s(8 * a), 4 * s(8 * a), 2 * s(8 * a), 0, 0, -112 * s(2 * a),
                     70 * s(a), 0, 0, -2 * s(7 * a), -2 * s(7 * a), 0, 0, 70 * s(a),
                     6 * s(4 * a) - 15 * s(2 * a), -s(6 * a), -s(6 * a), 0, -s(6 * a), -s(6 * a),
                     6 * s(4 * a) - 15 * s(2 * a),
                     -10 * s(3 * a) + 20 * s(a), 2 * s(5 * a), 2 * s(5 * a), 2 * s(5 * a), 2 * s(5 * a),
                     -10 * s(3 * a) + 20 * s(a),
                     4 * s(4 * a), 0, 0, 0, 4 * s(4 * a),
                     15 * s(a) - 12 * s(3 * a), -5 * s(3 * a), -5 * s(3 * a), 15 * s(a) - 12 * s(3 * a),
                     0, 0, 0,
                     56 * s(a), 56 * s(a),
                     0])


def _nns_10(a: float) -> np.ndarray:
    c = math.cos
    return np.array([504, 0, 0, 0, 0, 4 * c(10 * a), 0, 0, 0, 0, 504,
                     -252 * c(a), 0, 0, 0, -2 * c(9 * a), -2 * c(9 * a), 0, 0, 0, -252 * c(a),
                     70, 0, 0, 0, 2 * c(8 * a), 0, 0, 0, 70,
                     21 * c(3 * a), 0, c(7 * a), 0, 0, c(7 * a), 0, 21 * c(3 * a),
                     -30 * c(2 * a), 0, -2 * c(6 * a), 0, -2 * c(6 * a), 0, -30 * c(2 * a),
                     -4 * c(5 * a), 0, 0, 0, 0, -4 * c(5 * a),
                     12 * c(4 * a) + 15, 0, 5 * c(4 * a), 0, 12 * c(4 * a) + 15,
                     0, 0, 0, 0,
                     -56 * c(2 * a), 0, -56 * c(2 * a),
                     0, 0,
                     504])


_BUILDERS = {
    1: _nns_1, 2: _nns_2, 3: _nns_3, 4: _nns_4, 5: _nns_5,
    6: _nns_6, 7: _nns_7, 8: _nns_8, 9: _nns_9, 10: _nns_10,
}


def catalog_solutions(alphas, n: int) -> tuple[list[int], np.ndarray | None]:
    """The positions in `alphas` of the angles that a catalog interval of
    order k <= min(n, CATALOG_MAX_ORDER) holds (`catalog_order`), grouped by
    order, and their cataloged solutions padded to order n, one row each in
    the same order (None when there is no such angle).  The solutions of
    one order are padded together (`_padded`)."""
    top = min(n, CATALOG_MAX_ORDER)
    groups: dict[int, list[int]] = {}
    for row, alpha in enumerate(alphas):
        k = catalog_order(alpha, top)
        if k is not None:
            groups.setdefault(k, []).append(row)
    rows, blocks = [], []
    for k, members in groups.items():
        ys = [_BUILDERS[k](float(alphas[row])) for row in members]
        blocks.append(_padded(ys[0][None] if len(ys) == 1 else np.array(ys), k, n))
        rows += members
    if len(blocks) > 1:
        return rows, np.concatenate(blocks)
    return rows, blocks[0] if blocks else None


def explicit_nns(n: int, alpha: float) -> np.ndarray:
    """The cataloged nonnegative solution at order n, evaluated at ``alpha``."""
    _check_in_interval(n, alpha)
    y = _BUILDERS[n](float(alpha))
    assert len(y) == p_count(n)
    return y


def quadrant_of(k: int, alpha: float, n: int) -> int:
    """Quadrant (1..4) of exp(i*k*alpha) for angles in the order-n interval:
    Q_{(k mod 4)+1} for k < n and Q_{((n+1) mod 4)+1} for k = n."""
    if n < 2:
        raise ValueError("quadrant bookkeeping requires order >= 2")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _check_in_interval(n, alpha)
    if k < n:
        return (k % 4) + 1
    return ((n + 1) % 4) + 1


class VerificationReport(NamedTuple):
    order: int
    alpha: float
    residual_inf: float
    min_entry: float
    nonneg: bool
    nonzero: bool

    @property
    def passed(self) -> bool:
        return self.nonneg and self.nonzero and self.residual_inf <= TOL_RESIDUAL

    def to_dict(self) -> dict:
        return {
            "n": self.order,
            "alpha": self.alpha,
            "residual_inf": self.residual_inf,
            "min_entry": self.min_entry,
            "nonneg": self.nonneg,
            "nonzero": self.nonzero,
            "passed": self.passed,
            "tolerances": {"residual": TOL_RESIDUAL, "negative": TOL_NEGATIVE},
        }


def verify_vector(y: np.ndarray, alpha: float, n: int) -> VerificationReport:
    """Residual and sign report for a candidate reduced solution, judged at
    TOL_RESIDUAL and TOL_NEGATIVE."""
    y = np.asarray(y, dtype=float)
    c = build_C(alpha, n)
    scale = float(np.max(np.abs(y)))
    residual = float(np.max(np.abs(c @ y))) / scale if scale > 0 else 0.0
    min_entry = float(np.min(y))
    return VerificationReport(
        order=n,
        alpha=float(alpha),
        residual_inf=residual,
        min_entry=min_entry,
        nonneg=bool(min_entry >= -TOL_NEGATIVE),
        nonzero=bool(scale > 0),
    )


def verify_catalog_entry(n: int, alpha: float) -> VerificationReport:
    """Evaluate the cataloged solution and verify residual and nonnegativity."""
    return verify_vector(explicit_nns(n, alpha), alpha, n)


@lru_cache(maxsize=None)
def _pad_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per order-n label (n0, n1, n2): the position of (n0 + 1, n1, n2) at
    order n+1, moved on by one per earlier group (n1 of them), and (n0 + 1)/(n + 1)."""
    labels = np.array(column_order(n))
    return np.arange(len(labels)) + labels[:, 1], (labels[:, 0] + 1) / (n + 1)


@lru_cache(maxsize=None)
def _pad_plan(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`pad_solution` from order k to order n as one plan: the order-n
    position of each order-k entry, and (n - k) x p_k factors, row s the
    factor that entry is multiplied by at step s.  Both read-only."""
    positions = np.arange(p_count(k))
    factors = np.empty((n - k, len(positions)))
    for step, order in enumerate(range(k, n)):
        dst, factor = _pad_map(order)
        factors[step] = factor[positions]
        positions = dst[positions]
    positions.setflags(write=False)
    factors.setflags(write=False)
    return positions, factors


def _padded(y: np.ndarray, k: int, n: int) -> np.ndarray:
    """A stack of order-k solutions padded to order n by `_pad_plan`: the
    products `pad_solution` makes, in its order, so the bits of padding
    once per order."""
    if k == n:
        return y
    positions, factors = _pad_plan(k, n)
    for factor in factors:
        y = y * factor
    out = np.zeros((len(y), p_count(n)))
    out[:, positions] = y
    return out


def pad_solution(y: np.ndarray) -> np.ndarray:
    """Lift a reduced solution at order n to order n+1: the reduced form of
    its expanded vector tensored with (1, 0, 0) and permutation-averaged,
    y'(m0, m1, m2) = y(m0 - 1, m1, m2) m0/(n+1) (the share of the label's
    strings that end in the 0), and 0 where m0 = 0.  It solves the
    order-(n+1) system whenever y solves the order-n one, and stays >= 0."""
    y = np.asarray(y, dtype=float)
    n = order_from_p(len(y))
    dst, factor = _pad_map(n)
    out = np.zeros(p_count(n + 1))
    out[dst] = y * factor
    return out


def check_catalog_order(n: int) -> None:
    """Refuse an order outside the catalog's 1..CATALOG_MAX_ORDER."""
    if not 1 <= n <= CATALOG_MAX_ORDER:
        raise ValueError(f"order must lie in 1..{CATALOG_MAX_ORDER}, got {n}")


def _check_in_interval(n: int, alpha: float) -> None:
    if not in_interval(n, alpha):
        lo, hi = alpha_interval(n)
        raise AlphaOutOfInterval(f"alpha={alpha!r} outside [{lo!r}, {hi!r}) for order {n}")
