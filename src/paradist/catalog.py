"""Explicit nonnegative solutions of the reduced system for orders 1..10.

Each order has a half-open admissible interval of phase angles (closed on
the left); the order-1 entry is the single angle pi.  Each solution is an
integer table: every entry an integer combination of sin(j*alpha) (odd
orders) or cos(j*alpha) (even orders), j <= k, of at most two terms.
Vectors are laid out in canonical column order, written below block by
block: first the labels with no 1-digits, then one 1-digit, and so on.
`catalog_order` alone maps an angle to its catalog order.  One cached plan
(`_grid_plan`) turns the tables into arithmetic, padding included: one
angle walks its order's rows, held there in Python floats, and a stack of
angles takes one numpy pass over every order, with the same bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from operator import mul
from typing import NamedTuple

import numpy as np

from .labels import check_count, column_order, is_integer, order_from_p, p_count, read_only
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
        return catalog_order(alpha, 1) == 1
    return lo <= alpha < hi


# fl(conj(k)), k = 10..1, ascending: the orders' left endpoints, then pi
_ENDS = tuple(conjectured_threshold(k) for k in range(CATALOG_MAX_ORDER, 0, -1))


def catalog_order(alpha: float, top: int) -> int | None:
    """The order k = 1..top (top <= CATALOG_MAX_ORDER) whose interval
    [conj(k), conj(k-1)) holds alpha exactly, or None: order 1's window
    pi +- 1e-12, then a bisection of `_ENDS` from CATALOG_MAX_ORDER - top.
    Each fl(conj(k)), k = 2..10, lies just below conj(k) and so goes to order
    k+1, whose padded vector is nonnegative there while order k's is not;
    `in_interval` keeps the float intervals, closed at fl(conj(k)), for the
    catalog's own reports (`explicit_nns`, `verify-catalog`)."""
    if abs(alpha - math.pi) <= 1e-12:
        return 1
    i = bisect_left(_ENDS, alpha, CATALOG_MAX_ORDER - top)
    return CATALOG_MAX_ORDER + 1 - i if CATALOG_MAX_ORDER - top < i < CATALOG_MAX_ORDER else None


def interval_samples(n: int, count: int) -> np.ndarray:
    """Deterministic angles in the catalog interval, left endpoint included;
    `count` must be a count (`labels.check_count`)."""
    check_count(count, "count")
    lo, hi = alpha_interval(n)
    # keep strictly below the open right endpoint; n = 1 gives pi every time
    return lo + (hi - lo) * np.arange(count) / max(count, 1)


# The paper's explicit solutions as integer tables, one per order: an entry
# per column, in canonical column order, each the flat tuple c1, j1[, c2, j2]
# of its terms c * f(j * alpha) in the paper's term order, () for a zero.
# f is cos for even orders and sin for odd ones; j = 0 is the constant 1.
_TABLES = {
    1: ((1, 0), (1, 0), (1, 0)),
    2: ((1, 0), (1, 2), (1, 0),
        (-1, 1), (-1, 1),
        (1, 0)),
    3: ((3, 1), (1, 3), (1, 3), (3, 1),
        (-1, 2), (-1, 2), (-1, 2),
        (1, 1), (1, 1),
        ()),
    4: ((6, 0), (), (-2, 4), (), (6, 0),
        (-3, 1), (1, 3), (1, 3), (-3, 1),
        (2, 0), (), (2, 0),
        (-3, 1), (-3, 1),
        (6, 0)),
    5: ((20, 1), (), (-2, 5), (-2, 5), (), (20, 1),
        (-4, 2), (1, 4), (2, 4), (1, 4), (-4, 2),
        (3, 1), (-1, 3), (-1, 3), (3, 1),
        (-1, 2), (), (-1, 2),
        (2, 1), (2, 1),
        ()),
    6: ((20, 0), (), (), (2, 6), (), (), (20, 0),
        (-10, 1), (), (-1, 5), (-1, 5), (), (-10, 1),
        (3, 0), (), (1, 4), (), (3, 0),
        (1, 3), (), (), (1, 3),
        (-2, 2), (), (-2, 2),
        (), (),
        (5, 0)),
    7: ((140, 1), (), (), (4, 7), (4, 7), (), (), (140, 1),
        (-30, 2), (), (-2, 6), (-4, 6), (-2, 6), (), (-30, 2),
        (20, 1), (), (2, 5), (2, 5), (), (20, 1),
        (2, 4, -4, 2), (1, 4), (), (1, 4), (2, 4, -4, 2),
        (-4, 3, 6, 1), (-2, 3), (-2, 3), (-4, 3, 6, 1),
        (), (), (),
        (10, 1), (10, 1),
        ()),
    8: ((140, 0), (), (), (), (-4, 8), (), (), (), (140, 0),
        (-70, 1), (), (), (2, 7), (2, 7), (), (), (-70, 1),
        (20, 0), (), (), (-2, 6), (), (), (20, 0),
        (5, 3), (-1, 5), (), (), (-1, 5), (5, 3),
        (-8, 2), (2, 4), (), (2, 4), (-8, 2),
        (), (), (), (),
        (10, 0), (), (10, 0),
        (-35, 1), (-35, 1),
        (140, 0)),
    9: ((504, 1), (), (), (), (-4, 9), (-4, 9), (), (), (), (504, 1),
        (-112, 2), (), (), (2, 8), (4, 8), (2, 8), (), (), (-112, 2),
        (70, 1), (), (), (-2, 7), (-2, 7), (), (), (70, 1),
        (6, 4, -15, 2), (-1, 6), (-1, 6), (), (-1, 6), (-1, 6), (6, 4, -15, 2),
        (-10, 3, 20, 1), (2, 5), (2, 5), (2, 5), (2, 5), (-10, 3, 20, 1),
        (4, 4), (), (), (), (4, 4),
        (15, 1, -12, 3), (-5, 3), (-5, 3), (15, 1, -12, 3),
        (), (), (),
        (56, 1), (56, 1),
        ()),
    10: ((504, 0), (), (), (), (), (4, 10), (), (), (), (), (504, 0),
         (-252, 1), (), (), (), (-2, 9), (-2, 9), (), (), (), (-252, 1),
         (70, 0), (), (), (), (2, 8), (), (), (), (70, 0),
         (21, 3), (), (1, 7), (), (), (1, 7), (), (21, 3),
         (-30, 2), (), (-2, 6), (), (-2, 6), (), (-30, 2),
         (-4, 5), (), (), (), (), (-4, 5),
         (12, 4, 15, 0), (), (5, 4), (), (12, 4, 15, 0),
         (), (), (), (),
         (-56, 2), (), (-56, 2),
         (), (),
         (504, 0)),
}


# the trig table of a stack: cos(j*alpha) at column j, sin(j*alpha) at
# column _SIN + j, j = 0..CATALOG_MAX_ORDER; column 0 is the constant 1
_SIN = CATALOG_MAX_ORDER + 1


@lru_cache(maxsize=None)
def _grid_plan(n: int) -> tuple:
    """The nonzero entries of the tables of orders k = 1..min(n,
    CATALOG_MAX_ORDER), order after order, as one read-only plan: where
    order k's entries start (index k; they end at index k + 1); per entry
    its order-n position and the trig columns of its two terms; per entry
    its two coefficients, then its `_pad_plan` factors padded with 1.0 to
    n - 1 steps; and order k's walk (index k): its order-n positions, then
    as tuples of Python numbers j1s, j2s, c1s, c2s and its n - k steps'
    factors.  A missing second term is 0 times the constant."""
    top = min(n, CATALOG_MAX_ORDER)
    starts, index, values = [0, 0], [], []
    for k in range(1, top + 1):
        positions, factors = _pad_plan(k, n)
        shift = _SIN if k % 2 else 0
        for i, entry in enumerate(_TABLES[k]):
            if entry:
                c1, j1, c2, j2 = entry if len(entry) == 4 else (*entry, 0, 0)
                index.append((positions[i], j1 and j1 + shift, j2 and j2 + shift))
                values.append((c1, c2, *factors[:, i], *[1.0] * (k - 1)))
        starts.append(len(index))
    starts, index = read_only(np.array(starts)), read_only(np.array(index))
    values = read_only(np.array(values, dtype=float))
    walks = [None]
    for k in range(1, top + 1):
        rows = slice(starts[k], starts[k + 1])
        columns = [*index[rows, 1:].T.tolist(), *values[rows, :n - k + 2].T.tolist()]
        walks.append((index[rows, 0], *map(tuple, columns)))
    return starts, index, values, tuple(walks)


def _solution(k: int, n: int, alpha: float) -> np.ndarray:
    """Order k's solution at one angle, padded to order n: its walk in
    `_grid_plan(n)` in Python floats, cheaper than numpy for one angle,
    computed as the numpy pass does.  One trig call per j, c1*t1 + c2*t2
    per entry (a missing term adds +0.0), then the padding factors."""
    positions, j1s, j2s, c1s, c2s, *steps = _grid_plan(n)[3][k]
    shift, f = (_SIN, math.sin) if k % 2 else (0, math.cos)
    t = [1.0] * (2 * _SIN)
    for j in range(1, k + 1):
        t[shift + j] = f(j * alpha)
    y = [c1 * t[j1] + c2 * t[j2] for c1, j1, c2, j2 in zip(c1s, j1s, c2s, j2s)]
    for factors in steps:
        y = list(map(mul, y, factors))
    out = np.zeros(p_count(n))
    out[positions] = y
    return out


def catalog_solutions(alphas, n: int) -> tuple[list[int], np.ndarray | None]:
    """The positions in `alphas`, ascending, of the angles that a catalog
    interval of order k <= min(n, CATALOG_MAX_ORDER) holds, each angle's
    order taken from `catalog_order`, and their cataloged solutions padded
    to order n, one row each in the same order (None when there is no such
    angle), with the bits of `pad_solution` once per order and of
    `_solution`, the walk a lone angle takes instead.  One pass over all
    the stack's orders in `_grid_plan(n)`: one trig table, c1*t1 + c2*t2
    per entry, the padding factors step by step, and one scatter, so that
    a zero entry is written by no product."""
    top = min(n, CATALOG_MAX_ORDER)
    orders = np.fromiter((catalog_order(a, top) or 0 for a in alphas), np.intp, len(alphas))
    held = np.flatnonzero(orders)
    if not len(held):
        return [], None
    # the plan's entries of each held angle's order, angle after angle
    starts, index, values, _ = _grid_plan(n)
    ks = orders[held]
    counts = starts[ks + 1] - starts[ks]
    ends = np.cumsum(counts)
    entry = np.arange(ends[-1]) + np.repeat(starts[ks] - ends + counts, counts)
    row = np.repeat(np.arange(len(held)), counts)
    index, values = index[entry], values[entry]
    angles = np.asarray(alphas, dtype=float)[held, None] * np.arange(CATALOG_MAX_ORDER + 1)
    trig = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
    y = values[:, 0] * trig[row, index[:, 1]] + values[:, 1] * trig[row, index[:, 2]]
    for step in range(2, values.shape[1]):
        y *= values[:, step]
    out = np.zeros((len(held), p_count(n)))
    out[row, index[:, 0]] = y
    return held.tolist(), out


def explicit_nns(n: int, alpha: float) -> np.ndarray:
    """The cataloged nonnegative solution at order n, evaluated at ``alpha``."""
    _check_in_interval(n, alpha)
    return _solution(n, n, float(alpha))


def quadrant_of(k: int, alpha: float, n: int) -> int:
    """Quadrant (1..4) of exp(i*k*alpha) for angles in the order-n interval:
    Q_{(k mod 4)+1} for k < n and Q_{((n+1) mod 4)+1} for k = n."""
    check_catalog_order(n)
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
def _pad_plan(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`pad_solution` from order k to order n as one plan: each order-k
    label (n0, n1, n2) lands at (n0 + n - k, n1, n2), moved on by n - k per
    earlier group (n1 of them), and step s multiplies it by
    (n0 + s + 1)/(k + s + 1).  Returns the order-n positions and the
    (n - k) x p_k factors, row s for step s, both read-only."""
    labels = np.array(column_order(k))
    steps = np.arange(n - k)[:, None]
    positions = np.arange(len(labels)) + (n - k) * labels[:, 1]
    factors = (labels[:, 0] + steps + 1) / (k + steps + 1)
    return read_only(positions), read_only(factors)


def pad_solution(y: np.ndarray) -> np.ndarray:
    """Lift a reduced solution at order n to order n+1: the reduced form of
    its expanded vector tensored with (1, 0, 0) and permutation-averaged,
    y'(m0, m1, m2) = y(m0 - 1, m1, m2) m0/(n+1) (the share of the label's
    strings that end in the 0), and 0 where m0 = 0.  It solves the
    order-(n+1) system whenever y solves the order-n one, and stays >= 0.
    It is the one-step case of `_pad_plan`."""
    y = np.asarray(y, dtype=float)
    n = order_from_p(len(y))
    positions, factors = _pad_plan(n, n + 1)
    out = np.zeros(p_count(n + 1))
    out[positions] = y * factors[0]
    return out


def check_catalog_order(n: int) -> None:
    """Refuse an order that is not an integer (`labels.is_integer`) in the
    catalog's 1..CATALOG_MAX_ORDER."""
    if not is_integer(n) or not 1 <= n <= CATALOG_MAX_ORDER:
        raise ValueError(f"order must lie in 1..{CATALOG_MAX_ORDER}, got {n}")


def _check_in_interval(n: int, alpha: float) -> None:
    if not in_interval(n, alpha):
        lo, hi = alpha_interval(n)
        raise AlphaOutOfInterval(f"alpha={alpha!r} outside [{lo!r}, {hi!r}) for order {n}")
