"""Explicit nonnegative solutions of the reduced system for orders 1..10.

Each order has a half-open admissible interval of phase angles (closed on
the left); the order-1 entry is the single angle pi.  Each solution is an
integer table: every entry an integer combination of sin(j*alpha) (odd
orders) or cos(j*alpha) (even orders), j <= k, of at most two terms.
Vectors are laid out in canonical column order, written below block by
block: first the labels with no 1-digits, then one 1-digit, and so on.
One angle is evaluated in Python floats; a stack of angles in one numpy
pass over every order, with the same bits.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter
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


def _terms(entry: tuple[int, ...]) -> tuple[int, int, int, int]:
    """A nonzero table entry as (c1, j1, c2, j2), c2 = 0 for one term."""
    assert len(entry) in (2, 4), entry  # no entry has more than two terms
    return entry if len(entry) == 4 else (*entry, 0, 0)


@lru_cache(maxsize=None)
def _one_angle_plan(k: int) -> tuple:
    """Order k's table for `_solution`: its trig function, cos for even k
    and sin for odd k; its distinct nonzero entries as `_terms`; and an
    itemgetter that lays the order-k vector out from their values followed
    by 0.0."""
    distinct = sorted({e for e in _TABLES[k] if e})
    return (math.sin if k % 2 else math.cos, tuple(map(_terms, distinct)),
            itemgetter(*(distinct.index(e) if e else -1 for e in _TABLES[k])))


def _solution(k: int, alpha: float) -> tuple[float, ...]:
    """Order k's table at one angle in Python floats: one trig call per j,
    then c1*t1 (+ c2*t2) once per distinct entry, which costs less than
    numpy for one angle."""
    f, entries, layout = _one_angle_plan(k)
    t = [f(j * alpha) for j in range(k + 1)]
    t[0] = 1.0
    values = [c1 * t[j1] + c2 * t[j2] if c2 else c1 * t[j1] for c1, j1, c2, j2 in entries]
    values.append(0.0)
    return layout(values)


# the trig table of a stack: cos(j*alpha) at column j, sin(j*alpha) at
# column _SIN + j, j = 0..CATALOG_MAX_ORDER; column 0 is the constant 1
_SIN = CATALOG_MAX_ORDER + 1


@lru_cache(maxsize=None)
def _grid_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of the tables of orders k = 1..min(n,
    CATALOG_MAX_ORDER), order after order, as one read-only plan: where
    order k's entries start (index k; they end at index k + 1); per entry
    its order-n position and the trig columns of its two terms; and per
    entry its two coefficients, then its `_pad_plan` factors padded with
    1.0 to n - 1 steps.  A missing second term is 0 times the constant."""
    top = min(n, CATALOG_MAX_ORDER)
    starts, index, values = [0, 0], [], []
    for k in range(1, top + 1):
        positions, factors = _pad_plan(k, n)
        shift = _SIN if k % 2 else 0
        for i, entry in enumerate(_TABLES[k]):
            if entry:
                c1, j1, c2, j2 = _terms(entry)
                index.append((positions[i], j1 and j1 + shift, j2 and j2 + shift))
                values.append((c1, c2, *factors[:, i], *[1.0] * (k - 1)))
        starts.append(len(index))
    plan = (np.array(starts), np.array(index), np.array(values, dtype=float))
    for table in plan:
        table.setflags(write=False)
    return plan


def catalog_solutions(alphas, n: int) -> tuple[list[int], np.ndarray | None]:
    """The positions in `alphas`, ascending, of the angles that a catalog
    interval of order k <= min(n, CATALOG_MAX_ORDER) holds (`catalog_order`),
    and their cataloged solutions padded to order n, one row each in the
    same order (None when there is no such angle), with the bits of
    `pad_solution` once per order.  One angle is evaluated in Python
    (`_solution`); a stack in one pass over all its orders (`_grid_plan`):
    one trig table, c1*t1 + c2*t2 per entry, the padding factors step by
    step, and one scatter.  A zero entry is written by no product."""
    top = min(n, CATALOG_MAX_ORDER)
    if len(alphas) == 1:
        alpha = float(alphas[0])
        k = catalog_order(alpha, top)
        if k is None:
            return [], None
        y = np.array(_solution(k, alpha))[None]
        return [0], y if k == n else _padded(y, k, n)
    alphas = np.asarray(alphas, dtype=float)
    # `catalog_order` for every angle at once
    i = np.searchsorted(_catalog_ends(top), alphas, side="left")
    orders = np.where((1 <= i) & (i < top), top + 1 - i, 0)
    orders[np.abs(alphas - math.pi) <= 1e-12] = 1
    held = np.flatnonzero(orders)
    if not len(held):
        return [], None
    # the plan's entries of each held angle's order, angle after angle
    starts, index, values = _grid_plan(n)
    ks = orders[held]
    counts = starts[ks + 1] - starts[ks]
    ends = np.cumsum(counts)
    entry = np.arange(ends[-1]) + np.repeat(starts[ks] - ends + counts, counts)
    row = np.repeat(np.arange(len(held)), counts)
    index, values = index[entry], values[entry]
    angles = alphas[held, None] * np.arange(CATALOG_MAX_ORDER + 1)
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
    return np.array(_solution(n, float(alpha)))


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
