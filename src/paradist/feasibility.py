"""Feasibility of the reduced system over the nonnegative cone.

For a given order and phase angle, decides whether the row-deduplicated
system C has a nontrivial nonnegative null vector.  C is embedded as its
real rows over its imaginary rows (M, see `realize`).  Take a functional
h with h'M >= 0 on the columns still in play: every y >= 0 with M y = 0
that lives on those columns has sum_k (h'M)_k y_k = h'M y = 0, so y
vanishes on each column where h'M > 0.

`_decide` is the one decision, over a stack of angles: `nns_exists` is
its one-angle case, and `sweep` and `necessity_scan` hand it their grids,
which it decides in stacks of at most STACK angles.  Every system the
module builds, decides, returns (`realize`) or re-checks
(`verify_certificate`) comes from `build_C_stack`, with the bits
`build_C` gives each angle alone; a lone angle is a stack of one.
`_decide` checks every angle, then builds the stack's systems in one
call, read-only, and judges every outcome on its own system alone.  It
hands each stage C only; stages 2 and 4, which judge M, embed the rows
they judge.  The builder returns one C-contiguous shape per order, so
the systems of one stack are judged together, stage by stage, on views
of the stack where their rows run consecutively, with one matrix-vector
product per witness and elementwise products in the chain, and an
angle's outcome has the same bits alone and in any stack.  `_decide`
tests a stack's size once, right after checking its angles: a stack of
one, such as every threshold probe, is judged there by each stage's
one-system form, the same operations at what one system costs
(`catalog_order`, `_solution` and `_witness`; the support table on the
stack of one; `_lone_chain`; `_project`).  This docstring is the one
statement of the stages and their order; an angle goes to the next stage
only when the one before leaves it open.

1. The paper's explicit solution for the catalog interval holding alpha
   (`_closed_form`), a witness if it passes the witness rule (`_witness`);
   fl(conj(k)) lies just below conj(k), so it takes order k+1's.
2. For orders 11 and 12 no catalog interval holds the angles from their
   conjectured threshold up to order 10's, that endpoint included; there
   the committed support table (`supports.SUPPORTS`, built by
   `tools/support_tables.py`) names a few column sets, and the null vector
   of M on the first of them whose row holds alpha and which passes the
   witness rule is the witness (`_support_witnesses`, row by row over the
   whole stack, each row embedding only the systems it holds).
3. The paper's necessity proof, a facial reduction chain (Borwein and
   Wolkowicz, 1981) written out (`_chain`).  Let theta = 2 alpha - pi.
   Row j of C vanishes on the columns with n1 > j, and on those with
   n1 = j its entries are binom(n-j, n2) e^{i n2 theta}, n2 = 0..n-j.
   Below alpha = pi/2 + pi/(2n), that is n theta < pi, they lie in an open
   half-plane bisected by psi_j = (n-j)(alpha - pi/2), so link j,
   cos(psi_j) at row j of M and sin(psi_j) at its imaginary row, forces
   y = 0 on the columns with n1 = j once the links before it have removed
   those with n1 < j.  Its margin is read off C, not M: the least
   cos(psi_j) Re C[j, k] + sin(psi_j) Im C[j, k] over those columns.  The
   links are a certificate when every margin reaches TOL_MARGIN and each
   row j is exactly zero on the columns with n1 > j; it is the only kind
   there is, held as the chain's arrays (h, margins).  `verify_certificate`
   judges any h by the generic rule (`_separation`), which gives a chain's
   margins the same bits.
4. Where all three miss (fl(conj(n)) for n <= 10, which lies just below
   conj(n), and the band just below the boundary), the projection
   (`_project`, which embeds its one system) proposes a witness: the point
   b = (0, ..., 0, 1) is projected onto the cone spanned by the columns of
   [M; 1'] with an active-set nonnegative least squares solve, and its y
   is a witness if it passes the witness rule.

Otherwise the outcome is indeterminate, which next to the feasibility
boundary is unavoidable: below it the chain's margins decay under
TOL_MARGIN.  Every report and every threshold probe is rendered from this
one decision.  The witness and margin bars that decide what an outcome
means are module constants, read at call time; only the threshold's
bracket width is a per-call parameter.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .catalog import (CATALOG_MAX_ORDER, _solution, catalog_order, catalog_solutions,
                      conjectured_threshold)
from .labels import check_count, check_order, column_index, column_order, read_only
from .nnls import IterationLimitReached, nnls
from .tensor import build_C_stack

TOL_WITNESS = 1e-8
TOL_MARGIN = 1e-8
TOL_ALPHA = 1e-6
# the most angles `_decide` judges in one stack; a longer grid is decided in
# slices of this many, so its memory does not grow with the grid
STACK = 256


class Indeterminate(RuntimeError):
    """Neither a witness nor a certificate met its bar: the third outcome
    `nns_exists` returns.  `threshold_bisect` raises one for any probe that
    comes out so."""

    kind = "indeterminate"
    metric = math.nan

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": str(self)}


class NonMonotonePredicate(RuntimeError):
    """Probed feasibility contradicts a single-threshold structure."""


class Witness(NamedTuple):
    y: np.ndarray
    residual: float
    kind = "witness"
    metric = property(lambda self: self.residual)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "y": self.y.tolist(), "residual": self.residual}


class Certificate(NamedTuple):
    """A chain of links that together remove every column: row j of `h`
    (links x 2(n+1)), scaled to max|h| = 1, is link j, built from row j of
    C; it removes the columns still in play where h'M > 0, by at least
    `margins[j]`, and is >= 0 on the rest.  Its margin is the smallest link
    margin."""

    h: np.ndarray
    margins: np.ndarray
    kind = "certificate"
    margin = property(lambda self: min(self.margins.tolist(), default=0.0))
    metric = property(lambda self: self.margin)

    def to_dict(self) -> dict:
        links = enumerate(zip(self.h.tolist(), self.margins.tolist()))
        return {"kind": self.kind, "margin": self.margin,
                "steps": [{"row": j, "h": h, "margin": margin} for j, (h, margin) in links]}


FeasibilityOutcome = Witness | Certificate | Indeterminate


def _embed(c: np.ndarray) -> np.ndarray:
    """The real rows of a system, or of a stack of them, over its imaginary
    rows, read-only."""
    return read_only(np.concatenate((c.real, c.imag), axis=-2))


def _angle(alpha) -> float:
    """alpha as the float its system is built at, float32 too; ValueError
    unless a real number in [pi/2, pi]: no string, None or complex (float
    first, since the ABC check is slow)."""
    value = float(alpha) if isinstance(alpha, (float, numbers.Real)) else math.nan
    if not math.pi / 2 - 1e-12 <= value <= math.pi + 1e-12:
        raise ValueError("alpha must lie in [pi/2, pi]")
    return value


def realize(alpha: float, n: int) -> np.ndarray:
    """The reduced system's real and imaginary rows stacked into a read-only
    real 2(n+1) x p_n array with the same nonnegative null vectors: the
    system built as a stack of one and embedded.  alpha is checked as the
    decision checks it (`_angle`)."""
    return _embed(build_C_stack((_angle(alpha),), n)[0])


def _separation(h: np.ndarray, m: np.ndarray, alive: np.ndarray) -> tuple[float, np.ndarray]:
    """The one certificate rule for any link h, judged on the columns
    `alive` still in play: its margin and the columns it leaves in play.
    Scaled to max|h| = 1, a link removes the columns where h'M > 0; its
    margin is the least h'M over them, or the most negative h'M on a column
    it leaves, or 0.0 when it removes nothing.  It holds at margin >=
    TOL_MARGIN.  h'M is products, then sums, with no BLAS kernel, so a
    chain's link, two nonzero entries, gets the bits `_chain` gives it."""
    scale = np.maximum.reduce(abs(h))
    values = np.add.reduce((h / scale if scale > 0 else h)[:, None] * m, axis=0)
    # every value removed is above every value left below 0, so the least
    # nonzero value in play is the margin; none in play means 0.0
    margin = float(np.minimum.reduce(values, where=alive & (values != 0), initial=np.inf))
    return (0.0 if margin == math.inf else margin), alive & ~(values > 0)


@lru_cache(maxsize=None)
def _chain_tables(n: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of the proof's chain at order n, positions taken in
    an (n+1) x p_n system read as floats (real, imaginary part of each
    entry): each column's n1; the real parts over the imaginary parts of
    each column's entry in row n1; the first column of each n1 group; the
    entries of each row j on the columns with n1 > j; the turns n - j; and
    the positions in the flat h of its columns j and n+1+j of each row j,
    where link j holds cos and sin."""
    n1 = np.array([label[1] for label in column_order(n)])
    p = len(n1)
    j = np.arange(n + 1)
    entry = 2 * (n1 * p + np.arange(p))
    tables = (n1, np.stack((entry, entry + 1)), np.flatnonzero(np.diff(n1, prepend=-1)),
              np.flatnonzero(np.repeat(n1 > j[:, None], 2, axis=1)), (n - j).astype(float),
              np.stack((j, j + n + 1)) + j * 2 * (n + 1))
    return tuple(map(read_only, tables))


def _link_rows(psi: np.ndarray) -> np.ndarray:
    """cos(psi) over sin(psi), each pair scaled by its larger magnitude."""
    cs = np.empty((2, *psi.shape))
    np.cos(psi, out=cs[0])
    np.sin(psi, out=cs[1])
    cs /= np.maximum(*abs(cs))
    return cs


def _chain(c: np.ndarray, alphas, n: int) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """The necessity proof's chain on each system of the stack c, the
    order-n systems at `alphas`: its (h, margins), read-only, when it holds,
    else None.  Link j is cos(psi_j) at row j of M and sin(psi_j) at
    imaginary row n+1+j, psi_j = (n-j)(alpha - pi/2), scaled to max|h| = 1;
    its margin, read off C with no embedding and no BLAS kernel, is the
    least cos(psi_j) Re C[j, k] + sin(psi_j) Im C[j, k] over the columns
    with n1 = j.  A chain holds when every margin reaches TOL_MARGIN and
    each row j is exactly zero on the columns with n1 > j, so each link
    removes exactly its own columns; on a system of another shape, never.
    `_lone_chain` is its form for one system."""
    n1, own, starts, beyond, turns, links = _chain_tables(n)
    if c.shape[1:] != (n + 1, len(n1)):
        return [None] * len(c)
    cs = _link_rows(np.subtract(alphas, math.pi / 2)[:, None] * turns)
    # each entry's real part, then its imaginary part, one row per system
    flat = c.reshape(len(c), -1).view(float)
    terms = flat.take(own, axis=-1).swapaxes(0, 1) * cs.take(n1, axis=-1)
    margins = read_only(np.minimum.reduceat(terms[0] + terms[1], starts, axis=-1))
    # a NaN margin is no least margin, so it fails the bar too
    holds = np.minimum.reduce(margins, axis=-1) >= TOL_MARGIN
    holds &= ~np.logical_or.reduce(flat.take(beyond, axis=-1), axis=-1)
    # each chain's (cos, sin) rows, on the two diagonals of its h
    h = np.zeros((len(c), n + 1, 2 * (n + 1)))
    h.reshape(len(c), -1)[:, links] = cs.swapaxes(0, 1)
    h = read_only(h)
    return [(h[i], margins[i]) if ok else None for i, ok in enumerate(holds.tolist())]


def _lone_chain(c: np.ndarray, alpha: float, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`_chain` on the one order-n system c at alpha, with its bits, and
    None on a system of another shape: one scalar offset, and h filled on
    its two diagonals, at what one system costs numpy."""
    n1, own, starts, beyond, turns, links = _chain_tables(n)
    if c.shape != (n + 1, len(n1)):
        return None
    cs = _link_rows(turns * (alpha - math.pi / 2))
    flat = c.reshape(-1).view(float)
    terms = flat.take(own) * cs.take(n1, axis=-1)
    margins = np.minimum.reduceat(terms[0] + terms[1], starts)
    if not np.minimum.reduce(margins) >= TOL_MARGIN or np.logical_or.reduce(flat.take(beyond)):
        return None
    h = np.zeros((n + 1, 2 * (n + 1)))
    h.reshape(-1)[links] = cs
    return read_only(h), read_only(margins)


def nns_exists(alpha: float, n: int) -> FeasibilityOutcome:
    """Decide whether a nontrivial nonnegative null vector exists: the
    one-angle case of `_decide`, whose stages the module docstring states.
    Returns a Witness, a Certificate or an Indeterminate; raises only
    ValueError, for an alpha that is no real number in [pi/2, pi].
    """
    return _decide((alpha,), n)[0]


def _decide(alphas, n: int) -> list[FeasibilityOutcome]:
    """The one decision, for every angle of `alphas` at order n, outcomes
    in the order of the angles, by the stages of the module docstring.

    More than STACK angles are decided in consecutive slices of STACK, each
    by this same body, so a call holds at most STACK systems.  Every angle
    is checked first (`_angle`: ValueError unless a real number in
    [pi/2, pi]) and taken as a Python float, then their systems are built
    in one stack, read-only.  A stack of one is judged here, by each
    stage's one-system form; a longer stack hands each stage the rows of C
    it judges (`_rows`), and a stage that judges M embeds them.
    """
    if len(alphas) > STACK:
        return [outcome for start in range(0, len(alphas), STACK)
                for outcome in _decide(alphas[start:start + STACK], n)]
    alphas = [_angle(alpha) for alpha in alphas]
    c = read_only(build_C_stack(alphas, n))
    if len(alphas) == 1:
        alpha, system = alphas[0], c[0]
        k = catalog_order(alpha, min(n, CATALOG_MAX_ORDER))
        found = None if k is None else _witness(system, _solution(k, n, alpha))
        if found is None and n > CATALOG_MAX_ORDER:
            found = _support_witnesses(c, alphas, _support_columns(n))[0]
        if found is None:
            chain = _lone_chain(system, alpha, n)
            found = _project(system) if chain is None else Certificate(*chain)
        return [found]
    found = _closed_form(c, alphas, n)
    rest = [i for i, outcome in enumerate(found) if outcome is None]
    if rest and n > CATALOG_MAX_ORDER:
        table = _support_witnesses(_rows(c, rest), [alphas[i] for i in rest],
                                   _support_columns(n))
        for i, witness in zip(rest, table):
            found[i] = witness
        rest = [i for i in rest if found[i] is None]
    if rest:
        chains = _chain(_rows(c, rest), [alphas[i] for i in rest], n)
        for i, chain in zip(rest, chains):
            found[i] = _project(c[i]) if chain is None else Certificate(*chain)
    return found


def _rows(stack: np.ndarray, rows: list) -> np.ndarray:
    """The systems of `stack` at the indices `rows`, in their order: the
    stack itself, or a view of it where the rows run consecutively, else a
    copy."""
    if rows == list(range(rows[0], rows[-1] + 1)):
        return stack if len(rows) == len(stack) else stack[rows[0]:rows[-1] + 1]
    return stack[rows]


def _project(c: np.ndarray) -> Witness | Indeterminate:
    """The projection of (0, ..., 0, 1) onto the cone of [M; 1'], M the one
    system c embedded: its y if it passes the witness rule, else an Indeterminate."""
    m = _embed(c)
    rows, p = m.shape
    a = np.concatenate((m, np.ones((1, p))))
    b = np.zeros(rows + 1)
    b[-1] = 1.0
    try:
        result = nnls(a, b)
    except (IterationLimitReached, np.linalg.LinAlgError) as exc:
        return Indeterminate(f"projection did not terminate cleanly: {exc}")
    return _witness(c, result.y) or Indeterminate(
        f"projection residual {result.rnorm:.3e}: no witness within {TOL_WITNESS:.1e}, "
        f"and the necessity proof's chain does not hold at margin {TOL_MARGIN:.1e}")


def _witnesses(c: np.ndarray, y: np.ndarray) -> list[Witness | None]:
    """`_witness` over a stack of systems as wide as y: row i of y judged
    on the system c[i], with the same operations per system, each witness
    a read-only row of one array."""
    total = np.add.reduce(y, axis=-1, keepdims=True)
    lows = np.minimum.reduce(y, axis=-1).tolist()
    fits = [t > 0 and low >= 0 for t, low in zip(total.ravel().tolist(), lows)]
    if not all(fits):
        total = np.where(total > 0, total, 1.0)
    y = read_only(y / total)
    # one matrix-vector product per system, so a residual keeps its bits
    # whichever stack it is judged in
    residual = np.maximum.reduce(np.abs(c @ y[..., None]), axis=(-2, -1)).tolist()
    return [Witness(y=y[i], residual=r) if fit and r <= TOL_WITNESS else None
            for i, (fit, r) in enumerate(zip(fits, residual))]


def _witness(c: np.ndarray, y: np.ndarray) -> Witness | None:
    """The one witness rule: y is a witness of the system c when it fits
    c's columns, y >= 0, sum(y) > 0 and max|C y/sum(y)| <= TOL_WITNESS; it
    holds y/sum(y), read-only."""
    total = float(np.add.reduce(y))
    if total > 0 and y.shape == c.shape[1:] and np.minimum.reduce(y) >= 0:
        y = read_only(y / total)
        residual = float(np.maximum.reduce(np.abs(c @ y)))
        if residual <= TOL_WITNESS:
            return Witness(y=y, residual=residual)
    return None


def _closed_form(c: np.ndarray, alphas, n: int) -> list[Witness | None]:
    """For each system of the stack c, the order-n systems at `alphas`: the
    paper's explicit solution for the catalog interval (order
    k <= min(n, CATALOG_MAX_ORDER)) holding alpha, padded to order n, if it
    passes the witness rule, judged for all of them in one stack.  Below
    the threshold of the highest such order no interval holds alpha (order
    1 is the single angle pi).  `_decide` judges a lone angle by
    `catalog_order`, `_solution` and `_witness` instead."""
    rows, y = catalog_solutions(alphas, n)
    found = [None] * len(c)
    if rows:
        for i, witness in zip(rows, _witnesses(_rows(c, rows), y)):
            found[i] = witness
    return found


@lru_cache(maxsize=None)
def _support_columns(n: int) -> tuple[tuple[float, float, np.ndarray], ...]:
    """Order n's support table as (lo, hi, column indices) rows, the
    indices read-only.  Only the orders above the catalog have one, and
    `_decide` reads it for them alone, so `supports` loads for them alone."""
    from .supports import SUPPORTS

    index = column_index(n)
    return tuple((lo, hi, read_only(np.array([index[label] for label in labels])))
                 for lo, hi, labels in SUPPORTS.get(n, ()))


def _support_witnesses(c: np.ndarray, alphas, rows) -> list[Witness | None]:
    """For each system of the stack c at `alphas`, the null vector of its
    embedding's columns in the first of `rows` ((lo, hi, column indices))
    that holds alpha and passes the witness rule, or None.  Each row embeds
    the open systems it holds and judges them at once: one batched SVD of
    their columns, the last right singular vector, its sum made positive."""
    found = [None] * len(alphas)
    for lo, hi, cols in rows:
        held = [i for i, alpha in enumerate(alphas) if found[i] is None and lo <= alpha <= hi]
        if not held:
            continue
        systems = _rows(c, held)
        v = np.linalg.svd(_embed(systems)[..., cols], full_matrices=False)[2][:, -1]
        y = np.zeros((len(held), c.shape[-1]))
        y[:, cols] = np.where(np.add.reduce(v, axis=-1, keepdims=True) > 0, v, -v)
        for i, witness in zip(held, _witnesses(systems, y)):
            found[i] = witness
    return found


def verify_certificate(cert: Certificate, alpha: float, n: int) -> tuple[bool, float]:
    """Judge a certificate from elsewhere by the generic rule on the system
    rebuilt from (alpha, n): each link (row of h), whatever its scale, is
    judged by `_separation` on the columns the links before it
    leave in play, must hold and reach its declared margin (within 1e-12),
    and the links together must remove every column.  Returns (verdict,
    least link margin); a chain with no links, an h that is not links x
    2(n+1), margins of another length, or an h or margins with an entry
    that is no real number gives (False, 0.0).  alpha is checked as the
    decision checks it (`_angle`, through `realize`)."""
    m = realize(alpha, n)
    h, declared = _reals(cert.h), _reals(cert.margins)
    if (h is None or declared is None or h.ndim != 2 or h.shape[1] != m.shape[0]
            or declared.shape != h.shape[:1]):
        return False, 0.0
    alive = np.ones(m.shape[1], dtype=bool)
    ok, margins = True, []
    for link, bar in zip(h, declared.tolist()):
        margin, alive = _separation(link, m, alive)
        margins.append(margin)
        ok = ok and margins[-1] >= TOL_MARGIN and margins[-1] >= bar - 1e-12
    if not margins:
        return False, 0.0
    return ok and not alive.any(), min(margins)


def _reals(values) -> np.ndarray | None:
    """values as a float array, or None when an entry is no real number:
    a complex dtype, or an object array holding anything but real numbers,
    is not converted, since the conversion would drop imaginary parts."""
    a = np.asarray(values)
    if a.dtype.kind in "biuf" or (
            a.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)):
        return np.asarray(a, dtype=float)
    return None


class ThresholdEstimate(NamedTuple):
    order: int
    alpha_star: float
    bracket_width: float
    conjectured: float

    def to_dict(self) -> dict:
        return {
            "n": self.order,
            "alpha_star": self.alpha_star,
            "bracket_width": self.bracket_width,
            "conjectured": self.conjectured,
        }


def threshold_bisect(n: int, tol_alpha: float = TOL_ALPHA) -> ThresholdEstimate:
    """Bisect the phase angle over [pi/2, pi] for the feasibility boundary,
    with bisection's bits from a handful of decisions.

    Starts from the known-feasible right endpoint pi and a point just above
    pi/2 that is known infeasible for every order.  Each decision is one
    `nns_exists` probe, classified by whether it is a Witness, at any order
    1..12.  A probe that comes out indeterminate is raised: it cannot be
    bracketed.  The two endpoints must come out infeasible and feasible,
    otherwise NonMonotonePredicate is raised.  Then two phases, both on the
    bracket (a, b) from the highest decided certificate to the lowest
    decided witness:

    1. One guided step.  Link 0 of the chain reads row 0 of C, whose
       entries lie within +-n(alpha - pi/2) of its bisector, so below the
       boundary the least link margin is min(1, cot(n(alpha - pi/2))),
       whose inverse alpha + atan(margin)/n is the boundary itself,
       conj = conjectured_threshold(n).  Bisection's own arithmetic, run
       with `mid >= conj` in place of a decision, gives the bracket [l, h]
       plain bisection would end on were conj the boundary; l, then h, is
       decided if it lies strictly inside (a, b) while b - a > tol_alpha.
    2. Bisection's own arithmetic runs unchanged: midpoints of [lo, hi]
       from the two endpoints down to tol_alpha.  Only a midpoint strictly
       inside (a, b) is decided; one at or below a takes a's side, one at or
       above b takes b's.  When the boundary is conj, every midpoint lies
       outside (a, b): an order costs four decisions, three at order 1.
       When both ends of the guess came out as guessed, (a, b) = [l, h],
       every midpoint lies at or below a or at or above b, so the replay
       would decide nothing and only retrace the guess: [l, h] is returned
       without it.

    The reported [lo, hi] always holds a decided certificate a below a
    decided witness b, whatever the decisions between them, and is at most
    tol_alpha wide.  Its bits equal plain bisection's when the decision is
    monotone along the search: every angle the search passed over below a
    decided certificate is itself a certificate, and every one above a
    decided witness a witness.  It makes at most two decisions more than
    plain bisection.  tol_alpha must be a real number, not a bool, finite
    and at least 1e-8 (ValueError).
    """
    check_order(n)
    n = int(n)
    real = isinstance(tol_alpha, numbers.Real) and not isinstance(tol_alpha, bool)
    if not (real and math.isfinite(tol_alpha) and tol_alpha >= 1e-8):
        raise ValueError(f"tol_alpha must be finite and at least 1e-8, got {tol_alpha!r}")
    lo, hi = math.pi / 2 + 1e-4, math.pi
    a, b, conjectured = lo, hi, conjectured_threshold(n)

    def bisect(above) -> tuple[float, float]:
        # bisection's arithmetic from [lo, hi], `above(mid)` in place of the
        # decision: the bracket it ends on
        left, right = lo, hi
        while right - left > tol_alpha:
            mid = 0.5 * (left + right)
            if above(mid):
                right = mid
            else:
                left = mid
        return left, right

    def decide(alpha: float) -> bool:
        nonlocal a, b
        outcome = nns_exists(alpha, n)
        if isinstance(outcome, Indeterminate):
            raise outcome
        if isinstance(outcome, Witness):
            b = alpha
            return True
        a = alpha
        return False

    if decide(lo):
        raise NonMonotonePredicate(f"expected infeasibility near pi/2 at order {n}")
    if not decide(hi):
        raise NonMonotonePredicate(f"expected feasibility at pi at order {n}")
    guess = bisect(lambda mid: mid >= conjectured)
    for end in guess:
        if a < end < b and b - a > tol_alpha:
            decide(end)
    left, right = guess if (a, b) == guess else bisect(
        lambda mid: decide(mid) if a < mid < b else mid >= b)
    return ThresholdEstimate(
        order=n,
        alpha_star=0.5 * (left + right),
        bracket_width=right - left,
        conjectured=conjectured,
    )


def necessity_grid(n: int, points: int) -> np.ndarray:
    """`points` evenly spaced angles strictly between pi/2 and the
    conjectured threshold for order n; `points` must be a count
    (`labels.check_count`)."""
    check_count(points, "points")
    lo = math.pi / 2
    hi = conjectured_threshold(n)
    return lo + (hi - lo) * (np.arange(points) + 1) / (points + 1)


def necessity_point(alpha: float, n: int, outcome: FeasibilityOutcome) -> dict:
    """One grid point of the necessity scan, rendered from its outcome: a
    certificate is `verified` by the judgment the decision made on the
    system it built, without a second build, and lists the row and margin
    of each link; a witness or an indeterminate outcome is flagged as an
    anomaly."""
    row: dict = {"alpha": float(alpha), "n": n, "outcome": outcome.kind}
    if isinstance(outcome, Certificate):
        steps = [{"row": j, "margin": margin} for j, margin in enumerate(outcome.margins.tolist())]
        row.update(margin=outcome.margin, steps=steps, verified=True, anomaly=False)
    elif isinstance(outcome, Witness):
        row.update(residual=outcome.residual, anomaly=True)
    else:
        row.update(detail=str(outcome), anomaly=True)
    return row


def necessity_scan(n: int, points: int) -> list[dict]:
    """Probe the conjecturally infeasible region, every grid point in one
    `_decide`; each should produce a verified certificate.  Rows come back
    in grid order."""
    check_order(n)
    n = int(n)
    alphas = necessity_grid(n, points).tolist()
    return [necessity_point(alpha, n, outcome)
            for alpha, outcome in zip(alphas, _decide(alphas, n))]
