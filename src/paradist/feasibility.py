"""Feasibility of the reduced system over the nonnegative cone.

For a given order and phase angle, decides whether the row-deduplicated
system C has a nontrivial nonnegative null vector.  C is embedded as its
real rows over its imaginary rows (M, see `realize`).  Take a functional
h with h'M >= 0 on the columns still in play: every y >= 0 with M y = 0
that lives on those columns has sum_k (h'M)_k y_k = h'M y = 0, so y
vanishes on each column where h'M > 0.

Infeasibility is decided by facial reduction, row by row, as the paper
proves it.  Let theta = 2 alpha - pi.  Row j of C vanishes on the columns
with n1 > j, and on those with n1 = j its entries are
binom(n-j, n2) e^{i n2 theta}, n2 = 0..n-j.  Below alpha = pi/2 + pi/(2n),
that is n theta < pi, they lie in an open half-plane, so row 0 forces y = 0
on the columns with n1 = 0, row 1 then on n1 = 1, and so on up to row n.
The pass knows none of this: it takes the rows in order, and whenever a
row's nonzero entries on the surviving columns fit in an open half-plane it
proposes h = cos(psi) at that row of M and sin(psi) at its imaginary row,
psi the bisector of the arc holding them.  A chain whose links each pass
`_separation` at TOL_MARGIN and together remove every column is a
certificate (Borwein and Wolkowicz's facial reduction, 1981); it is the
only kind there is.

Everything else goes to the projection, which only proposes a witness: the
point b = (0, ..., 0, 1) is projected onto the cone spanned by the columns
of [M; 1'] with an active-set nonnegative least squares solve, and its y is
a witness if it passes `_witness`.  Each decision builds C once, read-only,
and judges every outcome on that system alone.  `nns_exists` turns
(alpha, n) into one of three outcomes, indeterminate included; every report
is rendered from it.  The paper's explicit solution (`_closed_form`), judged
by the same witness rule, decides an angle the projection leaves open.
A threshold probe prints neither a vector nor a chain, so it tries the
paper's two explicit constructions first: the explicit solution, then the
necessity proof's chain written out (`_explicit_chain`: link j is row j at
psi = (n-j)(alpha - pi/2), on the columns with n1 >= j), judged by the same
`_separation` rule.  Only when both miss does it take the full decision.
The witness and margin bars that decide what an outcome means are module
constants, read at call time; only the threshold's bracket width is a
per-call parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .catalog import (CATALOG_MAX_ORDER, check_catalog_order, conjectured_threshold,
                      explicit_nns, in_interval, pad_solution)
from .labels import check_order, column_order
from .nnls import IterationLimitReached, nnls
from .tensor import build_C

TOL_WITNESS = 1e-8
TOL_MARGIN = 1e-8
TOL_ALPHA = 1e-6


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


@dataclass(frozen=True)
class Witness:
    y: np.ndarray
    residual: float
    kind = "witness"
    metric = property(lambda self: self.residual)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "y": self.y.tolist(), "residual": self.residual}


@dataclass(frozen=True)
class Step:
    """One link of a certificate chain: h, scaled to max|h| = 1, removes the
    columns still in play where h'M > 0, by at least `margin`, and is >= 0 on
    the rest.  `row` is the row of C it was built from."""

    row: int
    h: np.ndarray
    margin: float

    def to_dict(self) -> dict:
        return {"row": self.row, "h": self.h.tolist(), "margin": self.margin}


@dataclass(frozen=True)
class Certificate:
    """A chain of links that together remove every column; its margin is the
    smallest link margin."""

    steps: tuple[Step, ...]
    kind = "certificate"
    margin = property(lambda self: min((step.margin for step in self.steps), default=0.0))
    metric = property(lambda self: self.margin)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "margin": self.margin,
                "steps": [step.to_dict() for step in self.steps]}


FeasibilityOutcome = Witness | Certificate | Indeterminate


def _build(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced system C and its real embedding M, both read-only."""
    c = build_C(alpha, n)
    m = np.concatenate((c.real, c.imag))
    c.setflags(write=False)
    m.setflags(write=False)
    return c, m


def realize(alpha: float, n: int) -> np.ndarray:
    """The reduced system's real and imaginary rows stacked into a read-only
    real 2(n+1) x p_n array with the same nonnegative null vectors."""
    return _build(alpha, n)[1]


def _separation(h: np.ndarray, m: np.ndarray,
                alive: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one certificate rule, for one link or a stack of them (each row
    of h judged on its row of `alive`, the columns still in play): h scaled
    to max|h| = 1, its margin and the columns it leaves in play.  A link
    removes the columns where h'M > 0; its margin is the least h'M over
    them, or the most negative h'M on a column it leaves, or 0.0 when it
    removes nothing.  It holds at margin >= TOL_MARGIN."""
    scale = np.max(np.abs(h), axis=-1, keepdims=True)
    h = h / np.where(scale > 0, scale, 1.0)
    # one vector-matrix product per link, stacked or not, so a link's
    # values keep their bits whichever stack it is judged in
    values = (h[..., None, :] @ m)[..., 0, :]
    removed = alive & (values > 0)
    left = alive & ~removed
    low = np.where(left, values, np.inf).min(axis=-1)
    least = np.where(removed, values, np.inf).min(axis=-1)
    margin = np.where(low >= 0, np.where(least < np.inf, least, 0.0), low)
    return h, margin, left


def _arcs(z: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Per row of z, whether the phases of its nonzero entries fit in an arc
    shorter than pi, that is, in an open half-plane, and where they do, the
    bisector psi of the narrowest such arc (psi is None when no row fits).
    Their sum s is then nonzero and inside the arc, so each phase is read
    from s.  A zero entry is read at phase 0 from s and widens nothing: its
    product with conj(s) can have real part -0.0 (s in the third quadrant),
    which arctan2 would read as phase pi, so +0.0 is added to it first."""
    s = np.add.reduce(z, axis=-1)
    w = z * s.conj()[:, None]
    rel = np.arctan2(w.imag, w.real + 0.0)
    hi, lo = np.maximum.reduce(rel, axis=-1), np.minimum.reduce(rel, axis=-1)
    fits = hi - lo < math.pi
    if fits.any():
        fits &= s != 0  # a row that sums to zero, all-zero rows included, fits nowhere
        if fits.any():
            return fits, np.arctan2(s.imag, s.real) + (hi + lo) / 2
    return fits, None


def _row_chain(c: np.ndarray, m: np.ndarray) -> Certificate | None:
    """Facial reduction by single rows of c, in order, in passes until a pass
    makes no progress; the chain if it removes every column, else None."""
    rows, p = c.shape
    rest = c  # c with the columns out of play zeroed
    steps: list[Step] = []
    start, progress = 0, False
    while True:
        fits, psi = _arcs(rest[start:])
        if psi is None:
            if not progress:
                return None
            start, progress = 0, False
            continue
        if not steps:  # nothing removed yet: every column is in play
            alive = np.ones(p, dtype=bool)
        # judge the rows from the first that fits on as one run, each on
        # the columns the rows before it in the run leave in play: up to the
        # first row that fails, that is taking them one at a time
        start += int(fits.argmax())
        nonzero = rest[start:] != 0
        cover = np.zeros((len(nonzero) + 1, p), dtype=bool)
        np.logical_or.accumulate(nonzero, axis=0, out=cover[1:])
        in_play = alive & ~cover
        live = nonzero & in_play[:-1]
        fits, psi = _arcs(np.where(live, rest[start:], 0))
        k = np.arange(len(fits))
        h = np.zeros((len(fits), 2 * rows))
        h[k, start + k] = np.cos(psi)
        h[k, rows + start + k] = np.sin(psi)
        h, margin, left = _separation(h, m, in_play[:-1])
        # a row with nothing in play removes nothing; the run stops at the
        # first other row that does not fit, fails or leaves one of its own
        # columns
        nonempty = live.any(axis=-1)
        holds = (fits & (margin >= TOL_MARGIN) & ~(left & live).any(axis=-1)) | ~nonempty
        stop = len(fits) if holds.all() else int(holds.argmin())
        margins = margin.tolist()
        steps += [Step(row=start + i, h=h[i], margin=margins[i])
                  for i in np.flatnonzero(nonempty[:stop]).tolist()]
        progress = progress or stop > 0
        alive = in_play[stop]
        if not alive.any():
            return Certificate(steps=tuple(steps))
        rest = np.where(alive, c, 0)
        start += stop + 1


@lru_cache(maxsize=None)
def _chain_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n+1) x p_n masks of the proof's chain at order n: the
    columns in play before link j (n1 >= j) and those it leaves (n1 > j)."""
    n1 = np.array([label[1] for label in column_order(n)])
    rows = np.arange(n + 1)[:, None]
    masks = (n1 >= rows, n1 > rows)
    for mask in masks:
        mask.setflags(write=False)
    return masks


def _explicit_chain(m: np.ndarray, alpha: float, n: int) -> bool:
    """Whether the necessity proof's chain separates m, the real embedding of
    the order-n system: link j is cos(psi_j) at row j and sin(psi_j) at
    imaginary row n+1+j, psi_j = (n-j)(alpha - pi/2), the bisector of row j's
    phases on the columns with n1 = j.  All links are judged at once by
    `_separation`, each on the columns with n1 >= j; the chain holds when
    every margin reaches TOL_MARGIN and each link leaves exactly the next
    link's columns, the last none.  A system of another shape never holds."""
    before, after = _chain_columns(n)
    if m.shape != (2 * (n + 1), before.shape[1]):
        return False
    j = np.arange(n + 1)
    psi = (n - j) * (alpha - math.pi / 2)
    h = np.zeros((n + 1, 2 * (n + 1)))
    h[j, j] = np.cos(psi)
    h[j, n + 1 + j] = np.sin(psi)
    _, margin, left = _separation(h, m, before)
    return bool((margin >= TOL_MARGIN).all() and np.array_equal(left, after))


def nns_exists(alpha: float, n: int) -> FeasibilityOutcome:
    """Decide whether a nontrivial nonnegative null vector exists.

    First the row-by-row facial reduction (`_row_chain`); a chain that
    removes every column is the Certificate.  Otherwise projects onto the
    cone of the normalized system { y >= 0, M y = 0, sum(y) = 1 } and
    returns a Witness when its y passes `_witness`, or else when the
    paper's explicit solution for alpha does (`_closed_form`).  When
    neither does, the outcome is an Indeterminate, which next to the
    feasibility boundary is unavoidable: below it every chain's margin
    decays under TOL_MARGIN.  Raises only ValueError, for alpha outside
    [pi/2, pi].
    """
    if not math.pi / 2 - 1e-12 <= alpha <= math.pi + 1e-12:
        raise ValueError("alpha must lie in [pi/2, pi]")
    c, m = _build(alpha, n)
    outcome = _decide(c, m)
    if isinstance(outcome, Indeterminate):
        return _closed_form(c, alpha, n) or outcome
    return outcome


def _witness(c: np.ndarray, y: np.ndarray) -> Witness | None:
    """One witness rule: y fits c's columns, y >= 0, sum(y) > 0, max|C y/sum(y)| <= TOL_WITNESS."""
    total = float(y.sum())
    if total > 0 and y.shape == c.shape[1:] and y.min() >= 0:
        y = y / total
        residual = float(np.abs(c @ y).max())
        if residual <= TOL_WITNESS:
            return Witness(y=y, residual=residual)
    return None


def _decide(c: np.ndarray, m: np.ndarray) -> FeasibilityOutcome:
    """The row chain, then the projection, whose y is a witness candidate
    judged on the one build: the Certificate, the Witness, or an
    Indeterminate."""
    chain = _row_chain(c, m)
    if chain is not None:
        return chain
    rows, p = m.shape
    a = np.concatenate((m, np.ones((1, p))))
    b = np.zeros(rows + 1)
    b[-1] = 1.0
    try:
        result = nnls(a, b)
    except (IterationLimitReached, np.linalg.LinAlgError) as exc:
        return Indeterminate(f"projection did not terminate cleanly: {exc}")
    return _witness(c, result.y) or Indeterminate(
        f"projection residual {result.rnorm:.3e}: no witness within {TOL_WITNESS:.1e} "
        f"and no separation margin above {TOL_MARGIN:.1e}")


def _closed_form(c: np.ndarray, alpha: float, n: int) -> Witness | None:
    """The paper's explicit solution for the catalog interval (order
    k <= min(n, CATALOG_MAX_ORDER)) holding alpha, padded to order n, if it
    passes `_witness` on c."""
    for k in range(1, min(n, CATALOG_MAX_ORDER) + 1):
        if in_interval(k, alpha):
            y = explicit_nns(k, alpha)
            for _ in range(k, n):
                y = pad_solution(y)
            return _witness(c, y)
    return None


def verify_certificate(cert: Certificate, alpha: float, n: int) -> tuple[bool, float]:
    """Judge a certificate from elsewhere by `nns_exists`'s rule on the
    system rebuilt from (alpha, n): each link, whatever the scale of its h,
    is judged by `_separation` on the columns the links before it leave in
    play, must hold and reach its declared margin (within 1e-12), and the
    links together must remove every column.  Returns (verdict, least link
    margin); a chain with no links, or one whose h has the wrong shape,
    gives (False, 0.0)."""
    m = realize(alpha, n)
    alive = np.ones(m.shape[1], dtype=bool)
    ok, margins = True, []
    for step in cert.steps:
        h = np.asarray(step.h, dtype=float)
        if h.shape != (m.shape[0],):
            return False, 0.0
        _, margin, alive = _separation(h, m, alive)
        margins.append(float(margin))
        ok = ok and margins[-1] >= TOL_MARGIN and margins[-1] >= step.margin - 1e-12
    if not margins:
        return False, 0.0
    return ok and not alive.any(), min(margins)


@dataclass(frozen=True)
class ThresholdEstimate:
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
    """Bisect the phase angle over [pi/2, pi] for the feasibility boundary.

    Starts from the known-feasible right endpoint pi and a point just above
    pi/2 that is known infeasible for every order.  Probes are classified by
    whether a witness emerges.  Each probe builds its system once.  Above the
    boundary the paper's explicit solution (`_closed_form`) decides it.
    Below the boundary the necessity proof's chain (`_explicit_chain`)
    decides it as soon as n times its distance to the boundary is a few
    multiples of TOL_MARGIN.  Any other probe takes `nns_exists`'s decision
    (`_decide`: the row chain, then the projection): a catalog endpoint,
    where one entry of the explicit solution rounds below 0, and the band
    just below the boundary where the chain's margins miss the bar.  A probe
    that comes out indeterminate is raised: it cannot be bracketed.  The two
    endpoints must come out infeasible and feasible, otherwise
    NonMonotonePredicate is raised; every later probe lies strictly inside
    the bracket, so bisection keeps each infeasible probe below each
    feasible one by construction.
    """
    check_catalog_order(n)
    if not (math.isfinite(tol_alpha) and tol_alpha >= 1e-8):
        raise ValueError(f"tol_alpha must be finite and at least 1e-8, got {tol_alpha!r}")
    lo = math.pi / 2 + 1e-4
    hi = math.pi

    def feasible(alpha: float) -> bool:
        c, m = _build(alpha, n)
        if _closed_form(c, alpha, n):
            return True
        if _explicit_chain(m, alpha, n):
            return False
        outcome = _decide(c, m)
        if isinstance(outcome, Indeterminate):
            raise outcome
        return isinstance(outcome, Witness)

    if feasible(lo):
        raise NonMonotonePredicate(f"expected infeasibility near pi/2 at order {n}")
    if not feasible(hi):
        raise NonMonotonePredicate(f"expected feasibility at pi at order {n}")
    while hi - lo > tol_alpha:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(
        order=n,
        alpha_star=0.5 * (lo + hi),
        bracket_width=hi - lo,
        conjectured=conjectured_threshold(n),
    )


def necessity_grid(n: int, points: int) -> np.ndarray:
    """Evenly spaced angles strictly between pi/2 and the conjectured
    threshold for order n."""
    lo = math.pi / 2
    hi = conjectured_threshold(n)
    return lo + (hi - lo) * (np.arange(points) + 1) / (points + 1)


def necessity_point(alpha: float, n: int) -> dict:
    """One grid point of the necessity scan: a certificate is `verified` by
    the judgment `nns_exists` made on the system it built, without a second
    build, and lists the row and margin of each link; a witness or an
    indeterminate outcome is flagged as an anomaly."""
    outcome = nns_exists(alpha, n)
    row: dict = {"alpha": float(alpha), "n": n, "outcome": outcome.kind}
    if isinstance(outcome, Certificate):
        steps = [{"row": step.row, "margin": step.margin} for step in outcome.steps]
        row.update(margin=outcome.margin, steps=steps, verified=True, anomaly=False)
    elif isinstance(outcome, Witness):
        row.update(residual=outcome.residual, anomaly=True)
    else:
        row.update(detail=str(outcome), anomaly=True)
    return row


def necessity_scan(n: int, points: int) -> list[dict]:
    """Probe the conjecturally infeasible region; each grid point should
    produce a verified certificate.  Rows come back in grid order."""
    check_order(n)
    return [necessity_point(float(a), n) for a in necessity_grid(n, points)]
