"""Feasibility of the reduced system over the nonnegative cone.

For a given order and phase angle, decides whether the row-deduplicated
system C has a nontrivial nonnegative null vector.  C is embedded as its
real rows over its imaginary rows (M, see `realize`), then the point
b = (0, ..., 0, 1) is projected onto the cone spanned by the columns of
[M; 1'] with an active-set nonnegative least squares solve.  A near-zero
projection residual hands back a witness in the cone; a nonzero residual r
is, by the projection's optimality conditions, a separating vector:
h = -r restricted to the M rows satisfies h'M > 0 columnwise (the
finite-dimensional separation certificate).  Each decision builds C once,
read-only, and judges both outcomes on that system alone.  `nns_exists`
turns (alpha, n) into one of three outcomes, indeterminate included; every
report is rendered from it.  The witness and margin bars that decide what an
outcome means are module constants, read at call time; only the
threshold's bracket width is a per-call parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import check_catalog_order, conjectured_threshold
from .labels import check_order
from .nnls import IterationLimitReached, nnls, refined_residual
from .tensor import build_C

TOL_WITNESS = 1e-8
TOL_MARGIN = 1e-8
TOL_ALPHA = 1e-6


class Indeterminate(RuntimeError):
    """Neither a witness nor a certificate met its bar: the third outcome
    `nns_exists` returns.  `threshold_bisect` raises one for a probe it
    cannot bracket."""

    kind = "indeterminate"
    metric = math.nan

    def __init__(self, message: str, objective: float | None = None):
        super().__init__(message)
        self.objective = objective

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
class Certificate:
    h: np.ndarray
    margin: float
    kind = "certificate"
    metric = property(lambda self: self.margin)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "h": self.h.tolist(), "margin": self.margin}


FeasibilityOutcome = Witness | Certificate | Indeterminate


def _build(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced system C and its real embedding M, both read-only."""
    c = build_C(alpha, n)
    m = np.vstack([c.real, c.imag])
    c.setflags(write=False)
    m.setflags(write=False)
    return c, m


def realize(alpha: float, n: int) -> np.ndarray:
    """The reduced system's real and imaginary rows stacked into a read-only
    real 2(n+1) x p_n array with the same nonnegative null vectors."""
    return _build(alpha, n)[1]


def _separation(h: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, float]:
    """h scaled to max|h| = 1 and its margin min(h'M), 0.0 for a zero h:
    the one certificate rule, met at margin >= TOL_MARGIN."""
    hmax = float(np.max(np.abs(h)))
    if hmax == 0.0:
        return h, 0.0
    h = h / hmax
    return h, float(np.min(h @ m))


def nns_exists(alpha: float, n: int) -> FeasibilityOutcome:
    """Decide whether a nontrivial nonnegative null vector exists.

    Projects onto the cone of the normalized system { y >= 0, M y = 0,
    sum(y) = 1 }.  Returns a Witness, a Certificate (by `_separation`), or
    an Indeterminate when neither side meets its bar (TOL_WITNESS,
    TOL_MARGIN), which near the feasibility boundary is unavoidable: the
    best achievable separation margin decays to zero at the boundary.  A
    walk cut off by its caps or by a failed solve has no objective; a failed
    refinement keeps the walk's rnorm.  Raises only ValueError, for alpha
    outside [pi/2, pi].
    """
    if not math.pi / 2 - 1e-12 <= alpha <= math.pi + 1e-12:
        raise ValueError("alpha must lie in [pi/2, pi]")
    c, m = _build(alpha, n)
    rows, p = m.shape
    a = np.vstack([m, np.ones((1, p))])
    b = np.zeros(rows + 1)
    b[-1] = 1.0
    try:
        result = nnls(a, b)
    except (IterationLimitReached, np.linalg.LinAlgError) as exc:
        return Indeterminate(f"projection did not terminate cleanly: {exc}")

    # the projection only proposes candidates: a witness is judged on C,
    # a certificate on M, both built once for this decision; nnls keeps
    # y >= 0 (never -0.0), so only the residual decides a witness
    total = float(result.y.sum())
    if total > 0:
        y = result.y / total
        residual = float(np.max(np.abs(c @ y)))
        if residual <= TOL_WITNESS:
            return Witness(y=y, residual=residual)

    try:
        h, margin = _separation(-refined_residual(a, b, result.y)[:rows], m)
    except np.linalg.LinAlgError as exc:
        return Indeterminate(f"residual refinement failed: {exc}", objective=result.rnorm)
    if margin >= TOL_MARGIN:
        return Certificate(h=h, margin=margin)

    return Indeterminate(
        f"projection residual {result.rnorm:.3e}: no witness within {TOL_WITNESS:.1e} "
        f"and no separation margin above {TOL_MARGIN:.1e}",
        objective=result.rnorm,
    )


def verify_certificate(cert: Certificate, alpha: float, n: int) -> tuple[bool, float]:
    """Judge a certificate from elsewhere by `nns_exists`'s rule on the
    system rebuilt from (alpha, n), whatever the scale of h; the margin must
    also reach the declared one (within 1e-12).  Returns (verdict, margin)."""
    h = np.asarray(cert.h, dtype=float)
    m = realize(alpha, n)
    if h.shape != (m.shape[0],):
        return False, 0.0
    _, margin = _separation(h, m)
    return margin >= TOL_MARGIN and margin >= cert.margin - 1e-12, margin


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
    whether a witness emerges; a probe whose certificate misses the strict
    margin bar but whose projection residual is clearly positive still
    counts as the infeasible side for bracketing (near the boundary the
    best achievable margin decays below any fixed bar, so certified
    infeasibility there is unattainable).  The two endpoints must come out
    infeasible and feasible, otherwise NonMonotonePredicate is raised; every
    later probe lies strictly inside the bracket, so bisection keeps each
    infeasible probe below each feasible one by construction.
    """
    check_catalog_order(n)
    if not (math.isfinite(tol_alpha) and tol_alpha >= 1e-8):
        raise ValueError(f"tol_alpha must be finite and at least 1e-8, got {tol_alpha!r}")
    lo = math.pi / 2 + 1e-4
    hi = math.pi

    def feasible(alpha: float) -> bool:
        outcome = nns_exists(alpha, n)
        if isinstance(outcome, Indeterminate) and (
                outcome.objective is None or outcome.objective <= TOL_WITNESS):
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
    build; a witness or an indeterminate outcome is flagged as an anomaly."""
    outcome = nns_exists(alpha, n)
    row: dict = {"alpha": float(alpha), "n": n, "outcome": outcome.kind}
    if isinstance(outcome, Certificate):
        row.update(margin=outcome.margin, verified=True, anomaly=False)
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
