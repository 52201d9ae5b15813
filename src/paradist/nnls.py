"""Self-contained nonnegative least squares (Lawson-Hanson active set).

Solves  min ||A y - b||_2  over y >= 0.  Iterates stay in the cone by
construction, every passive-set subproblem is solved freshly from the
original data (so roundoff cannot accumulate across iterations), and the
walk terminates finitely.  Each subproblem is one Householder QR of the
passive columns with b appended, then a triangular solve, as in Lawson and
Hanson's own NNLS (Solving Least Squares Problems, 1974, ch. 23), both
through numpy's public `qr` and `solve`; a solve that fails or comes out
non-finite raises LinAlgError, in the walk or not.  In the package the walk
is the decision's last stage (`paradist.feasibility` states the order).

The residual r = b - A y at the solution is what tells a usable y from an
unusable one: the KKT conditions give A'r <= 0 columnwise (within the
gradient tolerance) together with b'r = ||r||^2, so a residual that stays
clearly nonzero means b lies outside the cone, and only a residual at
roundoff level hands back a y that solves A y = b.  The gradient tolerance
is column-scaled and sits just above the roundoff of the dot products
involved, which matters here: near a feasibility boundary the gradients
that still lead to such a y are far below any fixed absolute tolerance,
yet well above the noise of the products that realize them.

The loop's floating-point operations and their order are fixed, so a walk
is reproducible bit for bit: the same data give the same iterates, residual,
rnorm and iteration count.  `tests/test_nnls.py` pins three walks by their
bits; a rewrite of the loop may change how operations are dispatched, never
which ones run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, qr, solve


class IterationLimitReached(RuntimeError):
    """The active-set walk was cut off before reaching optimality."""


class NnlsResult(NamedTuple):
    y: np.ndarray
    residual: np.ndarray
    rnorm: float
    iterations: int


def _cap(n: int) -> int:
    """The bound on the outer and the inner iterations of a walk over n columns."""
    return max(30, 3 * n)


def _qr_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x minimizing ||a x - b||_2 for k columns a of full column rank.  One
    Householder QR of [a | b]: the last column of its R is Q'b, so x solves
    the triangle R[:k, :k] x = (Q'b)[:k].  Raises LinAlgError when the
    triangle is singular, x is not finite or a has more columns than rows."""
    rows, k = a.shape
    if rows < k:
        raise LinAlgError(f"{k} columns but only {rows} rows")
    r = qr(np.column_stack([a, b]), mode="r")
    x = solve(r[:k, :k], r[:k, k])
    if not np.isfinite(x).all():
        raise LinAlgError("passive-set solve is not finite")
    return x


def nnls(a: np.ndarray, b: np.ndarray) -> NnlsResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("right-hand side length does not match row count")

    col_scale = np.maximum(np.linalg.norm(a, axis=0), np.finfo(float).tiny)
    eps = np.finfo(float).eps
    tau_scale = 10.0 * eps * col_scale

    abs_a = np.abs(a)
    bnorm = math.sqrt(b @ b)
    y = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    residual = b.copy()
    rnorm = bnorm
    outer = 0
    while True:
        # the cancellation mass |A||y| + |b| sets the resolution floor of
        # the residual (with room for the condition of the support solve);
        # once the residual reaches it, the system is solved to working
        # precision and smaller gradients are pure noise.  y stays >= 0
        # (never -0.0), so |y| is y itself
        mass = bnorm + float((abs_a @ y).max())
        if rnorm <= 100.0 * eps * mass:
            break
        grad = a.T @ residual
        eligible = grad > tau_scale * (rnorm + mass)
        eligible[passive] = False
        eligible[blocked] = False
        if not eligible.any():
            break
        outer += 1
        if outer > _cap(n):
            raise IterationLimitReached(f"exceeded {_cap(n)} active-set iterations")
        scores = grad / col_scale
        scores[~eligible] = -np.inf
        enter = int(scores.argmax())
        passive[enter] = True

        for _ in range(_cap(n)):
            sol = _qr_solve(a[:, passive], b)
            if sol.min() > 0.0:
                y[passive] = sol
                break
            current = y[passive]
            shrink = sol <= 0.0
            denom = current[shrink] - sol[shrink]
            steps = np.where(denom > 0.0, current[shrink] / np.where(denom > 0.0, denom, 1.0), 0.0)
            step = float(steps.min())
            moved = current + step * (sol - current)
            moved[shrink & (moved <= 0.0)] = 0.0
            y[passive] = np.maximum(moved, 0.0)
            drop = passive.copy()
            drop[passive] = y[passive] <= 0.0
            passive[drop] = False
            y[drop] = 0.0
        else:
            raise IterationLimitReached(f"inner loop exceeded {_cap(n)} steps")

        residual = b - a @ y
        new_rnorm = math.sqrt(residual @ residual)
        if not passive[enter]:
            # entering column was immediately dropped again; keep it out of
            # contention until some other column makes progress
            blocked[enter] = True
        # sub-relative-tolerance wiggles do not count as progress, or the
        # blocked set would keep re-arming a noise-level add/drop cycle
        if new_rnorm < rnorm * (1.0 - 1e-9):
            blocked[:] = False
        rnorm = new_rnorm

    return NnlsResult(y=y, residual=residual, rnorm=rnorm, iterations=outer)


def refined_residual(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Residual b - A y after two steps of iterative refinement of y on its support.

    Corrections are solved in double precision, by the same Householder QR
    solve as the walk's passive sets (LinAlgError when one fails), but
    residuals accumulate in extended precision, which restores the
    orthogonality of the residual to the support columns down to the square
    of the working precision.  That orthogonality is exactly what separation
    margins extracted from the residual are made of, and plain least squares
    leaves too much slop in it when the residual is many orders below the
    data.  The gain relies on `np.longdouble` being the 80-bit x87 format;
    where it is plain float64 (MSVC builds on Windows, macOS on arm64) the
    refinement adds no precision.  Nothing in the package calls it: no
    decision takes a certificate from the projection's residual.  It is
    kept because the benchmark's tracer (`perfbench/tracer.py`) wraps it by
    name.
    """
    a_hi = a.astype(np.longdouble)
    b_hi = b.astype(np.longdouble)
    y_hi = y.astype(np.longdouble)
    support = y > 0
    if not np.any(support):
        return (b_hi - a_hi @ y_hi).astype(float)
    for _ in range(2):
        r = b_hi - a_hi @ y_hi
        correction = _qr_solve(a[:, support], r.astype(float))
        y_hi[support] += correction
        y_hi = np.maximum(y_hi, 0.0)
    return (b_hi - a_hi @ y_hi).astype(float)
