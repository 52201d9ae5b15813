import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import paradist.nnls
from paradist.catalog import conjectured_threshold
from paradist.feasibility import TOL_WITNESS, realize
from paradist.nnls import IterationLimitReached, _qr_solve, nnls, refined_residual


def projection_problem(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cone projection `nns_exists` solves: [M; 1'] y = (0, ..., 0, 1)."""
    m = realize(alpha, n)
    a = np.vstack([m, np.ones((1, m.shape[1]))])
    b = np.zeros(m.shape[0] + 1)
    b[-1] = 1.0
    return a, b


def test_kkt_on_random_problems(rng):
    for _ in range(40):
        rows, cols = rng.integers(2, 9, size=2)
        a = rng.standard_normal((rows, cols))
        b = rng.standard_normal(rows)
        result = nnls(a, b)
        y = result.y
        # no negative entry and no -0.0: callers use y as |y| and judge a
        # witness without a sign test
        assert np.all(y >= 0) and not np.signbit(y).any()
        assert np.array_equal(result.residual, b - a @ y)
        assert result.rnorm == pytest.approx(np.linalg.norm(result.residual), rel=1e-15)
        # dual feasibility off the support, stationarity on it
        grad = a.T @ result.residual
        tau = 1e-10 * np.linalg.norm(a, axis=0) * (np.linalg.norm(b) + 1.0)
        assert np.all(grad[y == 0] <= tau[y == 0])
        assert np.all(np.abs(grad[y > 0]) <= tau[y > 0])


def test_right_hand_side_inside_cone(rng):
    for _ in range(20):
        a = rng.standard_normal((8, 5))
        y0 = rng.uniform(0.5, 2.0, 5)
        result = nnls(a, a @ y0)
        assert result.rnorm <= 1e-12 * np.linalg.norm(a @ y0)
        assert_allclose(result.y, y0, rtol=1e-10)


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        nnls(np.eye(3), np.ones(2))


def test_outer_iteration_cap(monkeypatch):
    a, b = projection_problem(5 * math.pi / 8, 4)
    assert nnls(a, b).iterations > 1
    monkeypatch.setattr(paradist.nnls, "_cap", lambda n: 1)
    with pytest.raises(IterationLimitReached):
        nnls(a, b)


def test_qr_solve_matches_svd_least_squares(rng):
    # LAPACK's SVD-based solver stays here as the reference; on random
    # tall or square Gaussian problems both agree to near working precision
    for _ in range(20):
        rows = int(rng.integers(2, 28))
        a = rng.standard_normal((rows, int(rng.integers(1, rows + 1))))
        b = rng.standard_normal(rows)
        ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert_allclose(_qr_solve(a, b), ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_qr_solve_refuses_rank_deficient_systems(rng):
    with pytest.raises(np.linalg.LinAlgError, match="3 columns but only 2 rows"):
        _qr_solve(rng.standard_normal((2, 3)), rng.standard_normal(2))
    a = rng.standard_normal((5, 3))
    a[:, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _qr_solve(a, rng.standard_normal(5))


def test_refined_residual_with_empty_support(rng):
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    assert np.array_equal(refined_residual(a, b, np.zeros(3)), b)


# Bit pins of the active-set walk on three realized systems: outer
# iterations, rnorm as a hex float and the sha256 of y's bytes.  The loop's
# floating-point operations and their order are fixed, so any rewrite of
# `nnls` must reproduce these exactly (with numpy's bundled BLAS/LAPACK).
# The ids name the problems, not the pins, so that re-recording a pin keeps
# the test's name.
GOLDEN = [
    (4, 5 * math.pi / 8, 9, "0x1.a336f28a22f6ap-52",
     "a9cf111fc82e1b65be4ad81a635d14df68f456d0d5283ef586bb64a80af62f52"),
    (10, conjectured_threshold(10) + 0.05, 20, "0x1.d7bb2ab5b193fp-52",
     "b4957a4106485bec9465ae4ff5746c7bb5151bdfacd29593311c35d0020da31a"),
    (12, conjectured_threshold(12) - 1e-3, 56, "0x1.9ab4e29aae410p-26",
     "3a8922c238e44954583c4c2c5957ffcc0d88e84743b4da62aafc757b66ccb48e"),
]


@pytest.mark.parametrize("n, alpha, iterations, rnorm, y_sha", GOLDEN,
                         ids=["n4-5pi8", "n10-above", "n12-below"])
def test_golden_walks(n, alpha, iterations, rnorm, y_sha):
    result = nnls(*projection_problem(alpha, n))
    assert result.iterations == iterations
    assert float(result.rnorm).hex() == rnorm
    assert hashlib.sha256(result.y.tobytes()).hexdigest() == y_sha
    if alpha < conjectured_threshold(n):
        # below the threshold the projection keeps a residual above the
        # witness bar, so no witness can come out of it
        assert result.rnorm > TOL_WITNESS


# sha256 of refined_residual's bytes after the walk on each GOLDEN problem:
# its correction solves round each extended-precision residual to double
# before the QR, and any rewrite of the solve must keep these bits
REFINED = [
    "bb79e0600983692f81ab095944f2694ee24e75a65f3e57debddc70a711d22524",
    "a20cbc2cb669584b748c9d566bd77560fda32ae952439eaacd522dcdeab22e40",
    "4b105649f69f082b37756669f38e981e03d4a97e66972e0de136e333c5d56f46",
]


@pytest.mark.parametrize("golden, refined_sha", zip(GOLDEN, REFINED),
                         ids=["n4-5pi8", "n10-above", "n12-below"])
def test_refined_residual_bits(golden, refined_sha):
    n, alpha = golden[:2]
    a, b = projection_problem(alpha, n)
    r = refined_residual(a, b, nnls(a, b).y)
    assert hashlib.sha256(r.tobytes()).hexdigest() == refined_sha
