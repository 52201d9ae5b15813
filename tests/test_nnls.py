import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paradist.catalog import conjectured_threshold
from paradist.feasibility import realize
from paradist.nnls import IterationLimitReached, nnls, refined_residual


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


def test_outer_iteration_cap():
    a, b = projection_problem(5 * math.pi / 8, 4)
    assert nnls(a, b).iterations > 1
    with pytest.raises(IterationLimitReached):
        nnls(a, b, max_outer=1)


def test_refined_residual_with_empty_support(rng):
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    assert np.array_equal(refined_residual(a, b, np.zeros(3)), b)


# Bit pins of the active-set walk on three realized systems: outer
# iterations, rnorm as a hex float and the sha256 of y's bytes.  The loop's
# floating-point operations and their order are fixed, so any rewrite of
# `nnls` must reproduce these exactly (with numpy's bundled BLAS/LAPACK).
GOLDEN = [
    (4, 5 * math.pi / 8, 9, "0x1.3991a4627b661p-49",
     "e0310d7a6a73c7aaf3cdc6c28607bff0b09e6c617bf8f93dc461ebcaf24281f6"),
    (10, conjectured_threshold(10) + 0.05, 20, "0x1.c27cce56515f1p-48",
     "c5dd25d88fa29046c765f92855008568293aca430da0a3a88e2c726b824550ff"),
    (12, conjectured_threshold(12) - 1e-3, 73, "0x1.4396ca895351dp-29",
     "1f0a7fc0e39a86a15ce045bec746032faea9a79847466f04f657964e527956c0"),
]


@pytest.mark.parametrize("n, alpha, iterations, rnorm, y_sha", GOLDEN)
def test_golden_walks(n, alpha, iterations, rnorm, y_sha):
    result = nnls(*projection_problem(alpha, n))
    assert result.iterations == iterations
    assert float(result.rnorm).hex() == rnorm
    assert hashlib.sha256(result.y.tobytes()).hexdigest() == y_sha
