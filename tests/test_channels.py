import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import paradist
from paradist.channels import (
    AllZero,
    ShapeMismatch,
    extract_basis,
    product_identity,
    random_span_set,
    realize_channels,
    span_equality,
    verify_kraus,
)
from scipy.linalg import block_diag


def pair_of_diagonals(alpha):
    """The two 3x3 operators whose span drives the tensor-power systems."""
    z = np.exp(1j * alpha)
    first = np.diag([1.0, z, 0.0])
    second = np.diag([0.0, 1.0, z])
    return [first, second]


def test_extract_basis_collapses_multiples():
    assert len(extract_basis([np.eye(2), 2 * np.eye(2)])) == 1


def test_extract_basis_keeps_independents():
    e11 = np.zeros((2, 2)); e11[0, 0] = 1
    e22 = np.zeros((2, 2)); e22[1, 1] = 1
    assert len(extract_basis([e11, e22])) == 2


def test_extract_basis_on_diagonal_pair():
    assert len(extract_basis(pair_of_diagonals(3 * math.pi / 4))) == 2


def test_extract_basis_rejects_zero():
    with pytest.raises(AllZero):
        extract_basis([np.zeros((2, 2)), np.zeros((2, 2))])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308], ids=["nan", "inf", "norm-overflow"])
def test_extract_basis_rejects_non_finite(bad):
    # non-finite input is refused as such, not mistaken for a zero matrix
    with pytest.raises(ValueError, match="finite entries and finite norms") as raised:
        extract_basis([np.eye(2), np.full((2, 2), bad)])
    assert not isinstance(raised.value, AllZero)


def test_tiny_matrices_keep_their_span():
    # entries below about 1e-154 square to zero in an unscaled norm
    tiny = [np.eye(2) * 1e-170, np.array([[0, 1], [0, 0]]) * 1e-170]
    basis = extract_basis(tiny)
    assert len(basis) == 2
    pair = realize_channels(basis)
    assert span_equality(pair.e_ops, pair.f_ops, tiny)
    assert not span_equality(pair.e_ops, pair.f_ops, [np.array([[0, 0], [1, 0]]) * 1e-170])


def test_extract_basis_rejects_mixed_shapes():
    with pytest.raises(ShapeMismatch):
        extract_basis([np.eye(2), np.eye(3)])


def test_identity_span_realization():
    pair = realize_channels(extract_basis([np.eye(2)]))
    assert pair.rank == 2
    ok_e, defect_e = verify_kraus(pair.e_ops)
    ok_f, defect_f = verify_kraus(pair.f_ops)
    assert ok_e and ok_f
    assert defect_e <= 1e-12 and defect_f <= 1e-12


def test_diagonal_pair_realization():
    mats = pair_of_diagonals(3 * math.pi / 4)
    pair = realize_channels(extract_basis(mats))
    assert verify_kraus(pair.e_ops)[0]
    assert verify_kraus(pair.f_ops)[0]
    assert span_equality(pair.e_ops, pair.f_ops, mats)
    # every input matrix lies in the product span (projection residual)
    products = [e.conj().T @ f for e in pair.e_ops for f in pair.f_ops]
    stack = np.array([p.ravel() for p in products])
    q, _ = np.linalg.qr(stack.T)
    for m in mats:
        v = m.ravel()
        resid = v - q @ (q.conj().T @ v)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v)


def test_product_identity_structure(rng):
    mats = random_span_set(rng, 3, 3)
    basis = extract_basis(mats)
    pair = realize_channels(basis)
    blocks = [a / pair.scale for a in basis] + [np.zeros((3, 3))]
    expected = block_diag(*blocks)
    assert_allclose(product_identity(pair), expected, atol=1e-10)


def test_verify_kraus_examples():
    ok, defect = verify_kraus([np.eye(4)])
    assert ok and defect == 0.0
    ok2, defect2 = verify_kraus([2 * np.eye(3)])
    assert not ok2 and defect2 > 1.0
    with pytest.raises(ShapeMismatch):
        verify_kraus([np.eye(2), np.eye(3)])


def test_span_equality_fails_for_zero_f():
    mats = pair_of_diagonals(2.2)
    pair = realize_channels(extract_basis(mats))
    zeroed = [np.zeros_like(f) for f in pair.f_ops]
    assert not span_equality(pair.e_ops, zeroed, mats)


def test_completeness_remainders_stay_psd(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(1, 6))
        pair = realize_channels(extract_basis(random_span_set(rng, dim, count)))
        for ops in (pair.e_ops, pair.f_ops):
            total = sum(op.conj().T @ op for op in ops[:-1])
            w = np.linalg.eigvalsh(np.eye(dim) - total)
            assert w.min() >= -1e-12


def test_random_span_sets(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(1, 6))
        mats = random_span_set(rng, dim, count)
        pair = realize_channels(extract_basis(mats))
        ok_e, defect_e = verify_kraus(pair.e_ops)
        ok_f, defect_f = verify_kraus(pair.f_ops)
        assert ok_e and ok_f, (defect_e, defect_f)
        assert span_equality(pair.e_ops, pair.f_ops, mats)


def test_import_does_not_load_scipy():
    src = str(Path(paradist.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import paradist, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
