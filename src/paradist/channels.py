"""Choi-Kraus realization of a prescribed product span.

Given a finite set of n x n matrices, builds two completeness-obeying
operator families {E_j}, {F_j} such that span{E_i* F_j} equals the span of
the input set.  The construction factors the block diagonal of a basis
through a rank decomposition, rescales so the completeness defects are
positive semidefinite, and takes their square roots as the final operators.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TOL_KRAUS = 1e-10
REL_TOL = 1e-10
PSD_CLAMP = 1e-12


class AllZero(ValueError):
    """The input set spans only the zero matrix."""


class ShapeMismatch(ValueError):
    """Operator shapes are incompatible."""


class KrausPair(NamedTuple):
    e_ops: list[np.ndarray]
    f_ops: list[np.ndarray]
    scale: float
    rank: int


def scaled_norm(x: np.ndarray) -> float:
    """Frobenius norm taken on x / max|x|, so that entries below about 1e-154
    do not square to zero; nan or inf when an entry is."""
    peak = float(np.max(np.abs(x), initial=0.0))
    return peak * float(np.linalg.norm(x / peak)) if 0 < peak < np.inf else peak


def extract_basis(mats) -> list[np.ndarray]:
    """Greedy maximal linearly independent subsequence, by testing each
    vectorized matrix against the span of those already kept."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ShapeMismatch("matrices must be square and equally sized")
    # a NaN or infinite entry, or a norm that overflows, is no zero matrix
    norms = [scaled_norm(m) for m in mats]
    if not np.all(np.isfinite(norms)):
        raise ValueError("input matrices must have finite entries and finite norms")
    scale = max(norms)
    if scale == 0:
        raise AllZero("all input matrices vanish")
    # with finite norms and scale > 0, the matrix of largest norm enters the
    # basis unless an earlier one has, so the basis is never empty
    basis = []
    ortho: list[np.ndarray] = []
    for m in mats:
        v = m.ravel().copy()
        for q in ortho:
            v -= (q.conj() @ v) * q
        norm = scaled_norm(v)
        if norm > REL_TOL * scale:
            ortho.append(v / norm)
            basis.append(m)
    return basis


def _sqrtm_psd(h: np.ndarray) -> np.ndarray:
    """Hermitian square root with eigenvalues down to -PSD_CLAMP clamped to 0."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    if float(np.min(w)) < -PSD_CLAMP:
        raise ValueError(f"matrix is not positive semidefinite (min eig {np.min(w):.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def realize_channels(basis: list[np.ndarray]) -> KrausPair:
    """Build the two operator families realizing the span of an `extract_basis` list.

    The m basis blocks are factored as the product of k x n slices of the
    rank decomposition; operators live in three row slots of sizes (k, n, n)
    so the completeness remainders occupy slots that never meet in any
    cross product.
    """
    m = len(basis)
    n = basis[0].shape[0]
    stacked = np.zeros((n * m, n * m), dtype=complex)
    for j, block in enumerate(basis):
        stacked[j * n:(j + 1) * n, j * n:(j + 1) * n] = block
    u, s, vh = np.linalg.svd(stacked)
    k = int(np.sum(s > REL_TOL * s[0]))
    if k == 0:
        raise AllZero("basis blocks vanish")
    root = np.sqrt(s[:k])
    left = (root[:, None] * u[:, :k].conj().T)   # k x nm
    right = root[:, None] * vh[:k, :]            # k x nm
    b_parts = [left[:, j * n:(j + 1) * n] for j in range(m)]
    c_parts = [right[:, j * n:(j + 1) * n] for j in range(m)]

    b_gram = sum(p.conj().T @ p for p in b_parts)
    c_gram = sum(p.conj().T @ p for p in c_parts)
    scale = 2.0 * max(float(np.linalg.norm(b_gram, 2)), float(np.linalg.norm(c_gram, 2)), 1.0)
    b0 = _sqrtm_psd(np.eye(n) - b_gram / scale)
    c0 = _sqrtm_psd(np.eye(n) - c_gram / scale)

    zk = np.zeros((k, n), dtype=complex)
    zn = np.zeros((n, n), dtype=complex)
    e_ops = [np.vstack([p / np.sqrt(scale), zn, zn]) for p in b_parts]
    f_ops = [np.vstack([p / np.sqrt(scale), zn, zn]) for p in c_parts]
    e_ops.append(np.vstack([zk, b0, zn]))
    f_ops.append(np.vstack([zk, zn, c0]))
    return KrausPair(e_ops=e_ops, f_ops=f_ops, scale=scale, rank=k)


def verify_kraus(ops) -> tuple[bool, float]:
    """Completeness defect ||sum op* op - I||_F and pass/fail at TOL_KRAUS."""
    ops = [np.asarray(op, dtype=complex) for op in ops]
    cols = ops[0].shape[1]
    for op in ops:
        if op.shape[1] != cols:
            raise ShapeMismatch("operators must share their column count")
    total = sum(op.conj().T @ op for op in ops)
    defect = float(np.linalg.norm(total - np.eye(cols)))
    return defect <= TOL_KRAUS, defect


def product_identity(pair: KrausPair) -> np.ndarray:
    """The stacked product [E]* [F], block (i, j) = E_i* F_j."""
    e_all = np.hstack(pair.e_ops)
    f_all = np.hstack(pair.f_ops)
    return e_all.conj().T @ f_all


def _unit_rows(stack: np.ndarray) -> np.ndarray:
    """Drop near-zero rows and scale the rest to unit norm, so rank tests
    are insensitive to the overall scale of either operand."""
    norms = np.array([scaled_norm(row) for row in stack])
    top = float(np.max(norms)) if len(norms) else 0.0
    keep = norms > REL_TOL * max(top, np.finfo(float).tiny)
    return stack[keep] / norms[keep, None]


def span_equality(e_ops, f_ops, mats) -> bool:
    """True when span{E_i* F_j} coincides with the span of ``mats``."""
    e_ops = [np.asarray(op, dtype=complex) for op in e_ops]
    f_ops = [np.asarray(op, dtype=complex) for op in f_ops]
    mats = [np.asarray(m, dtype=complex) for m in mats]
    n = mats[0].shape[0]
    for op in e_ops + f_ops:
        if op.shape[1] != n:
            raise ShapeMismatch("operator column count must match the span dimension")
    products = [e.conj().T @ f for e in e_ops for f in f_ops]
    prod_stack = _unit_rows(np.array([p.ravel() for p in products]))
    span_stack = _unit_rows(np.array([m.ravel() for m in mats]))
    if len(prod_stack) == 0 or len(span_stack) == 0:
        return len(prod_stack) == len(span_stack)
    both = np.vstack([prod_stack, span_stack])
    tol = REL_TOL * max(both.shape)
    r_prod = np.linalg.matrix_rank(prod_stack, tol=tol)
    r_span = np.linalg.matrix_rank(span_stack, tol=tol)
    r_both = np.linalg.matrix_rank(both, tol=tol)
    return bool(r_prod == r_span == r_both)


def random_span_set(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """Seeded complex-Gaussian matrices for randomized verification."""
    return [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        for _ in range(count)
    ]
