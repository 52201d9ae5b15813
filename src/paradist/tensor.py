"""Builders for the 2x3 base matrix, its Kronecker powers, the orbit
selector, and the reduced coefficient matrices.

All builders share one power table of z = exp(i*alpha) (computed once and
extended by one complex product per power, in order) together with exact
integer binomials, so the direct and block constructions of the reduced
matrix agree bitwise.
The reduced matrix C is built from per-order integer tables, computed once
for each order: which entries are nonzero, their signed binomial
coefficients and their phase exponents.  One power table then fills every
nonzero entry with coefficient times power, the same product the closed
form computes entry by entry; `build_C_stack` fills the systems of many
angles at once with the same products, their powers chained by one
`np.multiply.accumulate`.
"""

from __future__ import annotations

import cmath
from enum import Enum
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import mul

import numpy as np

from .labels import check_order, column_order, column_positions, p_count, read_only

ENTRY_BUDGET = 1 << 27


class SizeExceeded(MemoryError):
    """Requested dense matrix exceeds ENTRY_BUDGET entries."""


class MatrixForm(Enum):
    ORIGINAL = "original"
    REDUCED = "reduced"


def unit_phase(alpha: float) -> complex:
    """z = exp(i*alpha)."""
    return cmath.exp(1j * float(alpha))


def z_powers(alpha: float, kmax: int) -> np.ndarray:
    """Powers z**0 .. z**kmax built by repeated multiplication, one Python
    complex product each (the textbook formula, no fused operations), read
    into numpy in one call."""
    powers = accumulate(repeat(unit_phase(alpha), kmax), mul, initial=1 + 0j)
    return np.fromiter(powers, complex, kmax + 1)


def a_alpha(alpha: float, form: MatrixForm = MatrixForm.REDUCED) -> np.ndarray:
    """The 2x3 base matrix in either form.

    Original: [[1, z, 0], [0, 1, z]].  Reduced: [[1, 0, -z^2], [0, 1, z]],
    obtained from the original by an invertible row operation, so both have
    the same null space.
    """
    zp = z_powers(alpha, 2)
    if form is MatrixForm.ORIGINAL:
        return np.array([[1.0, zp[1], 0.0], [0.0, 1.0, zp[1]]], dtype=complex)
    if form is MatrixForm.REDUCED:
        return np.array([[1.0, 0.0, -zp[2]], [0.0, 1.0, zp[1]]], dtype=complex)
    raise ValueError(f"unknown form {form!r}")


def kron_power(m: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a dense matrix.

    Index order matches the digit-label convention: row/column digit strings
    read left to right, leftmost factor most significant.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    m = np.asarray(m)
    rows, cols = m.shape
    if rows**n * cols**n > ENTRY_BUDGET:
        raise SizeExceeded(
            f"kron power {rows}^{n} x {cols}^{n} exceeds budget of {ENTRY_BUDGET} entries"
        )
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def build_Q(n: int) -> np.ndarray:
    """Orbit selector: 3**n x p_n 0/1 matrix with a single 1 per row,
    marking which multiset orbit each ternary label belongs to."""
    check_order(n)
    q = np.zeros((3**n, p_count(n)))
    q[np.arange(3**n), column_positions(n)] = 1.0
    return q


def b_entry_closed_form(n: int, ones_count: int, label, alpha: float) -> complex:
    """Entry of the orbit-summed system in the row with the given number of
    trailing ones, at the column of the given multiset label.

    Equals binom(n-j, n0) * (-z^2)^(n-j-n0) * binom(j, n1) * z^(j-n1) with
    j the ones count and binomials vanishing when the lower index exceeds
    the upper.
    """
    if not 0 <= ones_count <= n:
        raise ValueError("ones count must lie in 0..n")
    n0, n1, _ = (int(c) for c in label)
    coeff = comb(n - ones_count, n0) * comb(ones_count, n1) if n0 <= n - ones_count and n1 <= ones_count else 0
    if coeff == 0:
        return 0.0 + 0.0j
    e0 = n - ones_count - n0
    zp = z_powers(alpha, 2 * n)
    return coeff * (-1) ** e0 * zp[2 * e0 + ones_count - n1]


@lru_cache(maxsize=None)
def _row_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of the (n+1) x p_n closed-form rows: the row-major
    flat positions of the nonzero entries and, in that order, the signed
    coefficients binom(n-j, n0) * binom(j, n1) * (-1)^e0, held as the
    complex numbers they are multiplied as, and the phase exponents
    2*e0 + j - n1, with e0 = n - j - n0."""
    cols = column_order(n)
    mask = np.zeros((n + 1, p_count(n)), dtype=bool)
    coeff = []
    expo = []
    for j in range(n + 1):
        for col, (n0, n1, _) in enumerate(cols):
            if n0 > n - j or n1 > j:
                continue
            e0 = n - j - n0
            mask[j, col] = True
            coeff.append(comb(n - j, n0) * comb(j, n1) * (-1) ** e0)
            expo.append(2 * e0 + j - n1)
    return (read_only(np.flatnonzero(mask)), read_only(np.array(coeff, dtype=complex)),
            read_only(np.array(expo, dtype=np.intp)))


def build_C(alpha: float, n: int) -> np.ndarray:
    """Row-deduplicated system: (n+1) x p_n, one closed-form row per ones
    count.  Structural zeros are written by no product, so they stay +0.0."""
    check_order(n)
    flat, coeff, expo = _row_tables(n)
    out = np.zeros((n + 1, p_count(n)), dtype=complex)
    out.reshape(-1)[flat] = coeff * z_powers(alpha, 2 * n)[expo]
    return out


def build_C_stack(alphas, n: int) -> np.ndarray:
    """The systems `build_C` builds at each of `alphas`, as one fresh,
    writable, C-contiguous len(alphas) x (n+1) x p_n stack with the same
    bits: one power table for every angle, and one fill of coefficient
    times power.  One angle is `build_C` itself, which costs numpy less."""
    if len(alphas) == 1:
        return build_C(alphas[0], n)[None]
    check_order(n)
    flat, coeff, expo = _row_tables(n)
    # z**0 .. z**2n of every angle, seeded with 1 and z and chained by one
    # accumulate, whose loop makes `z_powers`'s products one at a time; a
    # multiply per column would run numpy's vector loop, whose fused
    # products move the bits of almost every row
    powers = np.empty((len(alphas), 2 * n + 1), dtype=complex)
    powers[:, 0] = 1
    powers[:, 1:] = np.fromiter(map(unit_phase, alphas), complex, len(alphas))[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    # each product overwrites the gathered power it is made from, so a
    # stack allocates one temporary, not two
    values = powers[:, expo]
    np.multiply(coeff, values, out=values)
    out = np.zeros((len(alphas), n + 1, p_count(n)), dtype=complex)
    out.reshape(len(alphas), (n + 1) * p_count(n))[:, flat] = values
    return out


def build_B(alpha: float, n: int) -> np.ndarray:
    """Orbit-summed system: 2**n x p_n.  Rows with the same ones count are
    identical, so each row is the row of build_C for its ones count."""
    rows = build_C(alpha, n)
    ones = np.array([bin(i).count("1") for i in range(2**n)])
    return rows[ones]


def gamma(n: int, alpha: float) -> np.ndarray:
    """Upper triangular (n+1)x(n+1) phase block; 1-based (j,k) entry is
    (-1)^(k-j) * binom(n+1-j, k-j) * z^(j-1+2(k-j)) for k >= j."""
    if n < 0:
        raise ValueError("block order must be >= 0")
    zp = z_powers(alpha, 2 * n + 1 if n else 1)
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(1, n + 2):
        for k in range(j, n + 2):
            out[j - 1, k - 1] = (-1) ** (k - j) * comb(n + 1 - j, k - j) * zp[j - 1 + 2 * (k - j)]
    return out


def d_diag(n: int, k: int) -> np.ndarray:
    """Diagonal binomial block diag(binom(k,k), ..., binom(n,k))."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return np.diag([float(comb(i, k)) for i in range(k, n + 1)])


def build_C_block(alpha: float, n: int) -> np.ndarray:
    """Assemble the row-deduplicated system from its block decomposition:
    the k-th column group is k zero rows stacked over the binomial diagonal
    times the order-(n-k) phase block."""
    check_order(n)
    blocks = [gamma(n, alpha)]
    for k in range(1, n + 1):
        body = d_diag(n, k) @ gamma(n - k, alpha)
        blocks.append(np.vstack([np.zeros((k, n - k + 1), dtype=complex), body]))
    return np.hstack(blocks)


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a dense matrix as rows/cols plus interleaved re/im pairs."""
    m = np.asarray(m, dtype=complex)
    entries = np.empty(2 * m.size)
    entries[0::2] = m.real.ravel()
    entries[1::2] = m.imag.ravel()
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": entries.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of `matrix_to_json`; ValueError unless ``rows`` and ``cols``
    are positive ints and ``entries`` is a list of 2*rows*cols numbers."""
    rows, cols, entries = obj.get("rows"), obj.get("cols"), obj.get("entries")
    if not all(type(k) is int and k > 0 for k in (rows, cols)):
        raise ValueError(f"matrix rows and cols must be positive ints, got {rows!r}, {cols!r}")
    if not (isinstance(entries, list) and len(entries) == 2 * rows * cols
            and all(type(x) in (int, float) for x in entries)):
        raise ValueError(f"matrix entries must be a list of {2 * rows * cols} numbers")
    try:
        pairs = np.asarray(entries, dtype=float)
    except OverflowError as exc:  # an integer literal beyond float range
        raise ValueError(f"matrix entries must fit in a float: {exc}") from exc
    return (pairs[0::2] + 1j * pairs[1::2]).reshape(rows, cols)
