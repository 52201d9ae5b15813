"""Solution symmetries: digit-permutation averaging, the digit-reversal
involution and its palindrome test, and the expand/reduce maps between
full and orbit-reduced vectors, each at a fixed relative tolerance."""

from __future__ import annotations

import numpy as np

from .labels import column_positions, order_from_p, orbit_sizes, p_count

TOL_REAL = 1e-12
TOL_ORBIT = 1e-10
TOL_MIRROR = 1e-12


class LengthNotPowerOfThree(ValueError):
    """Full vectors must have length 3**n."""


class NonRealInput(ValueError):
    """The reversal symmetry is defined for real vectors only."""


class NotOrbitConstant(ValueError):
    """Reduction requires the vector to be constant on every orbit."""


def order_of_full(x) -> int:
    """Order n for a full vector of length 3**n."""
    length = len(x)
    n = 0
    size = 1
    while size < length:
        size *= 3
        n += 1
    if size != length or n < 1:
        raise LengthNotPowerOfThree(f"length {length} is not 3**n for n >= 1")
    return n


def symmetrize_permutation(x: np.ndarray) -> np.ndarray:
    """Average a full vector over all digit permutations of its labels.

    Computed orbit-wise (sum per orbit divided by orbit size), which equals
    the average over the n! digit permutations.  Output is orbit-constant;
    orbit-constant inputs are fixed points.
    """
    x = np.asarray(x)
    n = order_of_full(x)
    cols = column_positions(n)
    sizes = np.asarray(orbit_sizes(n), dtype=float)
    p = p_count(n)
    if np.iscomplexobj(x):
        sums = np.bincount(cols, weights=x.real, minlength=p) + 1j * np.bincount(
            cols, weights=x.imag, minlength=p
        )
    else:
        sums = np.bincount(cols, weights=x, minlength=p)
    return (sums / sizes)[cols]


def reverse_conjugate(x: np.ndarray) -> np.ndarray:
    """Reindex a real full vector by the digit map d -> 2 - d.

    In linear indexing this is exactly entry reversal.  Real null vectors of
    the tensor-power system stay null vectors under this map.
    """
    x = np.asarray(x)
    order_of_full(x)
    scale = max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    if np.iscomplexobj(x) and float(np.max(np.abs(x.imag))) > TOL_REAL * scale:
        raise NonRealInput("input has a non-negligible imaginary part")
    x = x.real if np.iscomplexobj(x) else x
    return x[::-1].copy()


def expand(y: np.ndarray) -> np.ndarray:
    """Full vector that is constant on orbits with the values of ``y``."""
    y = np.asarray(y)
    n = order_from_p(len(y))
    return y[column_positions(n)]


def reduce(x: np.ndarray) -> np.ndarray:
    """Orbit representative values of an orbit-constant full vector.

    Raises :class:`NotOrbitConstant` when some orbit's entries deviate from
    their mean by more than TOL_ORBIT relative to the vector's magnitude.
    """
    x = np.asarray(x)
    n = order_of_full(x)
    means = symmetrize_permutation(x)
    scale = max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    dev = float(np.max(np.abs(x - means)))
    if dev > TOL_ORBIT * scale:
        raise NotOrbitConstant(f"max deviation {dev:.3e} exceeds {TOL_ORBIT:.1e} relative")
    cols = column_positions(n)
    out = np.empty(p_count(n), dtype=x.dtype)
    out[cols] = x
    return out


def palindrome_check(y: np.ndarray) -> bool:
    """True when the entry at (n0, n1, n2) equals the entry at (n2, n1, n0)
    for every multiset label."""
    y = np.asarray(y)
    full = expand(y)
    mirrored = full[::-1]
    scale = max(float(np.max(np.abs(y))), np.finfo(float).tiny)
    return float(np.max(np.abs(full - mirrored))) <= TOL_MIRROR * scale
