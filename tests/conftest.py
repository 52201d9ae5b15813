"""Shared oracles: the displayed matrices, written out entry by entry; and
the one way a test substitutes the systems `feasibility` decides."""

import numpy as np
import pytest

import paradist.feasibility as feasibility


def displayed_c2(z):
    return np.array([
        [1, -2 * z**2, z**4, 0, 0, 0],
        [0, z, -z**3, 1, -z**2, 0],
        [0, 0, z**2, 0, 2 * z, 1],
    ], dtype=complex)


def displayed_c3(z):
    return np.array([
        [1, -3 * z**2, 3 * z**4, -z**6, 0, 0, 0, 0, 0, 0],
        [0, z, -2 * z**3, z**5, 1, -2 * z**2, z**4, 0, 0, 0],
        [0, 0, z**2, -z**4, 0, 2 * z, -2 * z**3, 1, -z**2, 0],
        [0, 0, 0, z**3, 0, 0, 3 * z**2, 0, 3 * z, 1],
    ], dtype=complex)


def displayed_b2(z):
    c = displayed_c2(z)
    return c[[0, 1, 1, 2]]


def displayed_b3(z):
    c = displayed_c3(z)
    # binary row labels in lexicographic order, by ones count 0,1,1,2,1,2,2,3
    return c[[0, 1, 1, 2, 1, 2, 2, 3]]


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def build_per_angle(monkeypatch, builder):
    """Make `feasibility` build every system from `builder(alpha, n)`,
    called once per angle, in place of `build_C_stack`, the one builder
    `feasibility` calls: each stack `_decide` builds, and each system built
    alone (`realize`) as a stack of one.  Returns the list of every stack it
    builds, in call order; a stack holds one system per angle, so the
    stacks' lengths add up to every system built."""
    stacks = []

    def build_stack(alphas, n):
        stacks.append(np.stack([builder(alpha, n) for alpha in alphas]))
        return stacks[-1]

    monkeypatch.setattr(feasibility, "build_C_stack", build_stack)
    return stacks
