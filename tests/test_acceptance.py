"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here and matches the library defaults.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from conftest import displayed_c2, displayed_c3
from paradist.catalog import (
    alpha_interval,
    explicit_nns,
    interval_samples,
    pad_solution,
    verify_catalog_entry,
    verify_vector,
)
from paradist.channels import extract_basis, random_span_set, realize_channels, span_equality, verify_kraus
from paradist.feasibility import (
    Certificate,
    necessity_scan,
    threshold_bisect,
)
from paradist.labels import column_positions, p_count
from paradist.symmetry import expand, reverse_conjugate, symmetrize_permutation
from paradist.tensor import (
    MatrixForm,
    a_alpha,
    build_B,
    build_C,
    build_C_block,
    build_Q,
    kron_power,
    unit_phase,
)

RNG_SEED = 20260811


def report(number, text):
    print(f"[criterion {number:2d}] PASS: {text}")


def test_c01_closed_form_matches_kron_construction():
    rng = np.random.default_rng(RNG_SEED)
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        for alpha in rng.uniform(math.pi / 2, math.pi, 10):
            direct = kron_power(a_alpha(alpha, MatrixForm.REDUCED), n) @ build_Q(n)
            diff = float(np.max(np.abs(build_B(alpha, n) - direct)))
            worst = max(worst, diff)
            assert diff <= 1e-10, (n, alpha, diff)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"construction cross-check took {elapsed:.1f}s"
    report(1, f"closed form vs tensor construction, N<=8, max diff {worst:.2e}, {elapsed:.1f}s")


def test_c02_displayed_matrices_reproduced():
    worst = 0.0
    for alpha in np.linspace(math.pi / 2, math.pi, 5):
        z = unit_phase(float(alpha))
        d2 = float(np.max(np.abs(build_C(float(alpha), 2) - displayed_c2(z))))
        d3 = float(np.max(np.abs(build_C(float(alpha), 3) - displayed_c3(z))))
        worst = max(worst, d2, d3)
        assert d2 <= 1e-12 and d3 <= 1e-12, (alpha, d2, d3)
    report(2, f"displayed matrices at 5 angles, max diff {worst:.2e}")


def test_c03_block_construction_identity():
    rng = np.random.default_rng(RNG_SEED + 3)
    worst = 0.0
    for n in range(1, 11):
        for alpha in rng.uniform(math.pi / 2, math.pi, 20):
            diff = float(np.max(np.abs(build_C_block(alpha, n) - build_C(alpha, n))))
            worst = max(worst, diff)
            assert diff <= 1e-12, (n, alpha, diff)
    report(3, f"block assembly vs direct rows, N<=10, max diff {worst:.2e}")


def test_c04_rank_property():
    for n in range(1, 11):
        for alpha in np.linspace(math.pi / 2, math.pi, 25):
            s = np.linalg.svd(build_C(float(alpha), n), compute_uv=False)
            rank = int(np.sum(s > 1e-9 * s[0]))
            assert rank == n + 1, (n, alpha, rank)
    report(4, "numerical rank is N+1 on a 25-point angle grid, N<=10")


def test_c05_catalog_verification():
    worst_res = 0.0
    worst_min = 0.0
    for n in range(1, 11):
        samples = interval_samples(n, 20)
        assert samples[0] == alpha_interval(n)[0]
        for alpha in samples:
            rep = verify_catalog_entry(n, float(alpha))
            worst_res = max(worst_res, rep.residual_inf)
            worst_min = min(worst_min, rep.min_entry)
            assert rep.passed, (n, alpha, rep)
            assert rep.residual_inf <= 1e-9 and rep.min_entry >= -1e-12, (n, alpha, rep)
    report(5, f"catalog residual <= 1e-9 (worst {worst_res:.2e}), "
              f"min entry >= -1e-12 (worst {worst_min:.2e})")


def test_c06_necessity_certificates():
    started = time.perf_counter()
    worst = None
    for n in range(2, 11):
        rows = necessity_scan(n, 50)
        assert len(rows) == 50
        for row in rows:
            assert row["outcome"] == "certificate", (n, row)
            assert row["verified"] and not row["anomaly"], (n, row)
            assert row["margin"] >= 1e-8, (n, row)
            worst = row["margin"] if worst is None else min(worst, row["margin"])
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"necessity scan took {elapsed:.1f}s"
    report(6, f"450 verified certificates, min margin {worst:.2e}, {elapsed:.1f}s")


def test_c07_threshold_agreement():
    worst = 0.0
    for n in range(1, 11):
        estimate = threshold_bisect(n, 1e-6)
        err = abs(estimate.alpha_star - estimate.conjectured)
        worst = max(worst, err)
        assert err <= 1e-5, (n, estimate)
    report(7, f"bisection vs conjectured threshold, N<=10, max error {worst:.2e}")


def test_c08_symmetry_suite():
    rng = np.random.default_rng(RNG_SEED + 8)
    # reversal preserves real null membership; at order 1 a real null
    # vector only exists where the system itself is real
    for n in range(1, 6):
        alpha = math.pi if n == 1 else 2.0
        a = kron_power(a_alpha(alpha, MatrixForm.REDUCED), n)
        stacked = np.vstack([a.real, a.imag])
        _, s, vt = np.linalg.svd(stacked, full_matrices=True)
        rank = int(np.sum(s > 1e-10 * s[0]))
        basis = vt[rank:]
        assert len(basis) > 0
        for _ in range(10):
            x = rng.standard_normal(len(basis)) @ basis
            flipped = reverse_conjugate(x)
            scale = max(1.0, float(np.max(np.abs(x))))
            assert float(np.max(np.abs(a @ flipped))) <= 1e-11 * scale, (n,)
    # averaging is a projection onto orbit-constant vectors
    for n in range(1, 5):
        for _ in range(5):
            y = rng.standard_normal(p_count(n))
            x = expand(y)
            assert_allclose(symmetrize_permutation(x), x, atol=1e-13)
            raw = rng.standard_normal(3**n)
            averaged = symmetrize_permutation(raw)
            assert_allclose(symmetrize_permutation(averaged), averaged, atol=1e-13)
            cols = np.asarray(column_positions(n))
            sums_raw = np.bincount(cols, weights=raw, minlength=p_count(n))
            sums_avg = np.bincount(cols, weights=averaged, minlength=p_count(n))
            assert_allclose(sums_avg, sums_raw, atol=1e-12)
    report(8, "reversal keeps real null vectors null (N<=5); "
              "orbit averaging is an orbit-sum-preserving projection (N<=4)")


def test_c09_padding_lifts_solutions():
    worst = 0.0
    for n in range(1, 10):
        for alpha in interval_samples(n, 3):
            base = verify_catalog_entry(n, float(alpha))
            assert base.passed
            padded = pad_solution(explicit_nns(n, float(alpha)))
            rep = verify_vector(padded, float(alpha), n + 1)
            worst = max(worst, rep.residual_inf)
            assert rep.passed, (n, alpha, rep)
            assert rep.residual_inf <= 1e-9 and rep.min_entry >= -1e-12, (n, alpha, rep)
    report(9, f"padded solutions verify one order up, worst residual {worst:.2e}")


def test_c10_channel_realization():
    rng = np.random.default_rng(RNG_SEED + 10)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(1, 6))
        mats = random_span_set(rng, dim, count)
        pair = realize_channels(extract_basis(mats))
        ok_e, defect_e = verify_kraus(pair.e_ops)
        ok_f, defect_f = verify_kraus(pair.f_ops)
        worst = max(worst, defect_e, defect_f)
        assert ok_e and ok_f, (dim, count, defect_e, defect_f)
        assert defect_e <= 1e-10 and defect_f <= 1e-10, (dim, count, defect_e, defect_f)
        assert span_equality(pair.e_ops, pair.f_ops, mats), (dim, count)
    report(10, f"100 random spans realized, worst completeness defect {worst:.2e}")
