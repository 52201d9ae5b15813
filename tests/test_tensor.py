import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import displayed_b2, displayed_b3, displayed_c2, displayed_c3
from paradist import tensor
from paradist.catalog import conjectured_threshold
from paradist.labels import binary_labels, column_order, orbit_sizes, p_count
from paradist.tensor import (
    MatrixForm,
    SizeExceeded,
    a_alpha,
    b_entry_closed_form,
    build_B,
    build_C,
    build_C_block,
    build_Q,
    d_diag,
    gamma,
    kron_power,
    matrix_from_json,
    matrix_to_json,
    unit_phase,
)

ALPHAS = np.linspace(math.pi / 2, math.pi, 5)


def test_a_alpha_at_pi():
    assert_allclose(a_alpha(math.pi, MatrixForm.ORIGINAL),
                    [[1, -1, 0], [0, 1, -1]], atol=1e-15)


def test_a_alpha_reduced_at_half_pi():
    assert_allclose(a_alpha(math.pi / 2, MatrixForm.REDUCED),
                    [[1, 0, 1], [0, 1, 1j]], atol=1e-15)


def test_reduced_is_row_operation_of_original(rng):
    for alpha in rng.uniform(0, 2 * math.pi, 10):
        z = unit_phase(alpha)
        left = np.array([[1, -z], [0, 1]])
        assert_allclose(a_alpha(alpha, MatrixForm.REDUCED),
                        left @ a_alpha(alpha, MatrixForm.ORIGINAL), atol=1e-14)


def test_kron_power_identity():
    assert_allclose(kron_power(np.eye(2), 3), np.eye(8), atol=0)


def test_kron_power_single():
    a = a_alpha(math.pi, MatrixForm.ORIGINAL)
    assert_allclose(kron_power(a, 1), a, atol=0)


def test_kron_power_entry_formula(rng):
    alpha = 2.3
    a = a_alpha(alpha, MatrixForm.REDUCED)
    big = kron_power(a, 3)
    for row, bits in enumerate(binary_labels(3)):
        for _ in range(10):
            digits = tuple(rng.integers(0, 3, 3))
            col = sum(d * 3 ** (2 - p) for p, d in enumerate(digits))
            expected = math.prod((a[b, d] for b, d in zip(bits, digits)), start=1 + 0j)
            assert_allclose(big[row, col], expected, atol=1e-15)


def test_kron_power_budget():
    with pytest.raises(SizeExceeded):
        kron_power(a_alpha(1.0, MatrixForm.REDUCED), 12)


def test_build_q_order_one():
    assert_allclose(build_Q(1), [[1, 0, 0], [0, 0, 1], [0, 1, 0]], atol=0)


def test_build_q_column_sums_are_orbit_sizes():
    q = build_Q(3)
    assert_allclose(q.sum(axis=0), (1, 3, 3, 1, 3, 6, 3, 3, 3, 1), atol=0)
    assert_allclose(q.sum(axis=0), orbit_sizes(3), atol=0)


def test_build_q_row_sums_one():
    for n in (1, 2, 4):
        assert_allclose(build_Q(n).sum(axis=1), 1.0, atol=0)


def test_closed_form_entries():
    z = unit_phase(1.1)
    assert_allclose(b_entry_closed_form(3, 1, (2, 1, 0), 1.1), 1.0, atol=1e-15)
    assert_allclose(b_entry_closed_form(3, 0, (2, 0, 1), 1.1), -3 * z**2, atol=1e-14)
    assert_allclose(b_entry_closed_form(2, 2, (0, 1, 1), 1.1), 2 * z, atol=1e-14)


def test_build_b_matches_displays():
    for alpha in ALPHAS:
        z = unit_phase(alpha)
        assert_allclose(build_B(alpha, 2), displayed_b2(z), atol=1e-12)
        assert_allclose(build_B(alpha, 3), displayed_b3(z), atol=1e-12)


def test_build_b_equals_kron_times_selector(rng):
    for n in range(1, 6):
        for alpha in rng.uniform(math.pi / 2, math.pi, 3):
            direct = kron_power(a_alpha(alpha, MatrixForm.REDUCED), n) @ build_Q(n)
            assert_allclose(build_B(alpha, n), direct, atol=1e-12)


def test_build_b_row_orbit_property():
    for n in range(1, 7):
        b = build_B(1.9, n)
        ones = [sum(bits) for bits in binary_labels(n)]
        for row, j in enumerate(ones):
            ref = 2**j - 1  # the row labeled 0..01..1 with j trailing ones
            assert_allclose(b[row], b[ref], atol=0)


def test_build_c_matches_displays():
    for alpha in ALPHAS:
        z = unit_phase(alpha)
        assert_allclose(build_C(alpha, 2), displayed_c2(z), atol=1e-12)
        assert_allclose(build_C(alpha, 3), displayed_c3(z), atol=1e-12)


def test_build_c_equals_closed_form_bitwise():
    # the entry-by-entry closed form is the reference; bytes also pin the
    # sign of every zero, which the JSON reports print
    for n in range(1, 13):
        alphas = [*np.linspace(math.pi / 2, math.pi, 7), 2.3, conjectured_threshold(n) - 1e-3]
        for alpha in alphas:
            expected = np.array([[b_entry_closed_form(n, j, label, alpha) for label in column_order(n)]
                                 for j in range(n + 1)], dtype=complex)
            assert build_C(alpha, n).tobytes() == expected.tobytes(), (n, alpha)


def test_row_tables_are_read_only():
    for table in tensor._row_tables(5):
        with pytest.raises(ValueError):
            table[0] = 0


def test_build_c_returns_fresh_writable_array():
    held = build_C(2.0, 4)
    held.setflags(write=False)  # as `feasibility` freezes the C it holds
    fresh = build_C(2.0, 4)
    assert fresh.flags.writeable
    fresh[0, 0] = 7.0
    assert build_C(2.0, 4)[0, 0] == 1.0


def test_build_c_rows_are_trailing_one_rows_of_b():
    for n in range(1, 7):
        b = build_B(2.0, n)
        c = build_C(2.0, n)
        for j in range(n + 1):
            assert_allclose(c[j], b[2**j - 1], atol=0)


def test_gamma_values():
    alpha = 1.7
    z = unit_phase(alpha)
    g2 = gamma(2, alpha)
    assert_allclose(g2[0], [1, -2 * z**2, z**4], atol=1e-14)
    assert_allclose(gamma(0, alpha), [[1.0]], atol=0)
    for n in range(5):
        gn = gamma(n, alpha)
        assert_allclose(np.diag(gn), [z**k for k in range(n + 1)], atol=1e-13)
        assert_allclose(gn, np.triu(gn), atol=0)


def test_d_diag_values():
    assert_allclose(d_diag(3, 1), np.diag([1.0, 2.0, 3.0]), atol=0)
    assert_allclose(d_diag(2, 2), np.diag([1.0]), atol=0)
    assert_allclose(d_diag(4, 2), np.diag([1.0, 3.0, 6.0]), atol=0)


def test_block_construction_matches_direct(rng):
    for n in range(1, 7):
        for alpha in rng.uniform(math.pi / 2, math.pi, 4):
            assert_allclose(build_C_block(alpha, n), build_C(alpha, n), atol=1e-12)


def test_rank_is_order_plus_one():
    for n in range(1, 7):
        for alpha in np.linspace(math.pi / 2, math.pi, 7):
            c = build_C(alpha, n)
            s = np.linalg.svd(c, compute_uv=False)
            assert np.sum(s > 1e-9 * s[0]) == n + 1


def test_leading_block_upper_triangular():
    for n in range(1, 8):
        c = build_C(2.1, n)
        lead = c[:, :n + 1]
        assert_allclose(lead, np.triu(lead), atol=0)
        assert np.all(np.abs(np.diag(lead)) > 0.9)


def test_forms_share_null_space(rng):
    n = 3
    alpha = 2.4
    orig = kron_power(a_alpha(alpha, MatrixForm.ORIGINAL), n)
    red = kron_power(a_alpha(alpha, MatrixForm.REDUCED), n)
    left = np.array([[1, -unit_phase(alpha)], [0, 1]])
    lk = kron_power(left, n)
    bound = np.linalg.norm(lk, 2)
    bound_inv = np.linalg.norm(np.linalg.inv(lk), 2)
    for _ in range(5):
        x = rng.standard_normal(3**n) + 1j * rng.standard_normal(3**n)
        r_orig = np.linalg.norm(orig @ x)
        r_red = np.linalg.norm(red @ x)
        assert r_red <= bound * r_orig + 1e-12
        assert r_orig <= bound_inv * r_red + 1e-12


def test_matrix_json_round_trip():
    m = build_C(2.2, 3)
    again = matrix_from_json(matrix_to_json(m))
    assert_allclose(again, m, atol=0)
    assert matrix_to_json(m)["rows"] == 4
    assert matrix_to_json(m)["cols"] == p_count(3)


@pytest.mark.parametrize("name, n", [
    ("c_order2_alpha_3pi4", 2),
    ("c_order3_alpha_2pi3", 3),
])
def test_golden_files(name, n):
    import json
    from pathlib import Path

    doc = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    frozen = matrix_from_json(doc["matrix"])
    built = build_C(doc["alpha"], n)
    assert_allclose(built, frozen, atol=1e-12)
    assert matrix_to_json(built)["rows"] == doc["matrix"]["rows"]


def test_order_validation():
    with pytest.raises(ValueError):
        build_C(2.0, 0)
    with pytest.raises(ValueError):
        build_B(2.0, 13)
