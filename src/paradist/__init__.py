"""Symmetry-reduced tensor-power linear systems and nonnegative feasibility
for parallel distinguishability of quantum operations."""

__version__ = "0.1.0"

from .catalog import (
    AlphaOutOfInterval,
    VerificationReport,
    alpha_interval,
    conjectured_threshold,
    explicit_nns,
    pad_solution,
    quadrant_of,
    verify_catalog_entry,
    verify_vector,
)
from .channels import (
    AllZero,
    KrausPair,
    ShapeMismatch,
    extract_basis,
    realize_channels,
    span_equality,
    verify_kraus,
)
from .feasibility import (
    Certificate,
    FeasibilityOutcome,
    Indeterminate,
    NonMonotonePredicate,
    ThresholdEstimate,
    Witness,
    necessity_scan,
    nns_exists,
    realize,
    threshold_bisect,
    verify_certificate,
)
from .labels import (
    column_order,
    label_orbit,
    linear_to_ternary,
    orbit_size,
    p_count,
    ternary_to_linear,
)
from .symmetry import (
    LengthNotPowerOfThree,
    NonRealInput,
    NotOrbitConstant,
    expand,
    palindrome_check,
    reduce,
    reverse_conjugate,
    symmetrize_permutation,
)
from .tensor import (
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
)

__all__ = [name for name in dir() if not name.startswith("_")]
