"""Symmetry-reduced tensor-power linear systems and nonnegative feasibility
for parallel distinguishability of quantum operations.

`import paradist` loads `channels`, and numpy with it.  Every other name
below loads its home module on first access (PEP 562) and is then kept in
the package, so a command imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# loaded at import: the benchmark times `import paradist` by the
# `paradist.channels` and `numpy` lines of `python -X importtime`
from . import channels

_EXPORTS = {
    "catalog": (
        "AlphaOutOfInterval", "VerificationReport", "alpha_interval", "conjectured_threshold",
        "explicit_nns", "pad_solution", "quadrant_of", "verify_catalog_entry", "verify_vector",
    ),
    "channels": (
        "AllZero", "KrausPair", "ShapeMismatch", "extract_basis", "realize_channels",
        "span_equality", "verify_kraus",
    ),
    "feasibility": (
        "Certificate", "FeasibilityOutcome", "Indeterminate", "NonMonotonePredicate",
        "ThresholdEstimate", "Witness", "necessity_scan", "nns_exists", "realize",
        "threshold_bisect", "verify_certificate",
    ),
    "labels": (
        "column_order", "label_orbit", "linear_to_ternary", "orbit_size", "p_count",
        "ternary_to_linear",
    ),
    "symmetry": (
        "LengthNotPowerOfThree", "NonRealInput", "NotOrbitConstant", "expand",
        "palindrome_check", "reduce", "reverse_conjugate", "symmetrize_permutation",
    ),
    "tensor": (
        "MatrixForm", "SizeExceeded", "a_alpha", "b_entry_closed_form", "build_B", "build_C",
        "build_C_block", "build_Q", "d_diag", "gamma", "kron_power", "matrix_from_json",
        "matrix_to_json",
    ),
}
_MODULES = ("catalog", "channels", "feasibility", "labels", "nnls", "supports", "symmetry",
            "tensor")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name):
    # stored in the package, which answers every later lookup itself
    if name in _MODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
