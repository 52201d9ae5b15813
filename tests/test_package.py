import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paradist
from paradist.feasibility import Certificate, Indeterminate, Witness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# every knob of the package: the defaulted (and catch-all) parameters of the
# functions defined in its modules, pinned by name so that a new knob is a
# deliberate change to this table
KNOBS = {
    "cli.main": ["argv"],
    "feasibility.threshold_bisect": ["tol_alpha"],
    "tensor.a_alpha": ["form"],
}


def package_functions():
    """(module.name, function) for every function a paradist module defines,
    cached ones unwrapped."""
    for info in pkgutil.iter_modules(paradist.__path__):
        module = importlib.import_module(f"paradist.{info.name}")
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{info.name}.{name}", fn


def test_package_has_no_dead_knobs():
    found = {}
    for name, fn in package_functions():
        params = inspect.signature(fn).parameters.values()
        knobs = [p.name for p in params
                 if p.default is not p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
        if knobs:
            found[name] = knobs
    assert found == KNOBS
    assert sum(len(knobs) for knobs in KNOBS.values()) == 3


def test_one_least_squares_routine():
    # every least-squares solve goes through the engine's Householder QR;
    # LAPACK's SVD-based gelsd (`np.linalg.lstsq`) stays out of the package
    for path in sorted(Path(paradist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert "lstsq" not in names, path.name


def _callers(name):
    """module.function (or module.<module>) for every top-level definition in
    the package that calls `name`, bare or as an attribute."""
    callers = set()
    for path in sorted(Path(paradist.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                      for node in ast.walk(top) if isinstance(node, ast.Call)}
            if name in called:
                callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return callers


def _readers(name):
    """module.function (or module.<module>) for every top-level definition
    in the package that reads the global `name`."""
    readers = set()
    for path in sorted(Path(paradist.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                   for node in ast.walk(top)):
                readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return readers


def test_one_catalog_plan():
    # the integer tables become arithmetic in one plan, which the one-angle
    # walk and the stack pass both read, and padding comes from one routine
    assert _readers("_TABLES") == {"catalog._grid_plan"}
    assert _callers("_grid_plan") == {"catalog._solution", "catalog.catalog_solutions"}
    assert _callers("_pad_plan") == {"catalog._grid_plan", "catalog.pad_solution"}
    for name in ("_one_angle_plan", "_padded", "_pad_map"):
        assert not hasattr(paradist.catalog, name), name


def test_one_catalog_order_rule():
    # `catalog_order` is the one statement of the rule that maps an angle to
    # its catalog order: the stack pass and the decision's lone angle take
    # each angle's order from it, and no vectorized copy of the rule, per-top
    # endpoint table or second layout of the plan is left
    assert _callers("catalog_order") == {"catalog.in_interval", "catalog.catalog_solutions",
                                         "feasibility._decide"}
    text = Path(paradist.catalog.__file__).read_text(encoding="utf-8")
    for name in ("searchsorted", "_catalog_ends", "_rows"):
        assert name not in text, name


@pytest.mark.parametrize("n", range(1, 13))
def test_cached_tables_are_read_only(n):
    # every table a module caches is read-only, marked so by one helper
    catalog, feasibility = paradist.catalog, paradist.feasibility
    starts, index, values, walks = catalog._grid_plan(n)
    tables = [*paradist.tensor._row_tables(n), *feasibility._chain_tables(n),
              starts, index, values, *(walk[0] for walk in walks[1:]),
              *(a for k in range(1, min(n, 10) + 1) for a in catalog._pad_plan(k, n)),
              paradist.labels.column_positions(n),
              *(cols for _, _, cols in feasibility._support_columns(n))]
    assert not any(table.flags.writeable for table in tables)
    assert all(type(column) is tuple for walk in walks[1:] for column in walk[1:])
    assert _callers("setflags") == {"labels.read_only"}


def test_one_certificate_construction():
    # certificates come from the necessity proof's chain alone, wrapped in
    # one place; the chain judges its links on C itself, and the generic
    # rule judges every link handed in, whoever proposed it
    assert _callers("Certificate") == {"feasibility._decide"}
    assert _callers("_separation") == {"feasibility.verify_certificate"}


def test_one_decision_order():
    # one routine, over a stack of angles, tries the closed form, the
    # support table, the proof's chain and the projection, in that order,
    # for every report and every threshold probe; `nns_exists` is its
    # one-angle case, and a grid goes to it whole, which it decides in
    # stacks by calling itself.  A certificate is the chain's own arrays,
    # with no link objects
    for piece in ("_closed_form", "_support_witnesses", "_chain", "Certificate", "_project"):
        assert _callers(piece) == {"feasibility._decide"}, piece
    assert _callers("nnls") == {"feasibility._project"}
    assert _callers("_decide") == {"feasibility._decide", "feasibility.nns_exists",
                                   "feasibility.necessity_scan", "cli._cmd_sweep"}
    assert _callers("nns_exists") == {"feasibility.threshold_bisect", "cli._cmd_feasibility"}
    for piece in ("build_C", "realize", "_separation", "_witness"):
        assert "feasibility.threshold_bisect" not in _callers(piece), piece
    assert "Step" not in paradist.__all__
    assert not hasattr(paradist.feasibility, "Step")
    assert "feasibility.nns_exists" not in KNOBS
    assert sum(len(knobs) for knobs in KNOBS.values()) == 3


def test_one_system_forms():
    # a lone angle is judged by the same stages in their one-system forms,
    # all reached from the decision, which tests a stack's size once: the
    # stacked stages keep no branch for a stack of one, and `_witness` stays
    # the one witness rule, called by the witness stages and never by the
    # threshold search
    assert _callers("_lone_chain") == {"feasibility._decide"}
    assert _callers("_link_rows") == {"feasibility._chain", "feasibility._lone_chain"}
    assert _callers("_witness") == {"feasibility._decide", "feasibility._project"}


def test_stages_that_judge_m_embed_it():
    # `_decide` hands every stage C alone; the two stages that judge the
    # real embedding M make it from the rows they judge
    assert _callers("_embed") == {"feasibility.realize", "feasibility._project",
                                  "feasibility._support_witnesses"}


def test_one_stack_builder():
    # every system `feasibility` builds comes from the stack builder: the
    # decision's stacks in one call each, and `realize`'s lone system as a
    # stack of one; no second builder is in reach, and no helper copies
    # systems into a new stack
    assert _callers("build_C_stack") == {"feasibility._decide", "feasibility.realize"}
    for name in ("build_C", "_build", "_stack"):
        assert not hasattr(paradist.feasibility, name), name


@pytest.mark.parametrize("n", [4, 12])
def test_stages_judge_views_of_the_built_stack(monkeypatch, n):
    # on an ascending grid the systems each stage judges run consecutively,
    # so every witness rule and the chain are handed a view of the one built
    # stack, and so is `_embed`, whose embedding only the support table and
    # the projection judge; a copy fails here.  At n = 12 the grid reaches
    # the support table too
    feasibility = paradist.feasibility
    build, witnesses = feasibility.build_C_stack, feasibility._witnesses
    chain, embed = feasibility._chain, feasibility._embed
    built, judged, chained = [], [], []
    monkeypatch.setattr(feasibility, "build_C_stack",
                        lambda alphas, n: built.append(build(alphas, n)) or built[-1])
    monkeypatch.setattr(feasibility, "_witnesses", lambda c, y: judged.append(c) or witnesses(c, y))
    monkeypatch.setattr(feasibility, "_chain",
                        lambda c, alphas, n: chained.append(c) or chain(c, alphas, n))
    monkeypatch.setattr(feasibility, "_embed", lambda c: judged.append(c) or embed(c))
    feasibility._decide(np.linspace(np.pi / 2, np.pi, 120).tolist(), n)
    assert len(built) == 1 and len(chained) == 1 and len(judged) >= 1
    assert all(np.shares_memory(c, built[0]) for c in judged + chained)


def test_no_private_numpy():
    # the projection solves through numpy's public `qr` and `solve`; no
    # module reaches into the private `numpy.linalg._umath_linalg`
    users = {path.name for path in Path(paradist.__file__).parent.glob("*.py")
             if "_umath_linalg" in path.read_text(encoding="utf-8")}
    assert users == set()


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps these functions by name; a rename or a
    # deletion must fail here rather than in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


@pytest.mark.parametrize("cls", [Witness, Certificate, Indeterminate])
def test_outcome_class_name_is_its_kind(cls):
    # the tracer names a decision's outcome by its lower-cased class name
    assert cls.__name__.lower() == cls.kind


# the package's exports, recorded before they loaded lazily, under their
# home modules; each submodule is exported as itself
EXPORTS = {
    "catalog": ["AlphaOutOfInterval", "VerificationReport", "alpha_interval",
                "conjectured_threshold", "explicit_nns", "pad_solution", "quadrant_of",
                "verify_catalog_entry", "verify_vector"],
    "channels": ["AllZero", "KrausPair", "ShapeMismatch", "extract_basis", "realize_channels",
                 "span_equality", "verify_kraus"],
    "feasibility": ["Certificate", "FeasibilityOutcome", "Indeterminate", "NonMonotonePredicate",
                    "ThresholdEstimate", "Witness", "necessity_scan", "nns_exists", "realize",
                    "threshold_bisect", "verify_certificate"],
    "labels": ["column_order", "label_orbit", "linear_to_ternary", "orbit_size", "p_count",
               "ternary_to_linear"],
    "symmetry": ["LengthNotPowerOfThree", "NonRealInput", "NotOrbitConstant", "expand",
                 "palindrome_check", "reduce", "reverse_conjugate", "symmetrize_permutation"],
    "tensor": ["MatrixForm", "SizeExceeded", "a_alpha", "b_entry_closed_form", "build_B",
               "build_C", "build_C_block", "build_Q", "d_diag", "gamma", "kron_power",
               "matrix_from_json", "matrix_to_json"],
}
SUBMODULES = ["catalog", "channels", "feasibility", "labels", "nnls", "supports", "symmetry",
              "tensor"]


def _fresh(code):
    """Run `code` in a fresh interpreter that imports paradist from this
    checkout and return what it prints, parsed as JSON."""
    src = str(Path(paradist.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_export_contract():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(paradist.__all__) == sorted(names + SUBMODULES)
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"paradist.{home}")
        for name in names:
            assert getattr(paradist, name) is getattr(module, name), name
    for name in SUBMODULES:
        assert getattr(paradist, name) is importlib.import_module(f"paradist.{name}")
    with pytest.raises(AttributeError):
        getattr(paradist, "no_such_name")


def test_lazy_exports_resolve_once():
    # the first access stores the home module's object in the package, so
    # every later lookup is a plain module attribute
    homes = {"threshold_bisect": "feasibility", "Certificate": "feasibility",
             "orbit_size": "labels"}
    stored = _fresh(
        f"import importlib, json, paradist\nhomes = {homes!r}\n"
        "before = [name in vars(paradist) for name in homes]\n"
        "got = {name: getattr(paradist, name) for name in homes}\n"
        "print(json.dumps([before, [vars(paradist)[name] is got[name] is getattr("
        "importlib.import_module('paradist.' + home), name) for name, home in homes.items()]]))")
    assert stored == [[False] * 3, [True] * 3]


def test_import_loads_channels_and_numpy():
    # the benchmark's tracer times `import paradist` by the lines of
    # `paradist.channels` and numpy in `python -X importtime`, so the package
    # loads both at import; everything else loads on first use.  The support
    # table is numpy alone, so no scipy is loaded
    loaded = _fresh("import json, sys, paradist; print(json.dumps(sorted(m for m in sys.modules "
                    "if m.partition('.')[0] in ('paradist', 'numpy', 'scipy'))))")
    assert [m for m in loaded if m.startswith("paradist")] == ["paradist", "paradist.channels"]
    assert "numpy" in loaded
    assert not [m for m in loaded if m.partition(".")[0] == "scipy"]


_BASE = ["paradist.channels", "paradist.cli", "paradist.labels", "paradist.tensor"]
_DECIDE = sorted(_BASE + ["paradist.catalog", "paradist.feasibility", "paradist.nnls"])


@pytest.mark.parametrize("argv, modules", [
    pytest.param(["build", "--n", "3", "--pi-frac", "3/4", "--emit", "C"], _BASE, id="build"),
    pytest.param(["realize", "--random-dim", "2", "--seed", "1"], _BASE, id="realize"),
    pytest.param(["verify-catalog", "--n", "3", "--samples", "2"],
                 sorted(_BASE + ["paradist.catalog"]), id="verify-catalog"),
    pytest.param(["feasibility", "--n", "4", "--pi-frac", "3/4"], _DECIDE, id="feasibility"),
    pytest.param(["threshold", "--n", "2", "--tol", "1e-3"], _DECIDE, id="threshold"),
    pytest.param(["sweep", "--n", "4", "--points", "3"], _DECIDE, id="sweep"),
    pytest.param(["necessity", "--n", "4", "--points", "2"], _DECIDE, id="necessity"),
    # between conj(11) and conj(10) the support table decides
    pytest.param(["feasibility", "--n", "11", "--alpha", "1.72"],
                 sorted(_DECIDE + ["paradist.supports"]), id="feasibility-n11"),
])
def test_commands_load_only_what_they_run(argv, modules):
    # a fresh `paradist` process imports only the modules its command runs,
    # and none of them needs `dataclasses`
    code, loaded, dataclasses = _fresh(
        "import contextlib, io, json, sys\nfrom paradist.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('paradist.')), "
        "'dataclasses' in sys.modules]))")
    assert code == 0
    assert loaded == modules
    assert not dataclasses


# every record the package returns, with a value for each of its fields
RECORDS = {
    "feasibility.Witness": {"y": np.ones(3) / 3, "residual": 0.0},
    "feasibility.Certificate": {"h": np.ones((1, 4)), "margins": np.ones(1)},
    "feasibility.ThresholdEstimate": {"order": 2, "alpha_star": 2.35, "bracket_width": 1e-6,
                                      "conjectured": 2.35},
    "catalog.VerificationReport": {"order": 2, "alpha": 2.4, "residual_inf": 0.0,
                                   "min_entry": 0.0, "nonneg": True, "nonzero": True},
    "channels.KrausPair": {"e_ops": [np.eye(2)], "f_ops": [np.eye(2)], "scale": 1.0, "rank": 1},
    "nnls.NnlsResult": {"y": np.ones(2), "residual": np.zeros(2), "rnorm": 0.0, "iterations": 1},
}


@pytest.mark.parametrize("record", RECORDS)
def test_records_are_immutable(record):
    home, _, name = record.partition(".")
    fields = RECORDS[record]
    made = getattr(importlib.import_module(f"paradist.{home}"), name)(**fields)
    for field, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(made, field, value)
