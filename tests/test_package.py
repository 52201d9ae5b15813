import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_one_certificate_construction():
    # certificates come from the necessity proof's chain alone, wrapped in
    # one place, and one rule judges every link, proposed or handed in
    assert _callers("Certificate") == {"feasibility._decide_stack"}
    assert _callers("_separation") == {"feasibility._chain", "feasibility.verify_certificate"}


def test_one_decision_order():
    # one routine, over a stack of angles, tries the closed form, the
    # support table, the proof's chain and the projection, in that order,
    # for every report and every threshold probe; `nns_exists` is its
    # one-angle case, and a grid goes to it whole.  A certificate is the
    # chain's own arrays, with no link objects
    for piece in ("_closed_form", "_support_witness", "_chain", "Certificate", "_project"):
        assert _callers(piece) == {"feasibility._decide_stack"}, piece
    assert _callers("_decide_stack") == {"feasibility._decide"}
    assert _callers("nnls") == {"feasibility._project"}
    assert _callers("_decide") == {"feasibility.nns_exists", "feasibility.necessity_scan",
                                   "cli._cmd_sweep"}
    assert _callers("nns_exists") == {"feasibility.threshold_bisect", "cli._cmd_feasibility"}
    for piece in ("_build", "build_C", "realize", "_separation", "_witness"):
        assert "feasibility.threshold_bisect" not in _callers(piece), piece
    assert "Step" not in paradist.__all__
    assert not hasattr(paradist.feasibility, "Step")
    assert "feasibility.nns_exists" not in KNOBS
    assert sum(len(knobs) for knobs in KNOBS.values()) == 3
    # the support table is numpy alone: importing the package loads no scipy
    src = str(Path(paradist.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import paradist, sys; print(sorted(m for m in sys.modules "
         "if m.partition('.')[0] == 'scipy'))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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
