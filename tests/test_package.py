import importlib
import inspect
import pkgutil

import paradist

# every knob of the package: the defaulted (and catch-all) parameters of the
# functions defined in its modules, pinned by name so that a new knob is a
# deliberate change to this table
KNOBS = {
    "cli.main": ["argv"],
    "feasibility.threshold_bisect": ["tol_alpha"],
    "nnls.nnls": ["max_outer"],
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
    assert sum(len(knobs) for knobs in KNOBS.values()) == 4
