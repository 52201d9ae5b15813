import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import paradist.cli as cli
import paradist.feasibility as feasibility
from paradist import __version__
from paradist.catalog import conjectured_threshold
from paradist.cli import build_parser, main
from paradist.feasibility import Indeterminate, Witness, nns_exists
from paradist.tensor import build_C, matrix_from_json

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"
_BELOW_N7 = repr(conjectured_threshold(7) - 1e-6)
_BUILD = ("build", "--n", "2", "--pi-frac", "3/4", "--emit")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def undecidable_below_threshold(monkeypatch):
    """Below the threshold, decide one complex row of 1e-7 entries at a
    1e-6 margin bar: a row-chain margin of about 2e-7, and no witness within
    1e-8 from the projection or the closed form, so the outcome is
    indeterminate.  Above the threshold the true system stays."""
    def system(alpha, n):
        if alpha > conjectured_threshold(n):
            return build_C(alpha, n)
        return np.full((1, 3), 1e-7 + 1e-7j)

    monkeypatch.setattr(feasibility, "build_C", system)
    monkeypatch.setattr(feasibility, "TOL_MARGIN", 1e-6)


def test_build_emits_reduced_system(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "2", "--pi-frac", "3/4", "--emit", "C")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == __version__
    matrix = matrix_from_json(payload["matrix"])
    assert_allclose(matrix, build_C(3 * math.pi / 4, 2), atol=0)


def test_build_matches_explicit_alpha(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "2", "--alpha", "2.356194490192345",
                           "--emit", "C")
    assert code == 0
    matrix = matrix_from_json(json.loads(out)["matrix"])
    assert_allclose(matrix, build_C(2.356194490192345, 2), atol=0)


def test_verify_catalog_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-catalog", "--n", "9", "--samples", "20")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 20
    assert all(r["passed"] for r in reports)
    assert all(r["version"] == __version__ for r in reports)


def test_feasibility_witness(capsys):
    code, out, _ = run_cli(capsys, "feasibility", "--n", "2", "--pi-frac", "7/8")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "witness"
    assert payload["residual"] <= 1e-8
    assert payload["tolerances"]["witness"] == 1e-8


def test_feasibility_certificate(capsys):
    code, out, _ = run_cli(capsys, "feasibility", "--n", "3", "--pi-frac", "9/16")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "certificate"
    assert payload["margin"] >= 1e-8


def test_sweep_schema_and_determinism(capsys):
    args = ("sweep", "--n", "2", "--points", "9")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code2, second, _ = run_cli(capsys, *args)
    assert code2 == 0
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0].startswith("# paradist")
    assert lines[1] == "alpha,n,outcome,metric"
    assert len(lines) == 11
    outcomes = {line.split(",")[2] for line in lines[2:]}
    assert outcomes <= {"witness", "certificate"}
    assert "witness" in outcomes and "certificate" in outcomes


def test_threshold_report(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "4", "--tol", "1e-6")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["alpha_star"] - 5 * math.pi / 8) <= 1e-5
    assert payload["bracket_width"] <= 1e-6
    assert_allclose(payload["conjectured"], 5 * math.pi / 8)


def test_necessity_report(capsys):
    code, out, _ = run_cli(capsys, "necessity", "--n", "3", "--points", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["anomalies"] == 0
    assert len(payload["rows"]) == 10


def test_necessity_at_order_twelve_is_decided(capsys):
    # every grid point below the threshold is certified by its row chain
    code, out, _ = run_cli(capsys, "necessity", "--n", "12", "--points", "30")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["outcome"] for row in rows] == ["certificate"] * 30
    assert all([step["row"] for step in row["steps"]] == list(range(13)) for row in rows)


def test_necessity_exits_indeterminate(capsys, undecidable_below_threshold):
    code, out, _ = run_cli(capsys, "necessity", "--n", "3", "--points", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["anomalies"] == 2
    assert [row["outcome"] for row in payload["rows"]] == ["indeterminate"] * 2


def test_necessity_witness_is_a_verification_failure(capsys, monkeypatch):
    # the feasible system at pi stands in for the one at every grid angle
    monkeypatch.setattr(feasibility, "build_C", lambda alpha, n: build_C(math.pi, n))
    code, out, _ = run_cli(capsys, "necessity", "--n", "3", "--points", "2")
    assert code == 1
    assert [row["outcome"] for row in json.loads(out)["rows"]] == ["witness"] * 2


# re-recorded when certificates became row chains: each row lists its links
def test_necessity_report_bytes(capsys):
    code, out, _ = run_cli(capsys, "necessity", "--n", "4", "--points", "12")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d05d5e204f6ff60dfc84881e01643d3c3c96939ee33c167722384f217fe1619")


@pytest.mark.parametrize("args", [
    ("feasibility", "--n", "4", "--pi-frac", "5/8"),
    ("sweep", "--n", "4", "--points", "5"),
    ("necessity", "--n", "4", "--points", "3"),
    ("threshold", "--n", "3"),
], ids=lambda args: args[0])
def test_every_command_builds_once_per_decision(capsys, monkeypatch, args):
    calls = {"build_C": 0, "nns_exists": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return original(*a, **kw)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(feasibility, "build_C"), (feasibility, "nns_exists"),
                         (cli, "nns_exists")]:
        counted(module, name)
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    # a threshold probe builds its system without calling nns_exists
    decisions = _bisection_probes(feasibility.TOL_ALPHA) if args[0] == "threshold" \
        else calls["nns_exists"]
    assert decisions > 0
    assert calls["build_C"] == decisions


def _bisection_probes(tol):
    """Probes of a threshold search: both endpoints, then one per halving
    of [pi/2 + 1e-4, pi] down to tol."""
    probes, width = 2, math.pi / 2 - 1e-4
    while width > tol:
        probes, width = probes + 1, width / 2
    return probes


def test_realize_random_requires_seed(capsys):
    code, _, err = run_cli(capsys, "realize", "--random-dim", "3")
    assert code == 64
    assert "seed" in err


def test_realize_random(capsys):
    code, out, _ = run_cli(capsys, "realize", "--random-dim", "3",
                           "--random-count", "4", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verification"]["kraus_ok"]
    assert payload["verification"]["span_ok"]
    assert payload["rank"] >= 1


def test_realize_from_file(tmp_path, capsys):
    z = np.exp(1j * 2.2)
    mats = [np.diag([1, z, 0]), np.diag([0, 1, z])]
    doc = {"matrices": [
        {"rows": 3, "cols": 3, "entries": np.stack(
            [m.real.ravel(), m.imag.ravel()], axis=1).ravel().tolist()}
        for m in mats]}
    path = tmp_path / "span.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "realize", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_size"] == 2
    assert payload["verification"]["span_ok"]


def test_realize_tiny_input(tmp_path, capsys):
    # entries far below 1e-154 still span, and realize, their own span
    doc = {"matrices": [{"rows": 2, "cols": 2, "entries": entries} for entries in (
        [1e-170, 0, 0, 0, 0, 0, 1e-170, 0], [0, 0, 1e-170, 0, 0, 0, 0, 0])]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "realize", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_size"] == 2
    assert payload["verification"]["kraus_ok"] and payload["verification"]["span_ok"]
    assert payload["verification"]["product_norm"] > 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "--n", "2", "--emit", "C"])  # missing alpha
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err2:
        main(["no-such-command"])
    assert err2.value.code == 64


def test_bad_pi_frac(capsys):
    code, _, err = run_cli(capsys, "build", "--n", "2", "--pi-frac", "x/y", "--emit", "C")
    assert code == 64
    assert "pi-frac" in err


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("args", [
    ("feasibility", "--n", "4", "--pi-frac", "3/0"),
    ("feasibility", "--n", "4", "--pi-frac", f"{_HUGE}/3"),
    ("build", "--n", "2", "--pi-frac", f"3/{_HUGE}", "--emit", "C"),
    ("feasibility", "--n", "4", "--alpha", "nan"),
    ("feasibility", "--n", "4", "--alpha", "inf"),
    ("threshold", "--n", "4", "--tol", "nan"),
    ("threshold", "--n", "4", "--tol", "inf"),
    ("build", "--n", "-5", "--pi-frac", "3/4", "--emit", "A"),
    ("build", "--n", "13", "--pi-frac", "3/4", "--emit", "A"),
    # negative values in space form are values, not options
    ("threshold", "--n", "4", "--tol", "-1e-6"),
    ("feasibility", "--n", "4", "--alpha", "-1e-3"),
    # counts and sizes each command checks itself
    ("verify-catalog", "--n", "3", "--samples", "0"),
    ("sweep", "--n", "2", "--points", "1"),
    ("necessity", "--n", "3", "--points", "-1"),
    ("necessity", "--n", "0", "--points", "2"),
    ("necessity", "--n", "13", "--points", "0"),
    ("realize", "--random-dim", "0", "--seed", "7"),
    ("realize", "--random-dim", "3"),
], ids=lambda args: " ".join(args).replace(_HUGE, "10**400"))
def test_usage_errors(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 64
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("paradist: error: ")


# every option of every command, pinned so that a new flag is a deliberate
# change to this table
OPTIONS = {
    "paradist": ["--version"],
    "build": ["--alpha", "--emit", "--form", "--n", "--output", "--pi-frac"],
    "verify-catalog": ["--n", "--output", "--samples"],
    "feasibility": ["--alpha", "--n", "--output", "--pi-frac"],
    "sweep": ["--alpha-max", "--alpha-min", "--n", "--output", "--points"],
    "threshold": ["--n", "--output", "--tol"],
    "necessity": ["--n", "--output", "--points"],
    "realize": ["--input", "--output", "--random-count", "--random-dim", "--seed"],
}


def _option_strings(parser):
    return sorted(option for action in parser._actions if action.dest != "help"
                  for option in action.option_strings)


def test_cli_option_surface():
    parser = build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    found = {"paradist": _option_strings(parser)}
    found.update((name, _option_strings(p)) for name, p in commands.choices.items())
    assert found == OPTIONS
    # the bars that decide an outcome are constants; only the threshold's
    # bracket width is a tolerance flag
    tolerance_flags = [(command, option) for command, options in OPTIONS.items()
                       for option in options if option.startswith("--tol")]
    assert tolerance_flags == [("threshold", "--tol")]


def test_catalog_orders_share_one_message(capsys):
    # one owner of the 1..10 limit, one message on every command that has it
    for command in ("threshold", "verify-catalog"):
        code, _, err = run_cli(capsys, command, "--n", "11")
        assert (code, err) == (64, "paradist: error: order must lie in 1..10, got 11\n")


def _one_matrix(rows=1, cols=1, entries=(1, 0)):
    return json.dumps({"matrices": [{"rows": rows, "cols": cols, "entries": entries}]})


@pytest.mark.parametrize("doc", [
    pytest.param("[1, 2]", id="list"),
    pytest.param('{"matrices": 5}', id="matrices-number"),
    pytest.param('{"matrices": [[1, 2]]}', id="matrices-of-lists"),
    pytest.param(_one_matrix(rows="a"), id="rows-string"),
    pytest.param(_one_matrix(rows=1.5), id="rows-float"),
    pytest.param(_one_matrix(cols=True), id="cols-bool"),
    pytest.param(_one_matrix(rows=0, entries=[]), id="rows-zero"),
    pytest.param(_one_matrix(entries=None), id="entries-null"),
    pytest.param(_one_matrix(entries=[1, 0, 0]), id="entries-too-many"),
    pytest.param(_one_matrix(entries=["1", 0]), id="entries-string"),
    pytest.param('{"matrices": [{"rows": 1, "cols": 1}]}', id="entries-missing"),
    pytest.param(_one_matrix(entries=[math.nan, 0]), id="entry-nan"),
    pytest.param('{"matrices": [{"rows": 1, "cols": 1, "entries": [1e400, 0]}]}',
                 id="entry-overflow"),
    pytest.param(_one_matrix(entries=[10**400, 0]), id="entry-int-overflow"),
])
def test_realize_rejects_malformed_input(tmp_path, capsys, doc):
    path = tmp_path / "span.json"
    path.write_text(doc)
    code, out, err = run_cli(capsys, "realize", "--input", str(path))
    assert code == 64
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("paradist: error: ")


def test_sweep_exits_indeterminate(capsys, undecidable_below_threshold):
    code, out, _ = run_cli(capsys, "sweep", "--n", "7", "--points", "2",
                           "--alpha-min", _BELOW_N7, "--alpha-max", repr(math.pi))
    assert code == 2
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert [(kind, metric == "nan") for _, _, kind, metric in rows] == [
        ("indeterminate", True), ("witness", False)]


@pytest.mark.parametrize("outcome, expected_code, prefix", [
    (Witness(y=np.ones(3) / 3, residual=0.0), 1, "paradist: verification failure: "),
    (Indeterminate("stuck"), 2, "paradist: indeterminate: "),
], ids=["non-monotone", "indeterminate"])
def test_threshold_failures_set_exit_code(capsys, monkeypatch, outcome, expected_code, prefix):
    # every probe the closed form leaves open, the left endpoint first, gets
    # the same outcome: a witness contradicts the infeasible left endpoint,
    # an indeterminate probe cannot be bracketed
    monkeypatch.setattr(feasibility, "_decide", lambda c, m: outcome)
    code, out, err = run_cli(capsys, "threshold", "--n", "3")
    assert (code, out) == (expected_code, "")
    assert err.count("\n") == 1 and err.startswith(prefix)


def test_output_file_and_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARADIST_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "threshold", "--n", "2", "--tol", "1e-4",
                           "--output", "report.json")
    assert code == 0
    assert out == ""
    payload = json.loads((tmp_path / "report.json").read_text())
    assert abs(payload["alpha_star"] - 3 * math.pi / 4) <= 1e-3


def test_sweep_rows_are_nns_exists_outcomes(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "4", "--points", "5")
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        alpha, n, kind, metric = line.split(",")
        outcome = nns_exists(float(alpha), 4)
        assert (int(n), kind, metric) == (4, outcome.kind, repr(outcome.metric))


@pytest.fixture(scope="module")
def schema_validators():
    """One validator per schema in docs/schemas, resolving `$ref`s through a
    registry keyed by each schema's `$id`."""
    jsonschema = pytest.importorskip("jsonschema")
    from referencing import Registry, Resource

    schemas = [json.loads(path.read_text(encoding="utf-8"))
               for path in sorted(SCHEMA_DIR.glob("*.schema.json"))]
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas)
    return {schema["$id"]: jsonschema.Draft7Validator(schema, registry=registry)
            for schema in schemas}



@pytest.mark.parametrize("schema_id, expected_code, kind, args, undecidable", [
    pytest.param("build-report", 0, None,
                 ("build", "--n", "2", "--pi-frac", "3/4", "--emit", "C"), False, id="build"),
    pytest.param("build-report", 0, None, (*_BUILD, "A"), False, id="build-A"),
    pytest.param("build-report", 0, None, (*_BUILD, "A", "--form", "original"), False,
                 id="build-A-original"),
    pytest.param("build-report", 0, None, (*_BUILD, "Q"), False, id="build-Q"),
    pytest.param("build-report", 0, None, (*_BUILD, "B"), False, id="build-B"),
    pytest.param("build-report", 0, None, (*_BUILD, "Cblock"), False, id="build-Cblock"),
    pytest.param("feasibility-outcome", 0, "witness",
                 ("feasibility", "--n", "2", "--pi-frac", "7/8"), False,
                 id="feasibility-witness"),
    pytest.param("feasibility-outcome", 0, "certificate",
                 ("feasibility", "--n", "3", "--pi-frac", "9/16"), False,
                 id="feasibility-certificate"),
    pytest.param("feasibility-outcome", 2, "indeterminate",
                 ("feasibility", "--n", "7", "--alpha", _BELOW_N7), True,
                 id="feasibility-indeterminate"),
    pytest.param("threshold-estimate", 0, None, ("threshold", "--n", "3"), False, id="threshold"),
    pytest.param("necessity-report", 0, None,
                 ("necessity", "--n", "3", "--points", "4"), False, id="necessity"),
    pytest.param("verify-catalog-report", 0, None,
                 ("verify-catalog", "--n", "3", "--samples", "3"), False, id="verify-catalog"),
    pytest.param("realize-report", 0, None,
                 ("realize", "--random-dim", "3", "--seed", "7"), False, id="realize"),
])
def test_json_output_matches_schema(capsys, request, schema_validators, schema_id, expected_code,
                                    kind, args, undecidable):
    if undecidable:
        request.getfixturevalue("undecidable_below_threshold")
    code, out, _ = run_cli(capsys, *args)
    assert code == expected_code
    payload = json.loads(out)
    errors = [error.message for error in
              schema_validators[f"paradist/{schema_id}/v1"].iter_errors(payload)]
    assert errors == []
    if kind is not None:
        assert payload["kind"] == kind
    # a certificate is a row chain, one link per row of C (n = 3 here)
    if kind == "certificate":
        assert [step["row"] for step in payload["steps"]] == [0, 1, 2, 3]
    if schema_id == "necessity-report":
        assert all([step["row"] for step in row["steps"]] == [0, 1, 2, 3]
                   for row in payload["rows"])
