"""The benchmark's three workloads: inputs drawn from a seed, one round of
work through paradist's public entry points, and the checks that classify
every operation of the round as decided, indeterminate or failed.

A round is the unit that is repeated and timed.  All rounds of one run use
the same inputs, so per-round counts repeat exactly and round times differ
only by machine noise; the seed changes the inputs from run to run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import paradist
import paradist.channels
import paradist.cli
from paradist.catalog import CATALOG_MAX_ORDER, conjectured_threshold
from paradist.feasibility import TOL_MARGIN, TOL_WITNESS

# acceptance bound C07 on |alpha* - pi/2 - pi/(2n)|
THRESHOLD_TOL = 1e-5
# mirrors the `paradist` console script (paradist.cli:main)
CLI_ENTRY = "import sys; from paradist.cli import main; sys.exit(main(sys.argv[1:]))"
SUBPROCESS_TIMEOUT_S = 120


@dataclass
class Tally:
    """Outcome counts of one round.

    Every failure is counted in ``failed``.  A failure also makes the run
    incorrect unless it contradicts only the conjecture, not a proven fact
    or a claim of the package (``tolerated``; see ``wrong_side_tolerated``).
    """

    attempted: int = 0
    failed: int = 0
    decided: int = 0
    indeterminate: int = 0
    reasons: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def fail(self, reason: str, count: int = 1, tolerated: bool = False) -> None:
        self.attempted += count
        self.failed += count
        self.reasons[reason] += count
        if not tolerated:
            self.problems.append(reason)

    def ok(self, decided: bool | None) -> None:
        """A checked operation: a decision (True), an indeterminate outcome
        (False), or an operation that decides nothing (None)."""
        self.attempted += 1
        if decided:
            self.decided += 1
        elif decided is not None:
            self.indeterminate += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.decided += other.decided
        self.indeterminate += other.indeterminate
        self.reasons.update(other.reasons)
        self.problems.extend(other.problems)


@dataclass(frozen=True)
class Context:
    root: Path  # checkout holding src/ and docs/schemas/
    scratch: Path  # where rounds may write files
    smoke: bool  # tiny sizes, for the harness's own smoke test
    validator: object  # (schema $id, payload) -> list of violations
    tick: object  # times the reference between two timed calls (see reference.py)


@dataclass
class Round:
    tally: Tally
    # (start, wall seconds, label) of each timed call into paradist; the
    # workload's tick runs between two calls, outside them
    pieces: list
    extra: dict = field(default_factory=dict)


def wrong_side_tolerated(n: int, outcome: str) -> bool:
    """Whether a wrong-side outcome leaves the run correct.

    Up to order 10 the catalog proves feasibility from pi/2 + pi/(2n) up
    to pi, so a certificate there is wrong.  Infeasibility below that angle
    is the paper's conjecture, so a witness there contradicts the
    conjecture (or is a false witness) but no proven fact.  Orders above 10
    are exploratory output of the package.
    """
    return n > CATALOG_MAX_ORDER or outcome == "witness"


def classify_outcome(tally: Tally, n: int, alpha: float, outcome: str, metric: float) -> None:
    """Check one decision against the side of pi/2 + pi/(2n) it falls on."""
    feasible_side = alpha >= conjectured_threshold(n)
    if outcome == "indeterminate":
        tally.ok(decided=False)
    elif outcome == "witness":
        if not feasible_side:
            tally.fail(f"witness below threshold n={n}",
                       tolerated=wrong_side_tolerated(n, outcome))
        elif not metric <= TOL_WITNESS:
            tally.fail(f"witness residual above bar n={n}")
        else:
            tally.ok(decided=True)
    elif outcome == "certificate":
        if feasible_side:
            tally.fail(f"certificate above threshold n={n}",
                       tolerated=wrong_side_tolerated(n, outcome))
        elif not metric >= TOL_MARGIN:
            tally.fail(f"certificate margin below bar n={n}")
        else:
            tally.ok(decided=True)
    else:
        tally.fail(f"unknown outcome {outcome!r} n={n}")


class Scan:
    """Grid scans of the decision: in-process `sweep` calls over the whole
    range [pi/2, pi] and over a window around the conjectured threshold,
    plus `necessity_scan`, at orders 4, 10 and 12."""

    name = "scan"
    unit = "round"
    per_piece = False  # a round is timed as a whole, not call by call
    ORDERS = (4, 10, 12)
    # the window around pi/2 + pi/(2n); at n = 12 it holds the false-witness
    # band between conj - 1.5e-3 and conj
    ZOOM_BELOW = 2e-3
    ZOOM_ABOVE = 1e-3

    def __init__(self, seed: int, ctx: Context):
        rng = random.Random(seed)
        full_points = 8 if ctx.smoke else 120
        zoom_points = 6 if ctx.smoke else 24
        necessity_points = 2 if ctx.smoke else 12
        # each grid is shifted by a seeded fraction of its spacing, so that the
        # seed moves the sample points but not how much of each region a
        # round covers
        self.sweeps = []
        for n in self.ORDERS:
            step = (math.pi / 2) / (full_points - 1)
            u = rng.random()
            self.sweeps.append((n, math.pi / 2 + u * step, math.pi - (1 - u) * step, full_points))
        for n in self.ORDERS:
            lo = conjectured_threshold(n) - self.ZOOM_BELOW
            shift = rng.random() * (self.ZOOM_BELOW + self.ZOOM_ABOVE) / (zoom_points - 1)
            self.sweeps.append((n, lo + shift, lo + shift + self.ZOOM_BELOW + self.ZOOM_ABOVE,
                                zoom_points))
        self.necessity = [(n, necessity_points) for n in self.ORDERS]
        self.csv_path = ctx.scratch / f"sweep-{seed}.csv"
        self.tick = ctx.tick

    def warm_up(self) -> None:
        self.run()

    def _sweep_argv(self, n: int, lo: float, hi: float, points: int) -> list:
        return ["sweep", "--n", str(n), "--points", str(points), "--alpha-min", repr(lo),
                "--alpha-max", repr(hi), "--output", str(self.csv_path)]

    def setup_code(self) -> str:
        return f"from paradist.cli import main; main({self._sweep_argv(*self.sweeps[0])!r})"

    def _sweep(self, tally: Tally, n: int, lo: float, hi: float, points: int) -> tuple:
        argv = self._sweep_argv(n, lo, hi, points)
        start = time.perf_counter()
        try:
            code = paradist.cli.main(argv)
        except Exception as exc:  # any exception fails every point of the call
            tally.fail(f"sweep n={n} raised {type(exc).__name__}", count=points)
            return start, time.perf_counter() - start
        piece = start, time.perf_counter() - start
        self._check_sweep(tally, n, points, code)
        return piece

    def _check_sweep(self, tally: Tally, n: int, points: int, code: int) -> None:
        lines = self.csv_path.read_text(encoding="utf-8").splitlines()
        rows = list(csv.reader(lines[2:]))
        if lines[1:2] != ["alpha,n,outcome,metric"] or len(rows) != points:
            tally.fail(f"sweep n={n} malformed csv", count=points)
            return
        expected = 2 if any(row[2] == "indeterminate" for row in rows) else 0
        if code != expected:
            tally.fail(f"sweep n={n} exit {code}", count=points)
            return
        for alpha, order, outcome, metric in rows:
            if int(order) != n:
                tally.fail(f"sweep n={n} row order {order}")
                continue
            classify_outcome(tally, n, float(alpha), outcome, float(metric))

    def _necessity(self, tally: Tally, n: int, points: int) -> tuple:
        start = time.perf_counter()
        try:
            rows = paradist.necessity_scan(n, points)
        except Exception as exc:
            tally.fail(f"necessity n={n} raised {type(exc).__name__}", count=points)
            return start, time.perf_counter() - start
        piece = start, time.perf_counter() - start
        if len(rows) != points:
            tally.fail(f"necessity n={n} returned {len(rows)} rows", count=points)
            return piece
        for row in rows:
            if row["alpha"] >= conjectured_threshold(n):
                tally.fail(f"necessity n={n} point above threshold")
            elif row["outcome"] == "indeterminate":
                tally.ok(decided=False)
            elif row["outcome"] == "witness":
                tally.fail(f"necessity witness n={n}",
                           tolerated=wrong_side_tolerated(n, "witness"))
            elif row["outcome"] == "certificate" and row["verified"]:
                tally.ok(decided=True)
            elif row["outcome"] == "certificate":
                tally.fail(f"necessity certificate not verified n={n}",
                           tolerated=n > CATALOG_MAX_ORDER)
            else:
                tally.fail(f"necessity n={n} unknown outcome {row['outcome']!r}")
        return piece

    def run(self) -> Round:
        tally = Tally()
        pieces = []
        calls = [(f"sweep n={sweep[0]}", functools.partial(self._sweep, tally, *sweep))
                 for sweep in self.sweeps]
        calls += [(f"necessity n={n}", functools.partial(self._necessity, tally, n, points))
                  for n, points in self.necessity]
        for label, call in calls:
            if pieces:
                self.tick()
            pieces.append((*call(), label))
        return Round(tally, pieces)

    def describe(self) -> str:
        sweeps = ", ".join(f"n={n} {p} pts [{lo:.6f}, {hi:.6f}]" for n, lo, hi, p in self.sweeps)
        nec = ", ".join(f"n={n} {p} pts" for n, p in self.necessity)
        return f"sweeps: {sweeps}; necessity: {nec}"


class Threshold:
    """Threshold searches: one pass runs `threshold_bisect(n)` for every
    order 1..10 at the default tolerance, in a seeded order."""

    name = "threshold"
    unit = "pass"
    per_piece = False

    def __init__(self, seed: int, ctx: Context):
        self.orders = list(range(1, 4 if ctx.smoke else 11))
        random.Random(seed).shuffle(self.orders)

    def warm_up(self) -> None:
        self.run()

    def setup_code(self) -> str:
        return "import paradist; paradist.threshold_bisect(4)"

    def run(self) -> Round:
        tally = Tally()
        err_max = 0.0
        start = time.perf_counter()
        for n in self.orders:
            try:
                estimate = paradist.threshold_bisect(n)
            except Exception as exc:
                tally.fail(f"threshold n={n} raised {type(exc).__name__}")
                continue
            err = abs(estimate.alpha_star - conjectured_threshold(n))
            err_max = max(err_max, err)
            if err > THRESHOLD_TOL:
                tally.fail(f"threshold n={n} off by {err:.2e}")
            else:
                tally.ok(decided=True)
        return Round(tally, [(start, time.perf_counter() - start, "pass")],
                     {"threshold_err_max": err_max})

    def describe(self) -> str:
        return f"orders {self.orders}, tol 1e-6"


@dataclass(frozen=True)
class Command:
    argv: list
    schema: str
    check: object  # payload -> str | None (the reason it is wrong)
    decides: bool


def _side_alpha(rng: random.Random, n: int, gap: float) -> tuple[float, str]:
    """A seeded angle at least ``gap`` away from the conjectured threshold,
    with the outcome kind expected there."""
    conj = conjectured_threshold(n)
    if rng.random() < 0.5:
        return rng.uniform(math.pi / 2 + gap, conj - gap), "certificate"
    return rng.uniform(conj + gap, math.pi), "witness"


class Cli:
    """One-off command-line calls: each command runs twice as a fresh
    `paradist` process, one after another, and the two outputs must match."""

    name = "cli"
    unit = "invocation"
    per_piece = True  # each invocation is a sample of its own

    def __init__(self, seed: int, ctx: Context):
        rng = random.Random(seed)
        self.root = ctx.root
        self.validator = ctx.validator
        self.tick = ctx.tick
        build_n, build_alpha = rng.randint(2, 6), rng.uniform(math.pi / 2, math.pi)
        samples = rng.randint(15, 25)
        commands = [Command(
            ["build", "--n", str(build_n), "--alpha", repr(build_alpha), "--emit", "C"],
            "paradist/build-report/v1",
            lambda p, n=build_n, a=build_alpha: _check_build(p, n, a), False)]
        for n, gap in ((4, 0.02), (10, 0.01)):
            alpha, kind = _side_alpha(rng, n, gap)
            commands.append(Command(
                ["feasibility", "--n", str(n), "--alpha", repr(alpha)],
                "paradist/feasibility-outcome/v1",
                lambda p, kind=kind: None if p["kind"] == kind else f"{p['kind']} where {kind} is due",
                True))
        commands.append(Command(
            ["verify-catalog", "--n", "9", "--samples", str(samples)],
            "paradist/verify-catalog-report/v1",
            lambda p, k=samples: None if len(p) == k and all(r["passed"] for r in p)
            else "catalog entry not verified", False))
        commands.append(Command(
            ["realize", "--random-dim", "3", "--random-count", str(rng.randint(2, 5)),
             "--seed", str(rng.randrange(1 << 31))],
            "paradist/realize-report/v1",
            lambda p: None if p["verification"]["kraus_ok"] and p["verification"]["span_ok"]
            else "realization not verified", False))
        commands.append(Command(
            ["threshold", "--n", "4"],
            "paradist/threshold-estimate/v1",
            lambda p: None if abs(p["alpha_star"] - conjectured_threshold(4)) <= THRESHOLD_TOL
            else "threshold off", True))
        self.commands = commands[:2] if ctx.smoke else commands
        self.env = subprocess_env(ctx.root)

    def setup_code(self) -> str:
        argv = self.commands[0].argv
        return (f"import contextlib, io; from paradist.cli import main\n"
                f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})")

    def _spawn(self, argv) -> tuple[int, str]:
        try:
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, ""
        return proc.returncode, proc.stdout

    @staticmethod
    def _in_process(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = paradist.cli.main(list(argv))
        return code, buf.getvalue()

    def _judge(self, tally: Tally, cmd: Command, code: int, out: str, first: str | None) -> None:
        label = cmd.argv[0]
        if code != 0:
            tally.fail(f"{label} exit {code}")
            return
        if first is not None and out != first:
            tally.fail(f"{label} stdout differs between identical runs")
            return
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            tally.fail(f"{label} stdout is not JSON")
            return
        if self.validator(cmd.schema, payload):
            tally.fail(f"{label} violates {cmd.schema}")
            return
        reason = cmd.check(payload)
        if reason:
            tally.fail(f"{label}: {reason}")
        else:
            tally.ok(decided=True if cmd.decides else None)

    def warm_up(self) -> None:
        for cmd in self.commands:
            self._spawn(cmd.argv)

    def run(self) -> Round:
        return self._round(self._spawn)

    def run_in_process(self) -> Round:
        """The same round through `paradist.cli.main` in this process, which
        is how the traced run sees inside the commands."""
        return self._round(self._in_process)

    def _round(self, launch) -> Round:
        tally = Tally()
        pieces = []
        for cmd in self.commands:
            first = None
            for _ in range(2):
                if pieces:
                    self.tick()
                start = time.perf_counter()
                try:
                    code, out = launch(cmd.argv)
                except Exception as exc:
                    tally.fail(f"{cmd.argv[0]} raised {type(exc).__name__}")
                    continue
                pieces.append((start, time.perf_counter() - start, cmd.argv[0]))
                self._judge(tally, cmd, code, out, first)
                first = out if first is None else first
        return Round(tally, pieces)

    def describe(self) -> str:
        return "; ".join(" ".join(cmd.argv) for cmd in self.commands)


def _check_build(payload: dict, n: int, alpha: float) -> str | None:
    matrix = paradist.matrix_from_json(payload["matrix"])
    if not np.array_equal(matrix, paradist.build_C(alpha, n)):
        return "matrix differs from build_C"
    return None


def subprocess_env(root: Path) -> dict:
    """The environment of a fresh interpreter that imports paradist from
    the checkout's src/."""
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def schema_validator(schema_dir: Path):
    """Validate payloads against docs/schemas/*.json, looked up by `$id`.

    The schemas refer to the matrix schema by the relative `$ref`
    "paradist/matrix/v1".  Resolved against the referring schema's `$id`
    it becomes e.g. "paradist/build-report/paradist/matrix/v1", which no
    schema declares, so standard resolution fails.  Unknown URIs therefore
    fall back to the schema whose `$id` ends them.
    """
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource
    from referencing.exceptions import NoSuchResource
    from referencing.jsonschema import DRAFT7

    schemas = {}
    for path in sorted(schema_dir.glob("*.json")):
        schema = json.loads(path.read_text(encoding="utf-8"))
        schemas[schema["$id"]] = Resource.from_contents(schema, default_specification=DRAFT7)
    if not schemas:
        raise FileNotFoundError(f"no JSON schemas under {schema_dir}")

    def retrieve(uri: str):
        for schema_id, resource in schemas.items():
            if uri.endswith("/" + schema_id):
                return resource
        raise NoSuchResource(ref=uri)

    registry = Registry(retrieve=retrieve).with_resources(schemas.items())
    validators = {schema_id: Draft7Validator(resource.contents, registry=registry)
                  for schema_id, resource in schemas.items()}

    def violations(schema_id: str, payload) -> list:
        return [error.message for error in validators[schema_id].iter_errors(payload)]

    return violations


WORKLOADS = {cls.name: cls for cls in (Scan, Threshold, Cli)}


def probe_layers(seed: int) -> None:
    """One seeded call into each layer, after the traced rounds, so that
    per-layer metrics of layers a workload never reaches are still measured."""
    rng = random.Random(seed)
    for n in (4, 10, 12):
        paradist.nns_exists(conjectured_threshold(n) + 0.05 * (1 + rng.random()), n)
    alpha = math.pi / 2 + (conjectured_threshold(4) - math.pi / 2) * (0.3 + 0.4 * rng.random())
    cert = paradist.nns_exists(alpha, 4)
    if isinstance(cert, paradist.Certificate):
        paradist.verify_certificate(cert, alpha, 4)
    lo, hi = paradist.alpha_interval(9)
    paradist.verify_catalog_entry(9, lo + (hi - lo) * rng.random())
    mats = paradist.channels.random_span_set(np.random.default_rng(seed), 3, 3)
    pair = paradist.realize_channels(paradist.extract_basis(mats))
    paradist.verify_kraus(pair.e_ops)
    with contextlib.redirect_stdout(io.StringIO()):
        paradist.cli.main(["build", "--n", "3", "--alpha", repr(alpha), "--emit", "C"])
