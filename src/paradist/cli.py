"""Command-line experiment surface.

Every command emits a machine-readable report (JSON, or CSV for sweeps)
that embeds the library version and the tolerances in effect, and is
byte-identical across repeated runs with the same configuration.

Exit codes: 0 success, 1 verification failure, 2 numerically indeterminate
outcome, 64 usage error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a tool a closed pipe stops

OUTPUT_DIR_ENV = "PARADIST_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # a token that parses as a float ("-1e-6", "-inf") is a value, never
        # an option, so `--tol -1e-6` and `--alpha -1e-3` reach their checks
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_alpha_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, help="phase angle in radians")
    group.add_argument("--pi-frac", help="phase angle as a fraction of pi, e.g. 3/4")


def _resolve_alpha(args) -> float:
    alpha = args.alpha
    if getattr(args, "pi_frac", None):
        num, _, den = args.pi_frac.partition("/")
        try:
            alpha = math.pi * int(num) / int(den or "1")
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"bad --pi-frac value {args.pi_frac!r}") from exc
    if alpha is None or not math.isfinite(alpha):
        raise ValueError("a finite --alpha or --pi-frac is required")
    return float(alpha)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one `paradist` parser, built on first use and shared by every
    in-process `main` call; parsing reads it and never changes it."""
    parser = _Parser(prog="paradist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"paradist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit one of the constructed matrices as JSON")
    p.add_argument("--n", type=int, required=True)
    _add_alpha_options(p)
    p.add_argument("--emit", choices=["A", "Q", "B", "C", "Cblock"], required=True)
    p.add_argument("--form", choices=["original", "reduced"], default="reduced",
                   help="base-matrix form, used when emitting A")
    p.add_argument("--output")

    p = sub.add_parser("verify-catalog", help="verify cataloged solutions on a sample grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--output")

    p = sub.add_parser("feasibility", help="decide nonnegative feasibility at one angle")
    p.add_argument("--n", type=int, required=True)
    _add_alpha_options(p)
    p.add_argument("--output")

    p = sub.add_parser("sweep", help="feasibility outcomes over an angle grid (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--alpha-min", type=float, default=math.pi / 2)
    p.add_argument("--alpha-max", type=float, default=math.pi)
    p.add_argument("--output")

    p = sub.add_parser("threshold", help="bisect the feasibility boundary in alpha")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float)
    p.add_argument("--output")

    p = sub.add_parser("necessity", help="certificates across the infeasible region")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--output")

    p = sub.add_parser("realize", help="realize a product span by two operator families")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="JSON file with a 'matrices' list")
    src.add_argument("--random-dim", type=int, help="generate random square matrices")
    p.add_argument("--random-count", type=int, default=3)
    p.add_argument("--seed", type=int, help="seed for --random-dim generation")
    p.add_argument("--output")

    return parser


@contextlib.contextmanager
def _report(output: str | None):
    """The stream a report goes to: stdout, or the `--output` file, a
    relative path taken under $PARADIST_OUTPUT_DIR when that is set.  A file
    whose report fails partway is removed rather than left cut short."""
    if output is None:
        yield sys.stdout
        # a closed stdout raises here, inside `main`, not at shutdown
        sys.stdout.flush()
        return
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(output):
        output = os.path.join(out_dir, output)
    with open(output, "w", encoding="utf-8") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(output)
            raise


# the encoder's pieces written in one call, about 100 kB of text: the
# report is never held whole, and an unbuffered stdout takes few writes
_JSON_BATCH = 1 << 14


def _json(payload, output: str | None) -> None:
    """Write a report as indented JSON, encoded onto its stream a batch of
    pieces at a time rather than held whole as text first."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    with _report(output) as stream:
        while batch := list(itertools.islice(pieces, _JSON_BATCH)):
            stream.write("".join(batch))
        stream.write("\n")


# each command imports the modules it runs, so a fresh `paradist` process
# loads no others
def _cmd_build(args) -> int:
    from .labels import check_order
    from .tensor import (MatrixForm, a_alpha, build_B, build_C, build_C_block, build_Q,
                         matrix_to_json)

    alpha = _resolve_alpha(args)
    check_order(args.n)
    form = MatrixForm(args.form)
    if args.emit == "A":
        matrix = a_alpha(alpha, form)
    elif args.emit == "Q":
        matrix = build_Q(args.n)
    elif args.emit == "B":
        matrix = build_B(alpha, args.n)
    elif args.emit == "C":
        matrix = build_C(alpha, args.n)
    else:
        matrix = build_C_block(alpha, args.n)
    payload = {
        "version": __version__,
        "n": args.n,
        "alpha": alpha,
        "emit": args.emit,
        "form": form.value if args.emit == "A" else None,
        "matrix": matrix_to_json(matrix),
    }
    _json(payload, args.output)
    return EXIT_OK


def _cmd_verify_catalog(args) -> int:
    from .catalog import check_catalog_order, interval_samples, verify_catalog_entry

    check_catalog_order(args.n)
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    reports = []
    ok = True
    for alpha in interval_samples(args.n, args.samples):
        report = verify_catalog_entry(args.n, float(alpha))
        ok = ok and report.passed
        entry = report.to_dict()
        entry["version"] = __version__
        reports.append(entry)
    _json(reports, args.output)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_feasibility(args) -> int:
    from .feasibility import TOL_MARGIN, TOL_WITNESS, Indeterminate, nns_exists

    alpha = _resolve_alpha(args)
    outcome = nns_exists(alpha, args.n)
    payload = dict(outcome.to_dict(), version=__version__, n=args.n, alpha=alpha,
                   tolerances={"witness": TOL_WITNESS, "margin": TOL_MARGIN})
    _json(payload, args.output)
    return EXIT_INDETERMINATE if isinstance(outcome, Indeterminate) else EXIT_OK


def _cmd_sweep(args) -> int:
    from .feasibility import TOL_MARGIN, TOL_WITNESS, Indeterminate, _decide

    if args.points < 2:
        raise ValueError("--points must be at least 2")
    alphas = [
        args.alpha_min + (args.alpha_max - args.alpha_min) * i / (args.points - 1)
        for i in range(args.points)
    ]
    outcomes = _decide(alphas, args.n)
    # no field can hold a comma, a quote or a line break, so these are
    # the lines a CSV writer would write
    lines = [f"# paradist {__version__} tol_witness={TOL_WITNESS!r} tol_margin={TOL_MARGIN!r}",
             "alpha,n,outcome,metric"]
    lines += [f"{alpha!r},{args.n},{outcome.kind},{outcome.metric!r}"
              for alpha, outcome in zip(alphas, outcomes)]
    with _report(args.output) as stream:
        stream.write("\n".join(lines) + "\n")
    if any(isinstance(outcome, Indeterminate) for outcome in outcomes):
        return EXIT_INDETERMINATE
    return EXIT_OK


def _cmd_threshold(args) -> int:
    # only `threshold_bisect` raises these two
    from .feasibility import TOL_ALPHA, Indeterminate, NonMonotonePredicate, threshold_bisect

    tol = TOL_ALPHA if args.tol is None else args.tol
    try:
        estimate = threshold_bisect(args.n, tol_alpha=tol)
    except Indeterminate as exc:
        print(f"paradist: indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except NonMonotonePredicate as exc:
        print(f"paradist: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    payload = estimate.to_dict()
    payload["version"] = __version__
    payload["tolerances"] = {"alpha": tol}
    _json(payload, args.output)
    return EXIT_OK


def _cmd_necessity(args) -> int:
    from .feasibility import TOL_MARGIN, necessity_scan

    if args.points < 0:
        raise ValueError("--points must be nonnegative")
    rows = necessity_scan(args.n, args.points)
    anomalies = sum(1 for row in rows if row.get("anomaly"))
    payload = {
        "version": __version__,
        "n": args.n,
        "points": args.points,
        "tolerances": {"margin": TOL_MARGIN},
        "anomalies": anomalies,
        "rows": rows,
    }
    _json(payload, args.output)
    if any(row["outcome"] == "witness" for row in rows):
        return EXIT_VERIFICATION
    return EXIT_INDETERMINATE if anomalies else EXIT_OK


def _cmd_realize(args) -> int:
    from .channels import (TOL_KRAUS, extract_basis, product_identity, random_span_set,
                           realize_channels, scaled_norm, span_equality, verify_kraus)
    from .tensor import matrix_from_json, matrix_to_json

    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
        objs = data.get("matrices") if isinstance(data, dict) else None
        if not (isinstance(objs, list) and all(isinstance(obj, dict) for obj in objs)):
            raise ValueError(f"{args.input}: expected an object whose 'matrices' is a list "
                             "of matrix objects")
        mats = [matrix_from_json(obj) for obj in objs]
    else:
        if args.seed is None:
            raise ValueError("--random-dim requires --seed for reproducibility")
        if args.random_dim < 1 or args.random_count < 1:
            raise ValueError("--random-dim and --random-count must be positive")
        rng = np.random.default_rng(args.seed)
        mats = random_span_set(rng, args.random_dim, args.random_count)
    basis = extract_basis(mats)
    pair = realize_channels(basis)
    e_ok, e_defect = verify_kraus(pair.e_ops)
    f_ok, f_defect = verify_kraus(pair.f_ops)
    spans_match = span_equality(pair.e_ops, pair.f_ops, mats)
    identity = product_identity(pair)
    payload = {
        "version": __version__,
        "tolerances": {"kraus": TOL_KRAUS},
        "scale": pair.scale,
        "rank": pair.rank,
        "basis_size": len(basis),
        "e_ops": [matrix_to_json(op) for op in pair.e_ops],
        "f_ops": [matrix_to_json(op) for op in pair.f_ops],
        "verification": {
            "e_defect": e_defect,
            "f_defect": f_defect,
            "kraus_ok": bool(e_ok and f_ok),
            "span_ok": bool(spans_match),
            "product_norm": scaled_norm(identity),
        },
    }
    _json(payload, args.output)
    return EXIT_OK if (e_ok and f_ok and spans_match) else EXIT_VERIFICATION


_COMMANDS = {
    "build": _cmd_build,
    "verify-catalog": _cmd_verify_catalog,
    "feasibility": _cmd_feasibility,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "necessity": _cmd_necessity,
    "realize": _cmd_realize,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # the reader closed stdout; fd 1 on devnull, so shutdown's flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:
        print(f"paradist: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
