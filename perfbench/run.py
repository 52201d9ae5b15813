"""paradist benchmark: one workload, one run.

    python3 perfbench/run.py --workload {scan,threshold,cli,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; paradist is imported from its src/.  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics from spans recorded around paradist's public functions.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A results file and, when traced, the spans go to perfbench/out/.
See perfbench/NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
MIN_TRACED_PAIRS = 2
WORKLOAD_NAMES = ("scan", "threshold", "cli")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one repetition of each step, to test the harness")
    return parser.parse_args(argv)


def import_program():
    """Import paradist from the checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "paradist" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no paradist sources under {src}")
    sys.path.insert(0, str(src))
    import paradist
    if Path(paradist.__file__).resolve().parent != (src / "paradist").resolve():
        raise SystemExit(f"benchmark: paradist was imported from {paradist.__file__}")
    return paradist


def blas_threads() -> dict:
    """OpenBLAS thread count of each OpenBLAS copy numpy and scipy ship."""
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        libdir = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in symbols:
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    found[lib.name] = int(getter())
                    break
    return found


def environment(paradist) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "paradist": paradist.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_env": {key: os.environ[key] for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if key in os.environ},
        "src_lines": src_lines,
    }


def tail(samples: list) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, with the share of samples at or below it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def round_counts(tallies: list) -> tuple:
    """``attempted`` and ``failed`` of the run: those of one round.

    Every round runs the same operations on the same inputs, so the counts
    depend on the seed and not on how many rounds fit into ``--seconds``.
    An operation counts as failed if it failed in any round: where rounds
    disagree, each failure reason counts with its largest per-round count.
    """
    reasons = {}
    for t in tallies:
        for reason, count in t.reasons.items():
            reasons[reason] = max(reasons.get(reason, 0), count)
    attempted = max(t.attempted for t in tallies)
    steady = all((t.attempted, t.failed, t.reasons) ==
                 (tallies[0].attempted, tallies[0].failed, tallies[0].reasons)
                 for t in tallies)
    return attempted, sum(reasons.values()), reasons, steady


def measure_setup(code: str, env: dict, runs: int) -> list:
    """Wall times of fresh interpreters that import paradist and run the
    workload's warm-up operation."""
    walls = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=120)
        walls.append(time.perf_counter() - start)
    return walls


def untraced_run(args, workload, wl, env, calibrator) -> tuple:
    setup = measure_setup(workload.setup_code(), env, 1 if args.smoke else SETUP_RUNS)
    workload.warm_up()
    tally = wl.Tally()
    rounds, tallies, extra = [], [], {}
    start = time.perf_counter()
    while True:
        calibrator.tick()
        result = workload.run()
        tally.merge(result.tally)
        tallies.append(result.tally)
        rounds.append(result.pieces)
        for key, value in result.extra.items():
            extra[key] = max(extra.get(key, value), value)
        if time.perf_counter() - start >= args.seconds:
            break
    calibrator.tick()

    # a unit is one invocation (cli) or one whole round (scan, threshold)
    walls, relative, by_label = [], [], {}
    for pieces in rounds:
        raw = [wall for _, wall, _ in pieces]
        rel = [wall / calibrator.around(t0, wall) for t0, wall, _ in pieces]
        walls += raw if workload.per_piece else [sum(raw)]
        relative += rel if workload.per_piece else [sum(rel)]
        for _, wall, label in pieces:
            by_label.setdefault(label, []).append(wall)
    counts = round_counts(tallies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "p50_ref": (statistics.median(relative), "ref"),
        "decided_per_ref": (tally.decided / sum(relative), "1/ref"),
        "ok_share": (1.0 - counts[1] / counts[0], "share"),
    }
    report = {"setup_samples": setup, "samples": walls, "relative": relative,
              "reference_s": [t for _, t in calibrator.ticks],
              "p50_s": statistics.median(walls), "decided_per_s": tally.decided / sum(walls),
              "p50_s_by_label": {k: statistics.median(v) for k, v in by_label.items()},
              "tail": tail(walls), **extra}
    return tally, counts, metrics, report


def traced_run(args, workload, wl, env) -> tuple:
    from tracer import PROBE_OP, Tracer, import_times, layer_metrics

    run_round = getattr(workload, "run_in_process", workload.run)
    workload.warm_up()
    tracer = Tracer()
    tally = wl.Tally()
    tallies, pairs = [], []
    start = time.perf_counter()
    while True:
        walls = {}
        # alternate which side of the pair runs first
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if traced:
                tracer.op = len(pairs)
                tracer.install()
            try:
                t0 = time.perf_counter()
                result = run_round()
                walls[traced] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            tally.merge(result.tally)
            tallies.append(result.tally)
        pairs.append(walls)
        done = len(pairs) >= (1 if args.smoke else MIN_TRACED_PAIRS)
        if done and time.perf_counter() - start >= args.seconds:
            break
    tracer.op = PROBE_OP
    tracer.install()
    try:
        wl.probe_layers(args.seed)
    finally:
        tracer.uninstall()

    metrics, counts_repeat = layer_metrics(tracer.spans)
    metrics.update(import_times(env, ROOT, 1 if args.smoke else IMPORTTIME_RUNS))
    overhead = statistics.median(p[True] - p[False] for p in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(p[False] for p in pairs),
                                       "share")
    if not counts_repeat:
        tally.problems.append("per-round counts differ between traced rounds")
    spans_path = HERE / "out" / f"spans_{args.workload}_seed{args.seed}.jsonl"
    tracer.write(spans_path)
    report = {"pairs": [{"untraced": p[False], "traced": p[True]} for p in pairs],
              "spans": str(spans_path.relative_to(ROOT)), "spans_count": len(tracer.spans),
              "counts_repeat": counts_repeat}
    return tally, round_counts(tallies), metrics, report


def print_report(args, env_info, workload, tally, counts, metrics, report) -> None:
    print(f"paradist benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"inputs: {workload.describe()}")
    attempted, failed, reasons, steady = counts
    print(f"operations per {workload.unit}: attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.6g}"
          + ("" if steady else " (failures differ between rounds; largest count of each reason)"))
    for reason, count in sorted(reasons.items()):
        print(f"  failed {count:6d}  {reason}")
    print(f"operations over all rounds: attempted={tally.attempted} failed={tally.failed} "
          f"decided={tally.decided} indeterminate={tally.indeterminate}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    if args.trace:
        return
    samples = report["samples"]
    print(f"samples: {len(samples)}, one per {workload.unit}; reference "
          f"median {statistics.median(report['reference_s']) * 1e3:.4g} ms "
          f"over {len(report['reference_s'])} ticks")
    median_name, tail_name = {"scan": ("scan_round_s", "scan_round_tail_s"),
                              "threshold": ("threshold_pass_s", "threshold_pass_tail_s"),
                              "cli": ("cli_p50_s", "cli_tail_s")}[args.workload]
    print(f"{median_name} {report['p50_s']:.6g} s (wall, median of {len(samples)} samples)")
    if report["tail"]:
        pct, value = report["tail"]
        print(f"{tail_name} {value:.6g} s (wall, p{pct:.0f} of {len(samples)} samples)")
    else:
        print(f"{tail_name} none: fewer than 11 samples ({len(samples)})")
    print(f"decided_per_s {report['decided_per_s']:.6g} 1/s (wall)")
    if args.workload == "cli":
        print("cli_p50_s by command: " + ", ".join(
            f"{k} {v:.4g}" for k, v in report["p50_s_by_label"].items()))
    if "threshold_err_max" in report:
        print(f"threshold_err_max {report['threshold_err_max']:.6g} rad "
              f"(C07 bound 1e-5)")


def run_all(args) -> int:
    """Run every workload in a child process of its own and print their
    reports; the last line maps each workload to its result."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    paradist = import_program()
    sys.path.insert(0, str(HERE))
    import workloads as wl

    import reference

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    env = wl.subprocess_env(ROOT)
    # each workload is timed against a reference doing the same kind of work
    calibrator = reference.Calibrator({
        "scan": reference.pooled_reference_kernel,
        "threshold": reference.reference_kernel,
        "cli": reference.StartupReference(ROOT, env),
    }[args.workload])
    ctx = wl.Context(root=ROOT, scratch=out, smoke=args.smoke,
                     validator=wl.schema_validator(ROOT / "docs" / "schemas"),
                     tick=(lambda: None) if args.trace else calibrator.tick)
    workload = wl.WORKLOADS[args.workload](args.seed, ctx)
    env_info = environment(paradist)
    if args.trace:
        tally, counts, metrics, report = traced_run(args, workload, wl, env)
    else:
        tally, counts, metrics, report = untraced_run(args, workload, wl, env, calibrator)

    attempted, failed, reasons, steady = counts
    correct = not tally.problems and attempted > 0
    print_report(args, env_info, workload, tally, counts, metrics, report)
    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env_info, "inputs": workload.describe(),
               "correct": correct, "attempted": attempted, "failed": failed,
               "failures": reasons, "failures_steady": steady,
               "all_rounds": {"attempted": tally.attempted, "failed": tally.failed,
                              "decided": tally.decided, "indeterminate": tally.indeterminate,
                              "failures": dict(tally.reasons)},
               "problems": sorted(set(tally.problems)),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
               "report": report}
    path = out / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
