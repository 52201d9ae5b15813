"""Spans recorded around paradist's public functions, from outside the
program, and the per-layer metrics computed from them.

The tracer swaps each listed function, in every paradist module that binds
it, for a wrapper that records a span: name, layer (module), start, end,
parent span, operation id (the round it belongs to) and the calling
thread's CPU time.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PROBE_OP = "probe"
ORDERS = (4, 10, 12)


def _order_of_system(args, kwargs, result) -> dict:
    # the NNLS system of order n has 2(n+1) real rows plus the sum row
    return {"n": (args[0].shape[0] - 3) // 2}


def _order_arg(index: int):
    def describe(args, kwargs, result) -> dict:
        return {"n": kwargs["n"] if "n" in kwargs else args[index]}
    return describe


def _nnls_result(args, kwargs, result) -> dict:
    found = _order_of_system(args, kwargs, result)
    if result is not None:
        found["iterations"] = result.iterations
    return found


def _decision(args, kwargs, result) -> dict:
    found = _order_arg(1)(args, kwargs, result)
    if result is not None:
        found["outcome"] = type(result).__name__.lower()
    return found


# (module, function, describe) for every wrapped function; the layer is the
# module's last name.  ``describe(args, kwargs, result)`` adds span fields;
# ``result`` is None when the call raised.
TARGETS = [
    ("paradist.cli", "main", None),
    ("paradist.feasibility", "nns_exists", _decision),
    ("paradist.feasibility", "verify_certificate", _order_arg(2)),
    ("paradist.feasibility", "threshold_bisect", _order_arg(0)),
    ("paradist.feasibility", "necessity_scan", _order_arg(0)),
    ("paradist.feasibility", "necessity_point", _order_arg(1)),
    ("paradist.feasibility", "realize", _order_arg(1)),
    ("paradist.nnls", "nnls", _nnls_result),
    ("paradist.nnls", "refined_residual", _order_of_system),
    ("paradist.tensor", "build_C", _order_arg(1)),
    ("paradist.catalog", "verify_catalog_entry", _order_arg(0)),
    ("paradist.channels", "extract_basis", None),
    ("paradist.channels", "realize_channels", None),
    ("paradist.channels", "verify_kraus", None),
    ("paradist.channels", "span_equality", None),
    ("paradist.channels", "product_identity", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer: str, name: str, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool worker's first span belongs to the main thread's open span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": parent["id"] if parent else None, "op": self.op,
                    "thread": threading.get_ident()}
            stack.append(span)
            result = None
            cpu = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - cpu
                stack.pop()
                if describe is not None:
                    span.update(describe(args, kwargs, result))
                self.spans.append(span)
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "paradist" or key.startswith("paradist.")]
        for module_name, name, describe in TARGETS:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(module_name.rsplit(".", 1)[1], name, original, describe)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, original))

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _cpu(span: dict) -> float:
    return span["cpu"]


class SpanIndex:
    def __init__(self, spans: list[dict]):
        self.by_id = {span["id"]: span for span in spans}
        self.children: dict = {}
        for span in spans:
            self.children.setdefault(span["parent"], []).append(span)

    def self_cpu(self, span: dict) -> float:
        """The span's thread CPU time outside its child spans in the same
        thread (children in pool threads never ran on this thread)."""
        inner = sum(c["cpu"] for c in self.children.get(span["id"], [])
                    if c["thread"] == span["thread"])
        return span["cpu"] - inner

    def has_ancestor(self, span: dict, pred) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if pred(parent):
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def outermost(self, span: dict) -> bool:
        """No ancestor of the span lies in its own layer."""
        return not self.has_ancestor(span, lambda p: p["layer"] == span["layer"])


def _is(layer: str, name: str | None = None):
    return lambda s: s["layer"] == layer and (name is None or s["name"] == name)


def layer_metrics(spans: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics from the spans of the traced rounds and the probe.

    Counts are per round, from the first round; the flag says whether every
    round gave the same counts.  Times are thread CPU times (busy time),
    apart from ``wait_s``, and are medians over rounds of per-round sums.
    Per-call times at a fixed order come from every traced round; where the
    workload never reaches a layer or order, they come from the probe spans
    instead, so each metric is measured on every workload.
    """
    index = SpanIndex(spans)
    rounds: dict = {}
    for span in spans:
        rounds.setdefault(span["op"], []).append(span)
    probe = rounds.pop(PROBE_OP, [])
    ops = sorted(rounds)
    everything = [s for op in ops for s in rounds[op]]

    def counts(of: list) -> dict:
        decisions = [s for s in of if _is("feasibility", "nns_exists")(s)]
        outcome = {"witness": 0, "certificate": 0, "indeterminate": 0}
        for s in decisions:
            if s.get("error") == "NumericalIndeterminate":
                outcome["indeterminate"] += 1
            elif s.get("outcome") in outcome:
                outcome[s["outcome"]] += 1
        nnls = [s for s in of if _is("nnls", "nnls")(s) and "iterations" in s]
        thresholds = [s for s in of if _is("feasibility", "threshold_bisect")(s)]
        probes = [s for s in decisions
                  if index.has_ancestor(s, _is("feasibility", "threshold_bisect"))]
        builds = [s for s in of if _is("tensor", "build_C")(s)
                  and index.has_ancestor(s, _is("feasibility", "nns_exists"))]
        return {
            "decisions": len(decisions), **outcome,
            "nnls_calls": len([s for s in of if _is("nnls", "nnls")(s)]),
            "nnls_iterations": sum(s["iterations"] for s in nnls),
            "refine_calls": len([s for s in of if _is("nnls", "refined_residual")(s)]),
            "thresholds": len(thresholds), "threshold_probes": len(probes),
            "build_C_in_decisions": len(builds),
        }

    round_counts = [counts(rounds[op]) for op in ops]
    repeat = all(c == round_counts[0] for c in round_counts)
    c = round_counts[0]

    def per_round(pred, value=_cpu) -> float:
        if any(pred(s) for s in everything):
            return statistics.median(sum(value(s) for s in rounds[op] if pred(s)) for op in ops)
        return sum(value(s) for s in probe if pred(s))

    def per_call_us(pred, how) -> float:
        chosen = [s for s in everything if pred(s)] or [s for s in probe if pred(s)]
        return how([_cpu(s) for s in chosen]) * 1e6 if chosen else 0.0

    def mean(values: list) -> float:
        return sum(values) / len(values)

    def outermost_in(layer: str):
        return lambda s: s["layer"] == layer and index.outermost(s)

    decision = _is("feasibility", "nns_exists")
    metrics = {
        "cli.self_s": (per_round(_is("cli"), index.self_cpu), "s"),
        "feasibility.decisions": (c["decisions"], "count"),
        "feasibility.self_s": (per_round(_is("feasibility"), index.self_cpu), "s"),
        "feasibility.wait_s": (per_round(
            lambda s: s["name"] in ("nns_exists", "verify_certificate"),
            lambda s: _duration(s) - s["cpu"]), "s"),
        "feasibility.witness": (c["witness"], "count"),
        "feasibility.certificate": (c["certificate"], "count"),
        "feasibility.indeterminate": (c["indeterminate"], "count"),
        "feasibility.decided_ratio": (
            (c["witness"] + c["certificate"]) / c["decisions"] if c["decisions"] else 0.0, "ratio"),
        "feasibility.probes_per_threshold": (
            c["threshold_probes"] / c["thresholds"] if c["thresholds"] else 0.0, "count"),
        "feasibility.verify_certificate_s": (
            per_round(_is("feasibility", "verify_certificate")), "s"),
        "nnls.calls": (c["nnls_calls"], "count"),
        "nnls.self_s": (per_round(_is("nnls", "nnls"), index.self_cpu), "s"),
        "nnls.iterations_per_call": (
            c["nnls_iterations"] / c["nnls_calls"] if c["nnls_calls"] else 0.0, "count"),
        "nnls.refine_calls": (c["refine_calls"], "count"),
        "nnls.refine_s": (per_round(_is("nnls", "refined_residual")), "s"),
        "tensor.build_C_calls_per_decision": (
            c["build_C_in_decisions"] / c["decisions"] if c["decisions"] else 0.0, "ratio"),
        "tensor.build_C_s": (per_round(_is("tensor", "build_C")), "s"),
        "catalog.verify_s": (per_round(outermost_in("catalog")), "s"),
        "channels.realize_s": (per_round(outermost_in("channels")), "s"),
    }
    for n in ORDERS:
        at = lambda pred, n=n: (lambda s: pred(s) and s.get("n") == n)  # noqa: E731
        metrics[f"feasibility.decision_p50_us.n{n}"] = (
            per_call_us(at(decision), statistics.median), "us")
        metrics[f"nnls.us_per_call.n{n}"] = (per_call_us(at(_is("nnls", "nnls")), mean), "us")
        metrics[f"tensor.build_C_us.n{n}"] = (per_call_us(at(_is("tensor", "build_C")), mean), "us")
    return metrics, repeat


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(env: dict, cwd: Path, runs: int) -> dict:
    """Cumulative import times of a fresh `import paradist`, from
    `python -X importtime`, as medians over ``runs`` interpreters.

    ``python_s`` sums the top-level imports other than paradist, which the
    interpreter makes at start-up (encodings, site and their children).
    """
    samples: dict = {"paradist_s": [], "channels_s": [], "numpy_s": [], "python_s": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import paradist"],
                              cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        found = {}
        python = 0
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            cumulative, depth, name = int(m.group(2)) * 1e-6, len(m.group(3)) // 2, m.group(4)
            found.setdefault(name, cumulative)
            if depth == 0 and name != "paradist":
                python += cumulative
        for key, name in (("paradist_s", "paradist"), ("channels_s", "paradist.channels"),
                          ("numpy_s", "numpy")):
            samples[key].append(found[name])
        samples["python_s"].append(python)
    return {f"import.{key}": (statistics.median(values), "s") for key, values in samples.items()}
