"""Build the support tables of `paradist.supports` with the projection.

For orders 11 and 12 no catalog interval holds the angles between the
conjectured threshold pi/2 + pi/(2n) and that of order 10.  It builds
each order's grid of GRID angles over that gap as one stack
(`build_C_stack`) and runs the projection on each angle's system through
`feasibility._project`, the stage `nns_exists` falls back to, so the
projection is set up in one place only; an angle where it gives no
witness stops the script.  The supports of those witnesses are judged over
the whole grid by the code `nns_exists` uses for a table row
(`feasibility._support_witnesses`): the null vector of the real system's
columns Ms in the support, solved from the bordered normal equations
(Ms'Ms + 11') y = 1 with its sum 1, passed to the witness bar.  Both
stages are handed the complex systems and embed them as real ones
themselves.  A greedy pass then covers the grid: from the first angle not
yet covered it takes the support whose run of passing angles reaches
furthest.  A row is that run widened by one grid step on each side
(clipped to the gap, and never starting below the row before it), so that
neighbouring rows overlap where one support hands over to the next.

    python tools/support_tables.py > src/paradist/supports.py
    python tools/support_tables.py --check   # exit 1 if the committed table differs
"""

from __future__ import annotations

import argparse
import difflib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from paradist import feasibility  # noqa: E402
from paradist.catalog import CATALOG_MAX_ORDER, conjectured_threshold  # noqa: E402
from paradist.labels import MAX_ORDER, column_order  # noqa: E402
from paradist.tensor import build_C_stack  # noqa: E402

TABLE = ROOT / "src" / "paradist" / "supports.py"
ORDERS = range(CATALOG_MAX_ORDER + 1, MAX_ORDER + 1)
GRID = 1001

HEADER = '''"""Supports of nonnegative null vectors for the orders above the catalog.

For orders 11 and 12 no explicit solution of the paper holds the angles
between the order's conjectured threshold pi/2 + pi/(2n) and that of
order 10.  Each row (lo, hi, labels) names the columns, by their
(n0, n1, n2) labels, of a support whose null vector is proposed as the
witness for the angles in [lo, hi]; `feasibility._support_witnesses`
judges it by the one witness rule.  The rows overlap and cover the gap.

Generated by `python tools/support_tables.py > src/paradist/supports.py`;
`python tools/support_tables.py --check` regenerates it and compares.
"""
'''


def cover(n: int) -> list[tuple[float, float, tuple[int, ...]]]:
    """Greedy rows (lo, hi, columns) covering the order-n grid."""
    grid = np.linspace(conjectured_threshold(n), conjectured_threshold(CATALOG_MAX_ORDER), GRID)
    alphas = grid.tolist()
    c = build_C_stack(alphas, n)
    supports = set()
    for alpha, system in zip(alphas, c):
        witness = feasibility._project(system)
        if not isinstance(witness, feasibility.Witness):
            raise SystemExit(f"order {n}: the projection gives no witness at {alpha!r}: {witness}")
        supports.add(tuple(np.flatnonzero(witness.y > 0).tolist()))
    supports = sorted(supports)
    # each support as one row over the whole grid, judged as one stack
    passes = np.array([[witness is not None for witness in feasibility._support_witnesses(
        c, alphas, [(alphas[0], alphas[-1], np.array(cols))])] for cols in supports])
    rows, start, last = [], 0, GRID - 1
    while start <= last:
        reach = []
        for s in range(len(supports)):
            end = start
            while end <= last and passes[s, end]:
                end += 1
            reach.append(end)
        best = int(np.argmax(reach))
        if reach[best] == start:
            raise SystemExit(f"order {n}: no projected support passes at {grid[start]!r}")
        first = start
        while first > 0 and passes[best, first - 1]:
            first -= 1
        lo = max(grid[max(first - 1, 0)], rows[-1][0] if rows else grid[0])
        rows.append((float(lo), float(grid[min(reach[best], last)]), supports[best]))
        start = reach[best]
    return rows


def render() -> str:
    lines = [HEADER, "SUPPORTS = {"]
    for n in ORDERS:
        labels = column_order(n)
        lines.append(f"    {n}: (")
        for lo, hi, cols in cover(n):
            lines.append(f"        ({lo!r}, {hi!r}, (")
            triples = [repr(labels[col]) for col in cols]
            for i in range(0, len(triples), 6):
                lines.append("            " + ", ".join(triples[i:i + 6]) + ",")
            lines.append("        )),")
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {TABLE.relative_to(ROOT)} instead of printing")
    args = parser.parse_args(argv)
    text = render()
    if not args.check:
        sys.stdout.write(text)
        return 0
    committed = TABLE.read_text(encoding="utf-8")
    if committed == text:
        print(f"{TABLE.relative_to(ROOT)} is up to date")
        return 0
    sys.stdout.writelines(difflib.unified_diff(committed.splitlines(True), text.splitlines(True),
                                               "committed", "regenerated"))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
