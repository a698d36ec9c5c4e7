#!/usr/bin/env python3
"""Freeze exact J_n(x) bits into tests/bessel_bits.json.

Records float.hex of J_n(x) on a fixed set of (n, x) points so
that later changes to the recurrence (start order, loop layout) can be
held to the same doubles. The points cover:

  * the ascending-series branch (x < 1e-6) and the switch to Miller;
  * a full row J_0 .. J_{U+1} at x = 6.5, U being the certified
    underflow order: every start-order cutoff of that argument;
  * tail transitions: fixed orders at arguments that move U(x) from
    just below the order (exact zeros) to far above it. They pass
    through the tail values near 1e-300 and the rescale events of
    deep-tail orders;
  * ladder-like points, x <= 200 and |n| <= 100, both signs, a few
    orders with many arguments each as an angle grid has.

All points go through one bessel_j_grid call, each element with its own
order. Before writing, the values are checked against one single-order
grid call per order and against bessel_j_batch at every argument frozen
at several orders; they must agree bit for bit. Run once on a trusted
kernel, from the repository root:

    PYTHONPATH=src python scripts/freeze_bessel_bits.py
"""

import json
import pathlib
import sys
from collections import defaultdict

import numpy as np

from rotor_scatter.specfun import _starts, bessel_j_batch, bessel_j_grid

ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = ROOT / "tests" / "bessel_bits.json"

SERIES_XS = (0.0, 5e-324, 1e-300, 1e-100, 1e-9, 3.3e-7, 9.99e-7, 1e-6, 1.0000001e-6)
SERIES_NS = (0, 1, 2, 3, 5, 10, 30, 100, 300, -1, -2, -7)
ROW_X = 6.5
TAIL_ORDERS = (60, 150, 400, 1200)
TAIL_SPAN = (-2, 90)  # U(x) - n from the first to the last argument
TAIL_POINTS = 40
LADDER_ORDERS = (-99, -64, -31, -2, 0, 1, 2, 17, 40, 63, 88, 100)
LADDER_POINTS = 84  # per order
SEED = 20261017


def underflow_order(x: float) -> int:
    """U(x) as the kernel draws it: the smallest order with start 0 (an
    exact zero), by doubling and bisection over the order."""
    def zero(n):
        return _starts(np.array([x]), np.array([n]))[0] == 0

    lo, hi = 0, 1  # order 0 is never an exact zero for x >= 1e-6
    while not zero(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if zero(mid) else (mid, hi)
    return hi


def argument_for(order: int) -> float:
    """Smallest x (to 1e-12 relative) with U(x) >= order; U grows with x."""
    lo, hi = 1e-6, 1.0
    while underflow_order(hi) < order:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if underflow_order(mid) >= order:
            hi = mid
        else:
            lo = mid
    return hi


def points():
    pts = [(n, x) for x in SERIES_XS for n in SERIES_NS]
    pts += [(n, ROW_X) for n in range(underflow_order(ROW_X) + 2)]
    for n in TAIL_ORDERS:
        xs = np.linspace(argument_for(n + TAIL_SPAN[0]),
                         argument_for(n + TAIL_SPAN[1]), TAIL_POINTS)
        pts += [(n, float(x)) for x in xs]
    rng = np.random.default_rng(SEED)
    for n in LADDER_ORDERS:
        pts += [(n, float(x)) for x in rng.uniform(0.0, 200.0, LADDER_POINTS)]
    return pts


def main() -> int:
    pts = points()
    values = bessel_j_grid(np.array([n for n, _ in pts]),
                           np.array([x for _, x in pts])).tolist()
    by_order = defaultdict(list)
    by_x = defaultdict(list)
    for (n, x), v in zip(pts, values):
        by_order[n].append((x, v))
        by_x[x].append((n, v))
    for n, rows in by_order.items():
        grid = bessel_j_grid(n, np.array([x for x, _ in rows]))
        if any(g.hex() != v.hex() for g, (_, v) in zip(grid.tolist(), rows)):
            print(f"grid disagrees at n={n}", file=sys.stderr)
            return 1
    for x, rows in by_x.items():
        if len(rows) < 2:
            continue
        row = bessel_j_batch(max(abs(n) for n, _ in rows), x)
        for n, v in rows:
            b = -row[-n] if n < 0 and n % 2 else row[abs(n)]
            if b.hex() != v.hex():
                print(f"batch disagrees at n={n}, x={x!r}", file=sys.stderr)
                return 1
    entries = [[n, x.hex(), v.hex()] for (n, x), v in zip(pts, values)]
    body = ",\n".join(json.dumps(e) for e in entries)
    TARGET.write_text('{"points": [\n' + body + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(entries)} points to {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
