"""Sweep the rows per target call of the grid path.

For each (target, N, q) below and each cap R, evaluates the full tensor
Gauss grid (``decomp._evaluate_full_grid``, the grid of ``build_add``)
with the one block rule held at a flat cap of R rows, and prints one JSON
object: per (shape, R) the calls made, their mean rows, and the best of
``REPEATS`` runs as grid milliseconds and the target's own milliseconds.
The entry ``rule`` is the package's own rule (``decomp._block_rows``).

    python3 bench/grid_blocks.py > sweep.json

Run it with one BLAS thread (``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1``)
on an otherwise idle machine; the caps are visited in a shuffled order on
every repeat, so drift spreads over all of them.
"""
from __future__ import annotations

import json
import os
import platform
import random
import time
from math import prod

import numpy as np

from anchor_blocks import timed_problem
from dimdecomp import decomp

#: the add_grid shapes: 10**6 points at N = 6, 3**10 at N = 10
SHAPES = [
    ("product_linear", 6, 10),
    ("sobol_g", 6, 10),
    ("product_linear", 10, 3),
    ("sobol_g", 10, 3),
]
CAPS = [1_000, 2_500, 5_000, 7_500, 10_000, 20_000, 40_000, 65_536, 131_072]
REPEATS = 15
RULE = (decomp._BLOCK_VALUES, decomp._BLOCK_ROWS)


def sweep(name: str, N: int, q: int) -> dict:
    timed, spent = timed_problem(N, name, q)
    rows = []

    def counted(x):
        rows.append(len(x))
        return timed.function(x)

    problem = decomp.ProblemSpec(counted, timed.measure, q)
    problem.rules  # the Gauss rules are built outside the timings
    best = {}
    try:
        for _ in range(REPEATS):
            for R in random.sample(CAPS + ["rule"], len(CAPS) + 1):
                decomp._BLOCK_VALUES, decomp._BLOCK_ROWS = RULE if R == "rule" else (R * N, 0)
                rows.clear()
                spent[0] = 0.0
                t = time.perf_counter()
                decomp._evaluate_full_grid(problem)
                total = time.perf_counter() - t
                old = best.get(R, (float("inf"), float("inf"), 0, 0))
                best[R] = min(old[:2], (total, spent[0])) + (len(rows), sum(rows) / len(rows))
    finally:
        decomp._BLOCK_VALUES, decomp._BLOCK_ROWS = RULE
    return {
        "target": name,
        "N": N,
        "q": q,
        "points": prod(problem.orders),
        "by_cap": {
            str(R): {
                "calls": calls,
                "rows_per_call": round(mean_rows, 1),
                "grid_ms": round(1e3 * t, 3),
                "target_ms": round(1e3 * v, 3),
            }
            for R, (t, v, calls, mean_rows) in best.items()
        },
    }


def main() -> None:
    random.seed(0)
    out = {
        "command": "python3 bench/grid_blocks.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repeats": REPEATS,
        "shapes": [sweep(*shape) for shape in SHAPES],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
