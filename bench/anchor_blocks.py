"""Sweep the row-block size of the anchored kernel.

For each (N, S) below and each block size R, runs ``rdd_direct`` on
``product_linear`` with per-row anchors, the kernel held at exactly R rows
per block (so no ragged tail), over about ``ROWS`` target rows, and
prints one JSON object: per (N, R) the best of ``REPEATS`` runs as target
rows per second, and the target's own time per value (rows times N).

    python3 bench/anchor_blocks.py > sweep.json

Run it with one BLAS thread (``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1``)
on an otherwise idle machine; the block sizes are visited in a shuffled
order on every repeat, so drift spreads over all of them.
"""
from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from math import ceil
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dimdecomp import ProblemSpec, ProductMeasure, count_up_to, default_marginal, make_function  # noqa: E402
from dimdecomp import decomp  # noqa: E402

#: (N, S): the rdd_mc shapes (6, 10, 20), verify's N = 5 gates at S_max = 4,
#: and larger N at the orders the paper's N = 100 sweeps can afford
SHAPES = [(5, 4), (6, 3), (10, 3), (20, 2), (32, 2), (50, 2), (100, 1)]
BLOCK_ROWS = [655, 1310, 2048, 2621, 3276, 4096, 5000, 6553, 8192, 10922, 13107, 16384]
ROWS = 1_500_000
REPEATS = 7


def _timed_problem(N: int):
    fn = make_function("product_linear", N, a=np.linspace(0.5, 1.0, N))
    spent = [0.0]

    def timed(x):
        t = time.perf_counter()
        y = fn(x)
        spent[0] += time.perf_counter() - t
        return y

    return ProblemSpec(timed, ProductMeasure.iid(default_marginal("product_linear"), N)), spent


def sweep(N: int, S: int) -> dict:
    problem, spent = _timed_problem(N)
    per_point = count_up_to(N, S)
    rng = np.random.default_rng(N * 100 + S)
    best = {R: (float("inf"), float("inf")) for R in BLOCK_ROWS}
    for _ in range(REPEATS):
        for R in random.sample(BLOCK_ROWS, len(BLOCK_ROWS)):
            m = R * ceil(ROWS / per_point / R)
            X = problem.measure.sample(rng, m)
            C = problem.measure.sample(rng, m)
            decomp._ANCHOR_BLOCK_VALUES, decomp._ANCHOR_BLOCK_ROWS = R * N, 0
            spent[0] = 0.0
            t = time.perf_counter()
            decomp.rdd_direct(problem, S, C, X)
            total = time.perf_counter() - t
            rows = m * per_point
            best[R] = min(best[R], (total / rows, spent[0] / (rows * N)))
    return {
        "N": N,
        "S": S,
        "rows_per_point": per_point,
        "by_block_rows": {
            str(R): {"mrows_per_s": round(1e-6 / t, 3), "target_ns_per_value": round(1e9 * v, 3)}
            for R, (t, v) in best.items()
        },
    }


def main() -> None:
    random.seed(0)
    out = {
        "command": "python3 bench/anchor_blocks.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rows_per_measurement": ROWS,
        "repeats": REPEATS,
        "shapes": [sweep(N, S) for N, S in SHAPES],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
