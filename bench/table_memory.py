"""Max RSS of the table subcommands, each run in a fresh process.

For each (N, q, commands) in SHAPES and each subcommand in its commands,
runs ``dimdecomp.cli.main`` on ``product_linear`` (default coefficients,
``SAMPLES`` MC samples for ``verify``) in a fresh Python process with one
BLAS thread, and reads that process's max RSS (``resource.getrusage``)
when the command returns.  Prints one JSON object: per shape, the table
size and per command the exit codes, the max RSS of each of ``REPEATS``
runs in MiB and the wall seconds of the slowest.

Then, for each (N, q) in CHECK_SHAPES, the two anchored checks of
``verify`` alone on the same problem, the table built before the
measurement: per check, ``REPEATS`` fresh processes read its tracemalloc
peak and ``REPEATS`` more its wall seconds, untraced.

    python3 bench/table_memory.py > table_memory.json

Run it on an otherwise idle machine: a table of up to 128 MiB and the
runs of ``verify`` at ``N = 15`` and of the checks at ``N = 18`` take
several seconds each.
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from math import prod
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ["decompose", "errors", "verify"]
#: the shapes of the ROADMAP's RSS table, 109, 75 and 37 MiB tables, then
#: the lattice edge: 2**18 subsets on a 2 MiB table, where the per-subset
#: results outweigh the table.  verify is left out there: its anchored
#: checks would sample all 262 143 nonempty subsets at every point
SHAPES = [
    (15, 2, COMMANDS),
    (10, 4, COMMANDS),
    (6, 12, COMMANDS),
    (18, 1, ["decompose", "errors"]),
]
#: the anchored checks sample all 2**N subsets at each of their points
CHECKS = ["check_rdd_structure", "check_rdd_on_grid"]
CHECK_SHAPES = [(16, 1), (18, 1)]
SAMPLES = 10_000
REPEATS = 3

# the child runs one subcommand in-process and prints its max RSS last
CHILD = """\
import json, resource, sys
from dimdecomp.cli import main
rc = main(sys.argv[1:])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"rc": rc, "max_rss_mib": rss}))
"""

# the child runs one anchored check as verify does, traced or not, and
# prints whether it passed, its tracemalloc peak (or null) and its seconds
CHECK_CHILD = """\
import json, sys, time, tracemalloc
from pathlib import Path
import numpy as np
from dimdecomp import build_add, build_rdd, check_rdd_on_grid, check_rdd_structure
from dimdecomp.cli import parse_config
name, config, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
cfg = parse_config(json.loads(Path(config).read_text()))
problem, rng = cfg.problem, np.random.default_rng(cfg.seed)
if name == "check_rdd_structure":
    check, table = check_rdd_structure, build_rdd(problem, problem.measure.sample(rng))
else:
    check, table = check_rdd_on_grid, build_add(problem)
if traced:
    tracemalloc.start()
start = time.perf_counter()
got = check(table, seed=cfg.seed)
wall = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1] / 2**20 if traced else None
passed = all(c.passed for c in np.atleast_1d(got))
print(json.dumps({"passed": passed, "peak_mib": peak, "wall_s": wall}))
"""


def write_config(N: int, q: int, workdir: Path) -> Path:
    """The run config of product_linear at (N, q), written to `workdir`."""
    config = workdir / f"config_{N}_{q}.json"
    config.write_text(json.dumps({
        "function": {"name": "product_linear"},
        "dim": N,
        "quad_order": q,
        "mc": {"n_samples": SAMPLES, "seed": 1},
    }))
    return config


def child(code: str, *argv: str) -> dict:
    """The JSON object a fresh process with one BLAS thread prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(command: str, N: int, q: int, workdir: Path) -> tuple[int, float, float]:
    """(exit code, max RSS in MiB, wall seconds) of one fresh-process run."""
    config = write_config(N, q, workdir)
    argv = [command, "--config", str(config), "--out", str(workdir / f"out_{command}")]
    start = time.perf_counter()
    last = child(CHILD, *argv)
    wall = time.perf_counter() - start
    return last["rc"], last["max_rss_mib"], wall


def sweep(N: int, q: int, commands: list[str] = COMMANDS) -> dict:
    by_command = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands:
            runs = [measure(command, N, q, Path(tmp)) for _ in range(REPEATS)]
            by_command[command] = {
                "exit_codes": [rc for rc, _, _ in runs],
                "max_rss_mib": [round(rss, 2) for _, rss, _ in runs],
                "wall_s": round(max(wall for _, _, wall in runs), 2),
            }
    return {
        "N": N,
        "q": q,
        "table_mib": round(prod([q + 1] * N) * 8 / 2**20, 2),
        "by_command": by_command,
    }


def sweep_checks(N: int, q: int) -> dict:
    by_check = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = str(write_config(N, q, Path(tmp)))
        for name in CHECKS:
            traced = [child(CHECK_CHILD, name, config, "1") for _ in range(REPEATS)]
            timed = [child(CHECK_CHILD, name, config, "0") for _ in range(REPEATS)]
            by_check[name] = {
                "passed": [run["passed"] for run in traced + timed],
                "peak_mib": [round(run["peak_mib"], 2) for run in traced],
                "wall_s": [round(run["wall_s"], 2) for run in timed],
            }
    return {"N": N, "q": q, "by_check": by_check}


def main() -> None:
    out = {
        "command": "python3 bench/table_memory.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "samples": SAMPLES,
        "repeats": REPEATS,
        "shapes": [sweep(*shape) for shape in SHAPES],
        "checks": [sweep_checks(*shape) for shape in CHECK_SHAPES],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
