"""Max RSS of the table subcommands, each run in a fresh process.

For each (N, q, commands) in SHAPES and each subcommand in its commands,
runs ``dimdecomp.cli.main`` on ``product_linear`` (default coefficients,
``SAMPLES`` MC samples for ``verify``) in a fresh Python process with one
BLAS thread, and reads that process's max RSS (``resource.getrusage``)
when the command returns.  Prints one JSON object: per shape, the table
size and per command the exit codes, the max RSS of each of ``REPEATS``
runs in MiB and the wall seconds of the slowest.

    python3 bench/table_memory.py > table_memory.json

Run it on an otherwise idle machine: a table of up to 128 MiB and the
runs of ``verify`` at ``N = 15`` take several seconds each.
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


def measure(command: str, N: int, q: int, workdir: Path) -> tuple[int, float, float]:
    """(exit code, max RSS in MiB, wall seconds) of one fresh-process run."""
    config = workdir / f"{command}_{N}_{q}.json"
    config.write_text(json.dumps({
        "function": {"name": "product_linear"},
        "dim": N,
        "quad_order": q,
        "mc": {"n_samples": SAMPLES, "seed": 1},
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [command, "--config", str(config), "--out", str(workdir / f"out_{command}")]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True, check=True
    )
    wall = time.perf_counter() - start
    last = json.loads(done.stdout.strip().splitlines()[-1])
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


def main() -> None:
    out = {
        "command": "python3 bench/table_memory.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "samples": SAMPLES,
        "repeats": REPEATS,
        "shapes": [sweep(*shape) for shape in SHAPES],
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
