"""Every output of the five subcommands on fixed configs, for a byte-identity
check between two source trees.

For each seed given, ``perfbench.workloads.build("cli_report", seed, dir)``
writes that workload's run configs into ``OUT/seed_<seed>/``; then each
subcommand runs there on its config (``contrived`` takes none) as ``python
-m dimdecomp <command> --config <command>.json --out <command>``, in a
fresh process with one BLAS thread on this tree's ``src/``.  Each config
file given with ``--config`` is copied to ``OUT/<its stem>/config.json``
and runs all five subcommands the same way.  Every output file stays in
its ``<command>/`` directory, and the command's stdout, stderr and exit
code go beside it as ``<command>.stdout``, ``<command>.stderr`` and
``<command>.exit``.  Paths are relative to the run's directory, so the
printed lines do not depend on OUT.

    python3 bench/cli_outputs.py OUT --seeds 11 4271 [--config extra.json ...]

Run it from each of two checkouts into two directories (copy this file into
a checkout that lacks it); ``diff -r OUT_A OUT_B`` lists every byte that
differs.
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ["decompose", "errors", "verify", "figure1", "contrived"]


def _workloads():
    """``perfbench/workloads.py`` of this tree, loaded without touching
    ``sys.path``; it imports ``dimdecomp`` as the caller resolves it."""
    name = "cli_outputs_workloads"
    if name not in sys.modules:  # its dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def run(command: str, config: str | None, rundir: Path) -> None:
    """One subcommand in a fresh process in `rundir`, its output files in
    ``rundir/command`` and its stdout, stderr and exit code beside them."""
    argv = [sys.executable, "-m", "dimdecomp", command, "--out", command]
    if config is not None:
        argv += ["--config", config]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(argv, cwd=rundir, env=env, capture_output=True, text=True)
    (rundir / f"{command}.stdout").write_text(done.stdout)
    (rundir / f"{command}.stderr").write_text(done.stderr)
    (rundir / f"{command}.exit").write_text(f"{done.returncode}\n")


def run_seed(seed: int, out: Path) -> Path:
    """The ``cli_report`` configs of `seed` and the outputs of the five
    subcommands on them, in ``out/seed_<seed>``."""
    rundir = out / f"seed_{seed}"
    rundir.mkdir(parents=True)
    _workloads().build("cli_report", seed, rundir)
    for command in COMMANDS:
        config = f"{command}.json"
        run(command, config if (rundir / config).exists() else None, rundir)
    return rundir


def run_config(path: Path, out: Path) -> Path:
    """The outputs of the five subcommands on one config file, in
    ``out/<its stem>``."""
    rundir = out / path.stem
    rundir.mkdir(parents=True)
    shutil.copyfile(path, rundir / "config.json")
    for command in COMMANDS:
        run(command, "config.json", rundir)
    return rundir


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="a directory that does not exist yet")
    parser.add_argument("--seeds", type=int, nargs="*", default=[], help="cli_report workload seeds")
    parser.add_argument(
        "--config", type=Path, action="append", default=[], help="a further run config"
    )
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))  # the workload's checks import dimdecomp
    args.out.mkdir(parents=True)
    for seed in args.seeds:
        print(run_seed(seed, args.out))
    for path in args.config:
        print(run_config(path, args.out))


if __name__ == "__main__":
    main()
