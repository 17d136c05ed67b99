#!/usr/bin/env python3
"""Benchmark runner for dimdecomp (see perfbench/README.md).

Runs one seeded workload in a closed loop, one caller in one process: the
workload's fixed task list is run again and again, each task starting when
the previous one ends, as many times as fill ``--seconds`` at the nominal
pass time.  Every task checks its
answer against an exact value.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

    python3 perfbench/run.py --workload add_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs every workload, timed and traced, each in a fresh
process, and prints every metric by name and unit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many tasks above it
READY = "ready"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mib": "MiB",
    "ok_share": "share",
}


def _pin_threads() -> None:
    """One BLAS/OpenMP thread: the single caller is the only load.  Must run
    before numpy is imported; children inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_program():
    """Import dimdecomp from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dimdecomp

    if src.resolve() not in Path(dimdecomp.__file__).resolve().parents:
        raise ImportError(f"dimdecomp resolved to {dimdecomp.__file__}, not under {src}")
    return dimdecomp


def _workdir():
    """Scratch space for CLI outputs, inside the checkout and removed after."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


# -- setup time ------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the setup measurement: build the task list, say ready."""
    import workloads

    with _workdir() as tmp:
        workloads.build(workload, seed, Path(tmp))
        print(READY, flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until its task list is
    ready, once per probe, probes run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait()
        if line != READY or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc}, said {line!r})")
        times.append(elapsed)
    return times


# -- the closed loop -----------------------------------------------------------------


class Pass:
    """One run of the whole task list."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.z: list[float] = []
        self.gate_misses = 0
        self.layers: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(tasks, tracer=None) -> Pass:
    p = Pass()
    for task in tasks:
        pins = len(tracer.pin_errors) if tracer else 0
        start = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a raising task is a failed task; keep the load going
            p.latencies.append(time.perf_counter() - start)
            p.failures.append(f"{task.shape}: raised {exc!r}")
            continue
        p.latencies.append(time.perf_counter() - start)
        try:
            verdict = task.check(out)
        except Exception as exc:  # an answer the check cannot read is a wrong answer
            p.failures.append(f"{task.shape}: check raised {exc!r}")
            continue
        problems = list(verdict.problems)
        if tracer:
            problems += tracer.pin_errors[pins:]
        if problems:
            p.failures.append(f"{task.shape}: " + "; ".join(problems[:3]))
        if verdict.z is not None:
            p.z.append(verdict.z)
        p.gate_misses += verdict.gate_misses
    return p


def run_loop(tasks, n_passes: int, tracer=None) -> list[Pass]:
    import tracing

    passes = []
    for _ in range(n_passes):
        if tracer is not None:
            tracer.reset()
        p = run_pass(tasks, tracer)
        if tracer is not None:
            p.layers = tracing.layer_metrics(tracer)
        passes.append(p)
    return passes


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND tasks above it
    (nearest rank), and its value."""
    xs = sorted(latencies)
    n = len(xs)
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return pct, xs[rank - 1]


def pass_count(workload: str, n_tasks: int, seconds: float) -> int:
    """Passes that fill `seconds` at the nominal pass time, and enough tasks
    for a tail.  Fixed by the arguments, so every run of a seed makes the
    same passes and reports the same tail percentile."""
    import workloads

    fill = round(seconds / workloads.NOMINAL_PASS_S[workload])
    return max(fill, -(-(TAIL_BEYOND + 1) // n_tasks))


# -- reporting ---------------------------------------------------------------------


def _environment() -> str:
    import numpy

    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, {threads}, loadavg {load}"
    )


def _summarize(passes: list[Pass]) -> tuple[int, int, list[str]]:
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    return attempted, len(failures), failures


def _gate_line(passes: list[Pass]) -> str | None:
    zs = [z for p in passes for z in p.z]
    if not zs:
        return None
    misses = sum(p.gate_misses for p in passes)
    return (f"mc 3-sigma gates: {misses} missed across {len(passes)} passes, "
            f"max |z| {max(zs):.3f} (health, not failures)")


def _result(passes, metrics) -> dict:
    attempted, failed, failures = _summarize(passes)
    for f in failures[:10]:
        print(f"FAILED {f}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_timed(workload: str, seed: int, seconds: float) -> dict:
    import workloads

    setup = measure_setup(workload, seed)
    with _workdir() as tmp:
        tasks = workloads.build(workload, seed, Path(tmp))
        passes = run_loop(tasks, pass_count(workload, len(tasks), seconds))
    lat = [x for p in passes for x in p.latencies]
    pct, tail_s = tail(lat)
    attempted, failed, _ = _summarize(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (attempted - failed) / attempted,
    }
    print(f"{workload} seed {seed}: {_environment()}")
    print(f"  {len(passes)} passes of {len(tasks)} tasks; task_tail_s is p{pct} of n={len(lat)}")
    for i, task in enumerate(tasks):
        own = [p.latencies[i] for p in passes]
        print(f"  task {task.shape}: median {statistics.median(own):.4f} s")
    gate = _gate_line(passes)
    if gate:
        print(f"  {gate}")
    return _result(passes, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()})


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes for half the time, then traced passes; per-layer
    numbers are medians over traced passes, per pass over the task list."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with _workdir() as tmp:
        tasks = workloads.build(workload, seed, Path(tmp))
        half = max(2, round(seconds / 2 / workloads.NOMINAL_PASS_S[workload]))
        plain = run_loop(tasks, half)
        with tracing.install(tracer) as missing:
            traced = run_loop(tasks, half, tracer)
    metrics = {}
    for name in traced[0].layers:
        _, unit, spans = traced[0].layers[name]
        if missing.intersection(spans):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            value = statistics.median(p.layers[name][0] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    zs = [z for p in traced for z in p.z]
    metrics["mc.gate_z_max"] = {"value": max(zs, default=0.0), "unit": "z"}
    metrics["mc.gate_misses"] = {
        "value": statistics.median(p.gate_misses for p in traced), "unit": "count"}
    overhead = (statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in plain) - 1.0)
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
    print(f"{workload} seed {seed} (traced): {_environment()}")
    print(f"  {len(plain)} untraced and {len(traced)} traced passes of {len(tasks)} tasks")
    if missing:
        print(f"  spans with a missing target: {', '.join(sorted(missing))}")
    gate = _gate_line(traced)
    if gate:
        print(f"  {gate}")
    return _result(plain + traced, metrics)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, timed then traced, each in a fresh process."""
    import workloads

    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"  correct {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, m in result["metrics"].items():
                value = "missing" if m["value"] is None else f"{m['value']:.6g}"
                print(f"  {workload:<11} {name:<34} {value:>14} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_threads()
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import dimdecomp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = run_traced if args.trace else run_timed
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
