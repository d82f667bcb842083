#!/usr/bin/env python3
"""talbotsim benchmark: run one study workload in this process and report.

    python3 bench/run.py --workload width-sweep-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each

Run from a talbotsim checkout; talbotsim is imported from its ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Check failures and errors are reported on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("width-sweep-wide", "width-sweep-desk", "oversampling-sweep", "simulate-cli")
#: Set-up is repeated and its median reported, so that one slow start
#: (a cold page cache, a neighbour's burst) does not move ``setup_s``.
SETUP_ROUNDS = 3

END_TO_END = {"setup_s": "s", "spectra_per_s": "1/s", "study_s_p50": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "synthesis.calls": "count",
    "synthesis.self_s": "s",
    "synthesis.samples": "count",
    "synthesis.useful_ratio": "ratio",
    "synthesis.fft_calls": "count",
    "synthesis.peak_mib": "MiB",
    "superposition.calls": "count",
    "superposition.self_s": "s",
    "superposition.time_engine_calls": "count",
    "superposition.spectral_engine_calls": "count",
    "superposition.adds_computed": "count",
    "superposition.fft_calls": "count",
    "superposition.fft_points": "count",
    "superposition.peak_mib": "MiB",
    "analysis.calls": "count",
    "analysis.self_s": "s",
    "analysis.offsets": "count",
    "analysis.fft_calls": "count",
    "analysis.peak_mib": "MiB",
    "fft.calls": "count",
    "fft.self_s": "s",
    "fft.points": "count",
    "fft.flops_computed": "flop",
    "fft.nonsmooth_calls": "count",
    "experiments.calls": "count",
    "experiments.self_s": "s",
    "experiments.cpu_per_wall": "ratio",
    "dispersion.calls": "count",
    "dispersion.self_s": "s",
    "dispersion.lines": "count",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "svgplot.calls": "count",
    "svgplot.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1, help="benchmark seed; all inputs derive from it")
    p.add_argument("--seconds", type=float, default=28.0, help="measure whole rounds for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    return p.parse_args(argv)


def peak_rss_mib() -> float:
    """Peak resident set of this process image (VmHWM).

    Not ``ru_maxrss``: after fork and exec that still holds the peak of
    the parent's pages, so it would read the caller's size, not ours.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def fresh_import():
    """Import numpy and talbotsim in a new interpreter, as a user's run starts."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import numpy, talbotsim.cli"], env=env, check=True)


class Run:
    """Counts, timings and check failures of the study calls of one run."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = self.failed = self.wrong = 0
        self.walls: list[float] = []
        self.spectra = 0

    def timed(self, i, call):
        """One study call; returns (result, wall) or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wl.op(i, call)
        except Exception:  # noqa: BLE001 - one failed operation, reported and counted
            traceback.print_exc()
            self.failed += 1
            return None
        return result, time.perf_counter() - t0

    def judge(self, i, result, wall):
        self.walls.append(wall)
        self.spectra += self.wl.spectra()
        problems = self.wl.check(i, result)
        if problems:
            self.failed += 1
            self.wrong += 1
            for line in problems[:5]:
                print(f"check failed, call {i}: {line}", file=sys.stderr)


def traced(run: Run, i, tracer, memory: bool):
    if memory:
        tracemalloc.start()
    tracer.install()
    try:
        return run.timed(i, tracer.call)
    finally:
        tracer.uninstall()
        if memory:
            tracemalloc.stop()


def measure(run: Run, seconds: float, direct, tracers=None):
    """Closed loop of whole rounds until ``seconds`` have passed.

    With ``tracers`` (timing, memory) each call also runs traced, and in
    the first round once more under ``tracemalloc``, which slows Python
    code several-fold and so gets a pass of its own.  Traced calls must
    reproduce the untraced output: their check compares the two.
    """
    wl = run.wl
    traced_wall = untraced_wall = 0.0
    n_traced = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        for _ in range(wl.round_ops):
            done = run.timed(i, direct)
            if done is not None:
                run.judge(i, *done)
                untraced_wall += done[1]
            if tracers is not None:
                timing, memory = tracers
                done = traced(run, i, timing, memory=False)
                if done is not None:
                    n_traced += 1
                    traced_wall += done[1]
                    timing.extra["cli.bytes_written"] = timing.extra.get("cli.bytes_written", 0) + wl.bytes_written(done[0])
                    run.judge(i, *done)
                if i < wl.round_ops:  # first round only
                    done = traced(run, i, memory, memory=True)
                    if done is not None:
                        run.judge(i, *done)
            i += 1
        if time.perf_counter() >= deadline:
            return n_traced, traced_wall, untraced_wall


def run_one(args) -> int:
    if not (SRC / "talbotsim" / "__init__.py").is_file():
        print(f"bench: no talbotsim sources at {SRC}; run from a talbotsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    wl = workloads.make(args.workload, args.seed)
    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            fresh_import()
            wl.prepare(work)
            wl.warmup()
            setups.append(time.perf_counter() - t0)
        run = Run(wl)
        tracers = (Tracer(), Tracer()) if args.trace else None
        n_traced, traced_wall, untraced_wall = measure(run, args.seconds, workloads.direct, tracers)
    finally:
        wl.cleanup()

    if tracers is not None:
        timing, memory = tracers
        OUT.mkdir(exist_ok=True)
        timing.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        values = timing.metrics(max(n_traced, 1), traced_wall, untraced_wall or float("nan"))
        values.update(memory.peaks_mib())
        metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "spectra_per_s": run.spectra / sum(run.walls) if run.walls else 0.0,
            "study_s_p50": statistics.median(run.walls) if run.walls else float("nan"),
            "peak_rss_mib": peak_rss_mib(),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {"correct": run.wrong == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one result line per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name} {lines[-1] if lines else '(no result)'}")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
