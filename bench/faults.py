#!/usr/bin/env python3
"""Reference figures of two faults the benchmark exposes (neither fixed).

    python3 bench/faults.py

(a) ``synth_carrier`` transforms at n_samples + extra_samples, never
    rounded to a fast length.  At width 4e11 the constant plan's max
    offset makes that 960001 = 7 * 137143: its irfft is timed against the
    5-smooth length 800000, and the scratch it needs is read from the
    peak RSS of a fresh process.
(b) The budget guard ``experiments._predict_bytes`` for the same point,
    against the tracemalloc peak of one sweep job and the peak RSS of the
    sweep with 1 and 2 workers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WIDTH = 4e11

#: Peak and current resident set of this process image, KiB.  VmHWM, not
#: ru_maxrss: after fork and exec, ru_maxrss still counts the parent's pages.
STATUS = """
import re
def status(key):
    with open("/proc/self/status") as fh:
        return int(re.search(key + r":\\s+(\\d+)", fh.read()).group(1))
"""

#: Child process: peak RSS growth of one irfft beyond its input and output.
#: The input and a touched output buffer are resident first, so the
#: process's earlier peak (the imports) stays below the starting point.
IRFFT_SCRATCH = STATUS + """
import sys, numpy as np
n = int(sys.argv[1])
c = np.ones(n // 2 + 1, complex)
out = np.ones(n)
rss = status("VmRSS")
out[:] = np.fft.irfft(c, n=n)
print((status("VmHWM") - rss) / 1024 - n * 8 / 2**20)
"""

#: Child process: peak RSS of the width-4e11 sweep (4 seeds) with N workers.
SWEEP_RSS = STATUS + """
import sys
from talbotsim.experiments import ExperimentConfig, sweep_comb_width
sweep_comb_width(ExperimentConfig(widths=(4e11,), n_seeds=4, workers=int(sys.argv[1])))
print(status("VmHWM") / 1024)
"""


def child(code: str, arg) -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, str(arg)], env=env, check=True, capture_output=True, text=True)
    return float(out.stdout.strip())


def best_time(fn, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def main() -> int:
    sys.path.insert(0, str(SRC))
    import tracemalloc
    from dataclasses import replace

    import numpy as np

    from talbotsim import experiments
    from talbotsim.dispersion import DispersionSpec, delay_plan

    cfg = experiments.ExperimentConfig(widths=(WIDTH,), n_seeds=1, workers=1)
    grid = cfg.grid
    comb = replace(cfg.comb, width=WIDTH)
    extra = max(delay_plan(DispersionSpec(k, comb.f_r, comb.lambda0), comb, grid).max_offset for k in cfg.kinds)
    length = grid.n_samples + extra
    print(f"(a) width {WIDTH:g}: synthesis length {length} = {' * '.join(map(str, factors(length)))}")
    for n in (length, 800000):
        coeff = np.ones(n // 2 + 1, complex)
        t = best_time(lambda: np.fft.irfft(coeff, n=n))
        print(f"    irfft n={n}: {t * 1e3:.1f} ms (best of 5), scratch {child(IRFFT_SCRATCH, n):.1f} MiB")

    predicted = experiments._predict_bytes(grid, extra)
    tracemalloc.start()
    experiments.sweep_comb_width(cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"(b) _predict_bytes {predicted / 2**20:.1f} MiB; tracemalloc peak of one job {peak / 2**20:.1f} MiB")
    for workers in (1, 2):
        print(f"    peak RSS of the 4-seed sweep, {workers} worker(s): {child(SWEEP_RSS, workers):.0f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
