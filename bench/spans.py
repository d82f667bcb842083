"""Span tracer the benchmark wraps around talbotsim's layers, from outside.

While installed, every public function of each layer module is replaced,
in the namespaces of the *other* talbotsim modules, by a wrapper that
records a span: name, layer, start, end, parent, thread.  Calls inside a
module stay unwrapped, so a span is one entry into a layer.  The
``numpy.fft`` transforms are wrapped too and become child spans of the
layer that called them.  ``model`` holds types and is not wrapped: its
``comb_lines`` runs inside ``dispersion.delay_plan`` and counts there.

Spans are kept in memory and written out as JSON lines at the end.  A
span's self time is its duration minus the part of it covered by child
spans; spans that worker threads open with nothing open on their own
thread are children of the outermost open span (the study call).
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("dispersion", "synthesis", "superposition", "analysis", "experiments", "cli", "svgplot")
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    peak: int = 0
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)


def _largest_prime_factor(n: int) -> int:
    best, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            best, n = p, n // p
        p += 1
    return max(best, n)


def _fft_length(name, args, kwargs) -> int:
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    m = np.shape(args[0])[-1]
    return 2 * (m - 1) if name == "irfft" else m


def _count_fft(counts, name, args, kwargs, result):
    n = _fft_length(name, args, kwargs)
    counts["points"] = n
    counts["flops"] = 2.5 * n * math.log2(n) if n > 1 else 0.0
    counts["nonsmooth"] = int(_largest_prime_factor(n) > 7)


def _count_plan(counts, name, args, kwargs, result):
    counts["lines"] = len(result)


def _count_synth(counts, name, args, kwargs, result):
    counts["samples"] = len(result.samples)
    counts["window"] = args[0].grid.n_samples


def _count_superpose(counts, name, args, kwargs, result):
    plan = args[1]
    engine = kwargs.get("engine", args[2] if len(args) > 2 else None)
    if name.endswith("superpose_time"):
        engine = "time"
    elif name.endswith("superpose_spectral"):
        engine = "spectral"
    elif engine is None:
        choose = getattr(sys.modules["talbotsim.superposition"], "choose_engine", None)
        engine = choose(plan.grid.n_samples, len(plan)) if choose else "unknown"
    counts["engine"] = engine
    if engine == "time":
        counts["adds"] = len(np.unique(plan.offsets)) * plan.grid.n_samples


def _count_spectrum(counts, name, args, kwargs, result):
    counts["offsets"] = len(result.offsets)


COUNTERS = {
    "dispersion.delay_plan": _count_plan,
    "synthesis.synth_carrier": _count_synth,
    "superposition.superpose": _count_superpose,
    "superposition.superpose_time": _count_superpose,
    "superposition.superpose_spectral": _count_superpose,
    "analysis.phase_noise_spectrum": _count_spectrum,
}


class Tracer:
    """Records spans around layer calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.extra: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: dict[int, Span] = {}
        self._root: Span | None = None
        self._t0 = time.perf_counter()
        self._wrappers: dict = {}
        self._patches: list = []

    # -- recording ---------------------------------------------------
    def _mark_peak(self):
        # tracemalloc keeps one process-wide peak; fold it into every open
        # span at each boundary, then restart it.
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            for span in self._open.values():
                span.peak = max(span.peak, peak)
            tracemalloc.reset_peak()
            return cur
        return 0

    def _enter(self, name: str, layer: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            cur = self._mark_peak()
            parent = stack[-1] if stack else self._root
            span = Span(
                id=len(self.spans) + len(self._open),
                name=name,
                layer=layer,
                parent=parent.id if parent else None,
                thread=threading.get_ident(),
                start=time.perf_counter(),
                peak=cur,
                cpu=time.process_time(),
            )
            self._open[span.id] = span
            if self._root is None:
                self._root = span
        stack.append(span)
        return span

    def _exit(self, span: Span):
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        self._local.stack.pop()
        with self._lock:
            self._mark_peak()
            del self._open[span.id]
            if self._root is span:
                self._root = None
            self.spans.append(span)

    def _wrap(self, name: str, layer: str, fn, counter):
        def wrapper(*args, **kwargs):
            span = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter is not None:
                counter(span.counts, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------
    def install(self):
        """Patch layer functions into every other talbotsim module, and numpy.fft."""
        import numpy.fft

        modules = {n: m for n, m in sys.modules.items() if n == "talbotsim" or n.startswith("talbotsim.")}
        home = {}
        for layer in LAYERS:
            mod = modules[f"talbotsim.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    self._wrappers[obj] = self._wrap(name, layer, obj, COUNTERS.get(name))
                    home[obj] = mod
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers and home[obj] is not mod:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])
        for attr in FFT_NAMES:
            fn = getattr(numpy.fft, attr)
            self._patches.append((numpy.fft, attr, fn))
            setattr(numpy.fft, attr, self._wrap(f"fft.{attr}", "fft", fn, _count_fft))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def call(self, fn, *args, **kwargs):
        """Call a layer function from the benchmark through its wrapper."""
        return self._wrappers.get(fn, fn)(*args, **kwargs)

    # -- results -----------------------------------------------------
    def self_times(self) -> dict[int, float]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def metrics(self, n_ops: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer counts and self times, each per study call."""
        by_id = {s.id: s for s in self.spans}
        selft = self.self_times()
        m: dict[str, float] = defaultdict(float)
        window = cpu = wall = 0.0
        for s in self.spans:
            m[f"{s.layer}.calls"] += 1
            m[f"{s.layer}.self_s"] += selft[s.id]
            c = s.counts
            if s.layer == "fft":
                m["fft.points"] += c["points"]
                m["fft.flops_computed"] += c["flops"]
                m["fft.nonsmooth_calls"] += c["nonsmooth"]
                owner = by_id[s.parent].layer if s.parent in by_id else None
                if owner in ("synthesis", "superposition", "analysis"):
                    m[f"{owner}.fft_calls"] += 1
                if owner == "superposition":
                    m["superposition.fft_points"] += c["points"]
            elif s.name.startswith("experiments.sweep_"):
                cpu += s.cpu
                wall += s.end - s.start
            m["synthesis.samples"] += c.get("samples", 0)
            window += c.get("window", 0)
            m["dispersion.lines"] += c.get("lines", 0)
            m["analysis.offsets"] += c.get("offsets", 0)
            m["superposition.adds_computed"] += c.get("adds", 0)
            if "engine" in c:
                m[f"superposition.{c['engine']}_engine_calls"] += 1
        for key, value in self.extra.items():
            m[key] += value
        for key in list(m):
            m[key] /= n_ops
        m["synthesis.useful_ratio"] = window / (m["synthesis.samples"] * n_ops) if window else 0.0
        m["experiments.cpu_per_wall"] = cpu / wall if wall else 0.0
        m["trace.overhead_ratio"] = traced_wall / untraced_wall
        return dict(m)

    def peaks_mib(self) -> dict[str, float]:
        """Largest tracemalloc peak seen during each layer's spans."""
        m = {f"{layer}.peak_mib": 0.0 for layer in ("synthesis", "superposition", "analysis")}
        for s in self.spans:
            key = f"{s.layer}.peak_mib"
            if key in m:
                m[key] = max(m[key], s.peak / 2**20)
        return m

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "id": s.id, "name": s.name, "layer": s.layer, "parent": s.parent, "thread": s.thread,
                    "start": s.start - self._t0, "end": s.end - self._t0, "peak_bytes": s.peak,
                    "cpu_s": s.cpu, **s.counts,
                }
                fh.write(json.dumps(rec) + "\n")
