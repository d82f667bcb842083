#!/usr/bin/env python3
"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Runs each workload at toy size through its checks, untraced and traced,
then shows that every check trips on a deliberately perturbed output.
Exits 0 when every line reads PASS.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

WORK = HERE / "out" / "selftest"
passed: list[bool] = []


def expect(title: str, ok: bool, detail=""):
    passed.append(bool(ok))
    print(f"{'PASS' if ok else 'FAIL'}  {title}{'' if ok or not detail else f': {detail}'}")


def trips(problems, word: str) -> bool:
    return any(word in p for p in problems)


def toy_runs() -> dict:
    """Two rounds of every toy workload, then one traced call; keep outputs."""
    kept = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, seed=7, toy=True)
        wl.prepare(WORK / name)
        problems = []
        for i in range(2 * len(wl.seeds) * wl.round_ops):
            result = wl.op(i, workloads.direct)
            if i == 0 and name != "simulate-cli":
                kept[name] = result
            problems += wl.check(i, result)
        expect(f"{name}: toy run passes its checks", not problems, problems[:3])
        tracer = Tracer()
        tracer.install()
        try:
            result = wl.op(0, tracer.call)
        finally:
            tracer.uninstall()
        problems = wl.check(0, result)
        metrics = tracer.metrics(1, 1.0, 1.0)
        expect(f"{name}: traced call reproduces the untraced output", not problems, problems[:3])
        expect(f"{name}: trace saw study spans", metrics["fft.calls"] > 0 and metrics["analysis.calls"] > 0, metrics)
        wl.cleanup()
    return kept


def perturbed(table: dict, key, shift_db: float) -> dict:
    out = {k: v.copy() for k, v in table.items()}
    out[key] = out[key] + shift_db
    return out


def width_checks(rows):
    oracle = workloads.oracle()
    table = checks.rows_table(rows)
    below = {k: np.full_like(v, oracle.l_db(k[1], k[0], [k[2]])[0] - 20.0) for k, v in table.items()}
    expect("L 20 dB below the oracle trips", trips(checks.check_width_sweep(below, oracle), "vs oracle"))
    # Built from the oracle itself, so the constant plan reads its oracle.
    exact = {k: np.full_like(v, oracle.l_db(k[1], k[0], [k[2]])[0]) for k, v in table.items()}
    expect("rows on the oracle pass", not checks.check_width_sweep(exact, oracle))
    w = max(k[0] for k in table)
    raised = dict(exact)
    raised[(w, "ideal", 1e4)] = exact[(w, "constant", 1e4)] + 5.0
    expect("L(ideal) above L(constant) + 1 dB trips", trips(checks.check_width_sweep(raised, oracle), "L(ideal)"))
    # A 100 MHz comb: f * max_delay = 0.001 at 1 kHz, so L must be S_phi/2.
    free = {(1e8, "ideal", 1e3): np.full(4, oracle.half_sphi_db([1e3])[0] + 10.0)}
    expect("L 10 dB above S_phi/2 where nothing is suppressed trips", trips(checks.check_width_sweep(free, oracle), "S_phi/2"))


def oversampling_checks(rows):
    wl = workloads.make("oversampling-sweep", seed=7, toy=True)
    table = checks.rows_table(rows)
    n = min(k[0] for k in table)
    bad = perturbed(table, (n, "impaired", 1e4), 10.0)
    expect("impaired L 10 dB above S_phi/2 trips", trips(checks.check_oversampling_sweep(bad, wl.oracle_for_ratio), "S_phi/2"))
    bad = dict(table)
    bad[(n, "pure_tone", 1e6)] = table[(n, "impaired", 1e6)] - 5.0
    expect("pure tone within 10 dB of the carrier trips", trips(checks.check_oversampling_sweep(bad, wl.oracle_for_ratio), "pure tone"))
    hi = max(k[0] for k in table)
    bad = dict(table)
    bad[(hi, "pure_tone", 1e4)] = table[(n, "pure_tone", 1e4)] + 1.0
    expect("pure-tone floor rising with N trips", trips(checks.check_oversampling_sweep(bad, wl.oracle_for_ratio), "does not fall"))


def determinism_check(rows):
    wl = workloads.make("oversampling-sweep", seed=7, toy=True)
    wl.check(0, rows)
    r = rows[-1]
    changed = rows[:-1] + [type(r)(**{**r.__dict__, "per_seed": tuple(v + 1e-9 for v in r.per_seed)})]
    expect("a repeat call with other rows trips", trips(wl.check(2, changed), "differ"))


def rewrite(out: Path, name: str, text: str):
    """Replace a file and keep the manifest consistent with it."""
    (out / name).write_text(text)
    manifest = json.loads((out / "manifest.json").read_text())
    for item in manifest["files"]:
        if item["name"] == name:
            item["sha256"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def simulate_checks():
    wl = workloads.make("simulate-cli", seed=7)
    wl.prepare(WORK / "simulate-perturbed")

    def fresh(i=0):
        code, out = wl.op(i, workloads.direct)
        return code, out, lambda: checks.check_simulate(out, wl.KINDS[i], wl.oracle, wl.WIDTH, wl.BAND)

    code, out, check = fresh()
    expect("simulate output passes before perturbing", code == 0 and not check())
    (out / "jitter.csv").write_text((out / "jitter.csv").read_text() + "\n")
    expect("a corrupted manifest hash trips", trips(check(), "manifest hash"))

    code, out, check = fresh()
    head, row = (out / "jitter.csv").read_text().splitlines()
    parts = row.split(",")
    parts[2] = f"{float(parts[2]) * 1.01:.10g}"
    rewrite(out, "jitter.csv", f"{head}\n{','.join(parts)}\n")
    expect("jitter.csv off the spectrum's integral trips", trips(check(), "jitter.csv"))

    code, out, check = fresh()
    lines = (out / "spectrum.csv").read_text().splitlines()
    f = np.array([float(x.split(",")[0]) for x in lines[1:]])
    low = wl.oracle.l_db(wl.KINDS[0], wl.WIDTH, f) - 20.0
    rewrite(out, "spectrum.csv", lines[0] + "\n" + "".join(f"{a:.10g},{b:.10g}\n" for a, b in zip(f, low)))
    expect("spectrum 20 dB below the oracle trips", trips(check(), "oracle"))

    code, out, check = fresh(3)
    lines = (out / "spectrum.csv").read_text().splitlines()
    shifted = [f"{x.split(',')[0]},{float(x.split(',')[1]) + 10:.10g}" for x in lines[1:]]
    rewrite(out, "spectrum.csv", "\n".join([lines[0]] + shifted) + "\n")
    problems = checks.check_simulate(out, "none", wl.oracle, wl.WIDTH, wl.BAND)
    expect("undispersed spectrum 10 dB off S_phi/2 trips", trips(problems, "S_phi/2"))

    expect("a non-zero exit code trips", trips(wl.check(0, (1, out)), "exited"))
    first = wl.op(0, workloads.direct)
    wl.check(0, first)
    again = wl.op(0, workloads.direct)
    rewrite(again[1], "spectrum.svg", (again[1] / "spectrum.svg").read_text() + " ")
    expect("a repeat call with other bytes trips", trips(wl.check(0, again), "differ"))
    wl.cleanup()


def main() -> int:
    kept = toy_runs()
    width_checks(kept["width-sweep-wide"])
    oversampling_checks(kept["oversampling-sweep"])
    determinism_check(kept["oversampling-sweep"])
    simulate_checks()
    print(f"{sum(passed)}/{len(passed)} passed")
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
