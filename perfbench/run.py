"""fracsis benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The measured work happens in fresh
worker processes (``worker.py``) that import fracsis from ``src/``; this
process only spawns them, then checks every op against the oracles in
``checks.py`` and prints the metrics, one line each, by name and with
its unit.  The last line of standard output is the JSON result.  See
``README.md`` next to this file for every metric and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from worker import host_speed  # noqa: E402

#: fresh interpreters timed from spawn to first timed op; the median is setup_s
SETUP_RUNS = 5
#: a run aborts if its workers have not all exited this long after it started
RUN_LIMIT_S = 160
#: one client, one thread: pinned for every BLAS numpy may load
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: fixed string hashing, so dict and set layout do not vary between runs
HASH_SEED = {"PYTHONHASHSEED": "0"}
#: time of ``worker.calibrate`` on the reference host; timings are scaled to it
REFERENCE_CALIB_S = 2.5e-3
#: when this run started, for RUN_LIMIT_S
STARTED = time.monotonic()


def worker(args, mode: str, out: Path, trace: int = 0) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one worker to completion; returns (spawn time, host calibration just before, process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--mode", mode, "--out", str(out)]
    env = dict(os.environ, **PINNED, **HASH_SEED)
    calib = host_speed()
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - STARTED)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker ({mode}) exited with {proc.returncode}")
    return spawned, calib, proc


def load_records(path: Path) -> list[dict]:
    recs = []
    with open(path, "rb") as fh:
        while True:
            try:
                recs.append(pickle.load(fh))
            except EOFError:
                return recs


def machine_info(args) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": PINNED,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": gen.op_count(args.workload, args.seconds, args.trace),
        "trace": args.trace,
    }


def input_shares(workload: str, recs: list[dict]) -> dict:
    """Input properties of the ops actually run (see README.md)."""
    ops = list({r["op"]["id"]: r["op"] for r in recs}.values())  # traced runs hold each op twice
    seen, repeated, misround, beyond, nodes, n_mix = set(), 0, 0, 0, 0, {}
    for op in ops:
        repeated += op["alpha"] in seen
        seen.add(op["alpha"])
        if op["regime"] in ("sigma1", "c=0"):
            misround += gen.misrounds(op)
        t = np.arange(round(float(op["T"]) / float(op["dt"])) + 1) * float(op["dt"])
        n_mix[t.size - 1] = n_mix.get(t.size - 1, 0) + 1
        radii = []
        if workload == "series_stress":
            radii = [checks.radius(op["alpha"], float(checks.exact_beta(op) * checks.exact_c(op))),
                     checks.radius(op["alpha"], None)]
        elif workload == "paper_sweep":
            c = checks.exact_c(op)
            radii = [checks.radius(op["alpha"], float(checks.exact_beta(op) * c) if c else None)]
        for r in radii:
            beyond += int(np.sum(t > r))
            nodes += t.size
    n = len(ops)
    return {
        "repeated_alpha": repeated / n,
        "misrounded_sigma1": misround / n,
        "nodes_beyond_radius": beyond / nodes if nodes else 0.0,
        "n_mix": {str(k): v / n for k, v in sorted(n_mix.items())},
    }


def per_layer(summary: dict, outcomes: list, recs: list[dict]) -> dict:
    """Per-layer metrics of the traced ops (per-op means unless stated)."""
    spans, counts = summary["spans"], summary["counts"]
    n = summary["traced_ops"]

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def c(name):
        return counts.get(name, 0)

    op_s = s("bench.op")
    layers = {}
    for name, tot in spans.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + tot["self_s"]

    def per_step(kind):
        steps = c(f"solvers.{kind}.steps")
        return s(f"solvers.{kind}") / steps * 1e6 if steps else 0.0

    nodes = c("series.nodes")
    traced_ok = [r["latency"] for r, o in zip(recs, outcomes) if r["traced"] and o[0] == "ok"]
    plain_ok = [r["latency"] for r, o in zip(recs, outcomes) if not r["traced"] and o[0] == "ok"]
    m = {
        "solvers.pece.s": (s("solvers.pece") / n, "s/op"),
        "solvers.pece.steps": (c("solvers.pece.steps") / n, "steps/op"),
        "solvers.pece.us_per_step": (per_step("pece"), "us/step"),
        "solvers.l1.s": (s("solvers.l1") / n, "s/op"),
        "solvers.l1.steps": (c("solvers.l1.steps") / n, "steps/op"),
        "solvers.l1.us_per_step": (per_step("l1"), "us/step"),
        "solvers.caputo_l1.s": (s("solvers.caputo_l1") / n, "s/op"),
        "solvers.history_terms": (c("solvers.history_terms") / n, "terms/op"),
        "coeffs.calls": (c("coeffs.calls") / n, "calls/op"),
        "coeffs.s": ((s("coeffs.euler_alpha") + s("coeffs.a_coeffs")) / n, "s/op"),
        "coeffs.order_sum": (c("coeffs.order_sum") / n, "terms/op"),
        "series.build.s": (s("series.build") / n, "s/op"),
        "series.sample.s": (s("series.sample") / n, "s/op"),
        "series.nodes": (nodes / n, "nodes/op"),
        "series.terms": (c("series.terms") / n, "terms/op"),
        "series.converged_ratio": (c("series.converged") / nodes if nodes else 0.0, "ratio"),
        "series.beyond_radius_ratio": (c("series.beyond") / nodes if nodes else 0.0, "ratio"),
        "specfn.ml.calls": (c("specfn.ml.calls") / n, "calls/op"),
        "specfn.ml.s": (s("specfn.ml") / n, "s/op"),
        "specfn.ml.raised": (c("specfn.ml.raised") / n, "calls/op"),
        "model.derive.calls": (c("model.derive.calls") / n, "calls/op"),
        "model.rhs.calls": (c("model.rhs.calls") / n, "calls/op"),
        "harness.self_s": (layers.get("harness", 0.0) / n, "s/op"),
        "harness.emit.calls": (c("harness.emit.calls") / n, "calls/op"),
        "harness.emit.s": (s("harness.emit") / n, "s/op"),
        "harness.emit.bytes": (c("harness.emit.bytes") / n, "B/op"),
        "cli.self_s": (layers.get("cli", 0.0) / n, "s/op"),
        "check.failed.raised": (sum(o[0] == "raised" for o in outcomes), "ops"),
        "check.failed.wrong": (sum(o[0] == "wrong" for o in outcomes), "ops"),
        "trace.overhead_ratio": (
            statistics.median(traced_ok) / statistics.median(plain_ok)
            if traced_ok and plain_ok else 1.0, "ratio"),
    }
    for layer in ("solvers", "coeffs", "series", "specfn", "model", "harness", "cli", "bench"):
        m[f"{layer}.share"] = (layers.get(layer, 0.0) / op_s if op_s else 0.0, "ratio")
    return m


def host_factors(n: int, calib_at: list) -> list[float]:
    """Per op, ``REFERENCE_CALIB_S`` over the host calibration around it.

    ``calib_at`` holds (ops run before it, calibration time) in order, the
    last one made after the last op.  Op i lies between the last
    calibration made before it and the next one; the factor uses the
    geometric mean of the two.
    """
    factors, j = [], 0
    for i in range(n):
        while calib_at[j + 1][0] <= i:
            j += 1
        factors.append(REFERENCE_CALIB_S / math.sqrt(calib_at[j][1] * calib_at[j + 1][1]))
    return factors


def window_rates(scaled: list[float], outcomes: list, size: int) -> list[float]:
    """Rate of passing ops per second of host-scaled op time, per window of ``size`` ops.

    ops_per_s is the median window, so a stall of the host moves only the
    window it falls in.
    """
    return [sum(o[0] == "ok" for o in outcomes[k:k + size]) / sum(scaled[k:k + size])
            for k in range(0, len(scaled), size)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fracsis" / "__init__.py").is_file():
        print(f"perfbench: no fracsis sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outdir = HERE / "out"
    run_dir = outdir / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_RUNS - 1):
                spawned, before, proc = worker(args, "setup", run_dir / f"setup-{k}")
                ready = json.loads(proc.stdout.splitlines()[-1])
                setups.append((ready["ready"] - spawned, math.sqrt(before * ready["calib_s"])))
        spawned, before, _ = worker(args, "run", run_dir, args.trace)
        summary = json.loads((run_dir / "summary.json").read_text())
        setups.append((summary["ready"] - spawned, math.sqrt(before * summary["setup_calib_s"])))
        recs = load_records(run_dir / "records.pkl")
        outcomes = [checks.check(args.workload, r) for r in recs]
        shares = input_shares(args.workload, recs)
        if args.trace:
            shutil.copy(run_dir / "spans.jsonl", outdir / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(recs)
    failed = [(r, o) for r, o in zip(recs, outcomes) if o[0] != "ok"]
    unexpected = [(r, o) for r, o in failed if o[2] is None]
    ok_lat = sorted(r["latency"] * 1e3 for r, o in zip(recs, outcomes) if o[0] == "ok")
    info = machine_info(args)
    print(f"# machine {json.dumps(info)}")
    print(f"# inputs {json.dumps(shares)}")
    print(f"# ops attempted {attempted}, passed {len(ok_lat)}, failed {len(failed)}"
          f" ({len(unexpected)} not a known defect)")
    known = Counter(o[2] for _, o in failed if o[2])
    for what, k in sorted(known.items()):
        print(f"#   failed, known defect: {k} x {what}")
    for r, o in unexpected[:5]:
        print(f"#   failed, unexpected: op {r['op']['id']} {o[0]}: {o[1]}")

    if args.trace:
        metrics = per_layer(summary, outcomes, recs)
    else:
        if not ok_lat:
            print("perfbench: no op passed its checks", file=sys.stderr)
            return 1
        # timings are scaled by the host's speed, measured by the calibration
        # kernel just before and just after each (README, "Host speed")
        factors = host_factors(len(recs), summary["calib_at"])
        scaled = [r["latency"] * f for r, f in zip(recs, factors)]
        windows = window_rates(scaled, outcomes, gen.window_ops(args.workload))
        raw = {
            "setup_s": statistics.median(s for s, _ in setups),
            "ops_per_s": len(ok_lat) / summary["op_s"],
            "latency_p50_ms": statistics.median(ok_lat),
        }
        metrics = {
            "setup_s": (statistics.median(s * REFERENCE_CALIB_S / c for s, c in setups), "s"),
            "ops_per_s": (statistics.median(windows), "1/s"),
            "latency_p50_ms": (statistics.median(
                x * 1e3 for x, o in zip(scaled, outcomes) if o[0] == "ok"), "ms"),
            "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
        }
        print(f"# host: calibration kernel {summary['calib_s'] * 1e3:.4g} ms (median of"
              f" {summary['calibrations']}), reference {REFERENCE_CALIB_S * 1e3:g} ms")
        print("# unscaled: " + ", ".join(
            f"{k} {v:.6g} {metrics[k][1]}" for k, v in raw.items()))
        print(f"error_rate {len(failed) / attempted:.6g} ratio  ({len(failed)}/{attempted} ops)")
        if len(ok_lat) >= 100:
            print(f"latency_p90_ms {float(np.percentile(ok_lat, 90)):.6g} ms"
                  f"  ({len(ok_lat)} samples)")
        else:
            print(f"latency_p90_ms not reported: {len(ok_lat)} samples < 100")
        print(f"# latency samples {len(ok_lat)}; setup runs {len(setups)};"
              f" throughput windows {len(windows)} of {gen.window_ops(args.workload)} ops")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    unscaled = {} if args.trace else {"unscaled": raw, "calib_s": summary["calib_s"]}
    (outdir / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"machine": info, "inputs": shares, **unscaled, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
