"""The measured process: one client running one workload as a closed loop.

    python3 perfbench/worker.py --workload W --seed S --seconds X \
        --trace 0|1 --mode setup|run --out DIR

The worker imports fracsis from ``src/`` of the checkout, draws its inputs
from the seed, runs one warm-up op and then reports the monotonic time at
which it is ready for the first timed op, with the time of the
calibration kernel just after.  In ``setup`` mode it stops there.  In
``run`` mode it runs a fixed number of ops back to back, as many as take
about X seconds at the seed commit (``gen.op_count``), timing each one, and
streams every op's inputs and outputs to ``DIR/records.pkl`` (outside the
timed region) so that the checks can run in another process.  Between
ops it recalibrates every 50 ms of loop time, and once more after the
last op, noting how many ops came before each calibration.  Nothing
is checked here.

With ``--trace 1`` every op runs twice, once untraced and once traced,
in alternating order.  For the traced pass, wrappers are installed on the
module attributes through which callers reach each layer's public
functions (``harness.solve_pece``, ``harness.mittag_leffler``, ...), and
removed again afterwards.  Spans (name, start, end,
parent, op id) are kept in memory and written to ``DIR/spans.jsonl`` at
the end, with the per-layer totals in ``DIR/summary.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

#: loop time between two runs of the calibration kernel
CALIBRATE_EVERY_S = 0.05
#: kernel runs per calibration; a calibration is their median
KERNELS = 3


def import_fracsis():
    """Import the package from the checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fracsis" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fracsis sources under {src}")
    sys.path.insert(0, str(src))
    import fracsis
    import fracsis.cli

    if Path(fracsis.__file__).resolve().parent != (src / "fracsis").resolve():
        raise SystemExit(f"perfbench: fracsis imported from {fracsis.__file__}, not {src}")
    return fracsis


def calibrate() -> float:
    """Seconds taken by a fixed kernel of benchmark code that calls no fracsis.

    It mixes what fracsis ops do, scalar Python arithmetic and small numpy
    array expressions, so that its time follows the speed the host gives
    this process from one moment to the next.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for n in range(1, 200):
        j = np.arange(n + 1, dtype=float)
        w = (n + 1 - j) ** 0.7 - (n - j) ** 0.7
        acc += float(w @ w)
        for k in range(30):
            acc += math.exp(-k * 1e-3) * k
    return time.perf_counter() - t0


def host_speed() -> float:
    """One calibration: the median time of ``KERNELS`` runs of ``calibrate``."""
    return statistics.median(calibrate() for _ in range(KERNELS))


# ---------------------------------------------------------------------------
# the ops, one function per workload; each returns the outputs to be checked


def paper_op(fx, op: dict, scratch: Path) -> dict:
    """One full cross-check: series, PECE and L1 plus compare_methods."""
    if op["cli"]:
        out_dir = scratch / f"cli-{op['id']}"
        argv = [
            "compare", "--beta", op["beta"], "--gamma", op["gamma"], "--mu", op["mu"],
            "--alpha", repr(op["alpha"]), "--i0", repr(op["i0"]), "--T", op["T"],
            "--dt", op["dt"], "--terms", str(op["terms"]), "--methods", "series,pece,l1",
            "--out", str(out_dir), "--formats", "csv,json",
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = fx.cli.main(argv)
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "dir": str(out_dir)}
    cfg = fx.harness.config_from_dict({
        "beta": float(op["beta"]), "gamma": float(op["gamma"]), "mu": float(op["mu"]),
        "alpha": op["alpha"], "i0": op["i0"], "T": float(op["T"]), "dt": float(op["dt"]),
        "terms": op["terms"], "methods": ["series", "pece", "l1"],
    })
    trajs = fx.harness.run_methods(cfg)
    report = fx.harness.compare_methods(trajs, op["alpha"])
    series = trajs[fx.Method.SERIES]
    return {
        "u": {m.value: t.u for m, t in trajs.items()},
        "kind": series.meta["kind"],
        "converged": series.meta["converged"],
        "beyond": series.meta["beyond_theoretical_radius"],
        "pairs": report.pairs,
    }


def long_op(fx, op: dict, scratch: Path) -> dict:
    """PECE and L1 on a long horizon, then the L1 residual of both."""
    alpha, dt = op["alpha"], float(op["dt"])
    params = fx.model.ModelParams(
        float(op["beta"]), float(op["gamma"]), float(op["mu"]), alpha, op["i0"]
    )
    f = fx.model.logistic_rhs(params, fx.model.derive(params))
    grid = fx.solvers.TimeGrid(float(op["T"]), dt)
    pece = fx.solvers.solve_pece(f, op["i0"], grid, alpha)
    l1 = fx.solvers.solve_l1(f, op["i0"], grid, alpha)
    return {
        "pece": pece.u,
        "l1": l1.u,
        "d_pece": fx.solvers.discrete_caputo_l1(pece.u, alpha, dt),
        "d_l1": fx.solvers.discrete_caputo_l1(l1.u, alpha, dt),
    }


def stress_op(fx, op: dict, scratch: Path) -> dict:
    """Both MAX_ORDER tables sampled on a fine grid, plus N(t).

    The three parts are independent, so each runs even when another one
    raises; the op fails if any part does.
    """
    alpha, K = op["alpha"], op["terms"]
    grid = fx.solvers.TimeGrid(float(op["T"]), float(op["dt"]))
    out: dict = {"raised": {}}

    def part(name, fn):
        try:
            out[name] = fn()
        except Exception as e:  # a refusal is an outcome to be checked
            out["raised"][name] = f"{type(e).__name__}: {e}"

    def carrying():
        table = fx.coeffs.euler_alpha(alpha, K)
        params = fx.model.ModelParams(
            float(op["beta"]), float(op["gamma"]), float(op["mu"]), alpha, op["i0"]
        )
        sol = fx.series.carrying_capacity_series(fx.model.derive(params), alpha, table)
        return _series_out(table, sol, fx.series.sample_trajectory(sol, grid))

    def zero():
        table = fx.coeffs.a_coeffs(alpha, K)
        sol = fx.series.zero_capacity_series(float(op["beta0"]), alpha, table)
        return _series_out(table, sol, fx.series.sample_trajectory(sol, grid))

    part("carrying", carrying)
    part("zero", zero)
    part("population", lambda: fx.harness.population_curve(
        alpha, float(op["lam"]), float(op["pop_mu"]), 1.0, grid))
    return out


def _series_out(table, sol, traj) -> dict:
    return {
        "table": table.values,
        "scale_c": sol.scale_c,
        "arg_scale": sol.arg_scale,
        "radius": sol.radius.theoretical,
        "u": traj.u,
        "converged": traj.meta["converged"],
        "beyond": traj.meta["beyond_theoretical_radius"],
        "terms": traj.meta["terms_used"],
    }


OPS = {"paper_sweep": paper_op, "long_horizon": long_op, "series_stress": stress_op}


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Span recorder driven by wrappers installed on module attributes.

    A span is ``(name, start, end, parent, op)``; ``parent`` indexes the
    enclosing span or is -1.  Calls that happen thousands of times per op
    (``mittag_leffler``, ``derive``, ``logistic_rhs``) are folded: one
    span per (parent, name) whose length is the summed call time, plus a
    call count, so that self times stay exact without a span per call.
    """

    def __init__(self, fx):
        self.spans: list[tuple] = []
        self.folds: dict[tuple, list] = {}
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self._bindings: list[tuple] = []
        mods = [fx, fx.cli, fx.harness, fx.model, fx.series, fx.solvers, fx.specfn, fx.coeffs]
        for mod_name, attr, span, fold, after in self._targets():
            fn = getattr(getattr(fx, mod_name), attr)
            wrapper = self._wrap(span, fn, fold, after)
            for mod in mods:
                for name, val in vars(mod).items():
                    if val is fn:
                        self._bindings.append((mod, name, fn, wrapper))

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _targets(self):
        c = self.count

        def steps(kind, history):
            def after(res, args):
                n = args[2].N
                c(f"solvers.{kind}.steps", n)
                c("solvers.history_terms", history(n))
                return res
            return after

        def caputo(res, args):
            m = len(args[0]) - 1
            c("solvers.caputo_l1.steps", m)
            c("solvers.history_terms", m * (m + 1) // 2)
            return res

        def table(res, args):
            c("coeffs.calls")
            c("coeffs.order_sum", res.order)
            return res

        def sample(res, args):
            meta = res.meta
            c("series.nodes", len(meta["converged"]))
            c("series.terms", sum(meta["terms_used"]))
            c("series.converged", sum(meta["converged"]))
            c("series.beyond", sum(meta["beyond_theoretical_radius"]))
            return res

        def emit(res, args):
            c("harness.emit.calls")
            c("harness.emit.bytes", sum(os.path.getsize(p) for p in res))
            return res

        def rhs(f, args):
            @functools.wraps(f)
            def counted(i):
                c("model.rhs.calls")
                return f(i)
            return counted

        # (module, attribute, span name, folded, after-hook); a hook sees the
        # result and the positional arguments and returns the result
        return [
            ("cli", "main", "cli.main", False, None),
            ("harness", "config_from_dict", "harness.config_from_dict", False, None),
            ("harness", "run_methods", "harness.run_methods", False, None),
            ("harness", "solve_method", "harness.solve_method", False, None),
            ("harness", "compare_methods", "harness.compare_methods", False, None),
            ("harness", "population_curve", "harness.population_curve", False, None),
            ("harness", "emit", "harness.emit", False, emit),
            ("solvers", "solve_pece", "solvers.pece", False,
             steps("pece", lambda n: n * (n + 2))),
            ("solvers", "solve_l1", "solvers.l1", False,
             steps("l1", lambda n: n * (n + 1) // 2)),
            ("solvers", "discrete_caputo_l1", "solvers.caputo_l1", False, caputo),
            ("coeffs", "euler_alpha", "coeffs.euler_alpha", False, table),
            ("coeffs", "a_coeffs", "coeffs.a_coeffs", False, table),
            ("series", "carrying_capacity_series", "series.build", False, None),
            ("series", "zero_capacity_series", "series.build", False, None),
            ("series", "rescaled_zero_capacity_series", "series.build", False, None),
            ("series", "sample_trajectory", "series.sample", False, sample),
            ("specfn", "mittag_leffler", "specfn.ml", True, None),
            ("model", "derive", "model.derive", True, None),
            ("model", "logistic_rhs", "model.logistic_rhs", True, rhs),
        ]

    def _wrap(self, name, fn, fold, after):
        spans, stack, folds, clock = self.spans, self.stack, self.folds, time.perf_counter

        if fold:
            @functools.wraps(fn)
            def folded(*args, **kwargs):
                key = (stack[-1] if stack else -1, name)
                acc = folds.get(key)
                if acc is None:
                    acc = folds[key] = [0, 0.0, clock(), 0]
                t0 = clock()
                try:
                    res = fn(*args, **kwargs)
                except Exception:
                    acc[3] += 1
                    raise
                finally:
                    acc[0] += 1
                    acc[1] += clock() - t0
                return after(res, args) if after else res
            return folded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent, self.op)
                stack.pop()
            return after(res, args) if after else res
        return wrapper

    def install(self) -> None:
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn, _ in self._bindings:
            setattr(mod, name, fn)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.spans.append(None)
        self.stack.append(len(self.spans) - 1)
        self._t0 = time.perf_counter()

    def end_op(self) -> None:
        idx = self.stack.pop()
        self.spans[idx] = ("bench.op", self._t0, time.perf_counter(), -1, self.op)
        for (parent, name), (n, total, start, raised) in self.folds.items():
            self.spans.append((name, start, start + total, parent, self.op))
            self.count(f"{name}.calls", n)
            self.count(f"{name}.raised", raised)
        self.folds.clear()

    def layer_totals(self) -> dict:
        """Per span name: summed duration and summed self time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            tot = out.setdefault(name, {"s": 0.0, "self_s": 0.0})
            tot["s"] += t1 - t0
            tot["self_s"] += t1 - t0 - child[k]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    fx = import_fracsis()
    stream = gen.Stream(args.workload, args.seed)
    run_op = OPS[args.workload]
    scratch = args.out / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run_op(fx, stream.warm_up, scratch)
    except Exception:
        pass  # the warm-up only has to exercise the code paths
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_calib = host_speed()
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "calib_s": setup_calib}))
        return 0

    tracer = Tracer(fx) if args.trace else None
    ops, op_s, calibs, next_calib = 0, 0.0, [], 0.0
    with open(args.out / "records.pkl", "wb") as rec:
        start = time.perf_counter()
        for _ in range(gen.op_count(args.workload, args.seconds, args.trace)):
            if time.perf_counter() >= next_calib:
                calibs.append((ops, host_speed()))
                next_calib = time.perf_counter() + CALIBRATE_EVERY_S
            op = stream.next()
            # traced runs time each op twice, untraced and traced, in
            # alternating order, so the tracing overhead is a paired ratio
            passes = [False] if tracer is None else [op["id"] % 2 == 1, op["id"] % 2 == 0]
            for traced in passes:
                if traced:
                    tracer.install()
                    tracer.begin_op(op["id"])
                t0 = time.perf_counter()
                try:
                    out, error = run_op(fx, op, scratch), None
                except Exception as e:  # a refusal is an outcome to be checked
                    out, error = None, f"{type(e).__name__}: {e}"
                latency = time.perf_counter() - t0
                if traced:
                    tracer.end_op()
                    tracer.uninstall()
                ops += 1
                op_s += latency
                pickle.dump({"op": op, "out": out, "error": error, "latency": latency,
                             "traced": traced}, rec, protocol=pickle.HIGHEST_PROTOCOL)
        end = time.perf_counter()
        calibs.append((ops, host_speed()))  # so that the last ops are bracketed too
    summary = {
        "ready": ready,
        "setup_calib_s": setup_calib,
        "calib_s": statistics.median(c for _, c in calibs),
        "calib_at": calibs,
        "calibrations": len(calibs),
        "loop_s": end - start,
        "op_s": op_s,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(args.out / "spans.jsonl")
        summary["spans"] = tracer.layer_totals()
        summary["counts"] = tracer.counts
        summary["traced_ops"] = sum(1 for s in tracer.spans if s[0] == "bench.op")
    (args.out / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
