"""Hash the numeric outputs of a fixed, seeded set of series, E_alpha and harness runs.

Prints one SHA-256 per output class, one ``name hash`` line each:

* ``u``: series values, from ``sample_trajectory``, ``evaluate`` and the
  node sums at the stopping rule's thresholds;
* ``terms_used``, ``converged``, ``beyond_theoretical_radius``: the
  per-node meta of the same calls;
* ``radii``: each series' ``RadiusEstimate``;
* ``tables``: each draw's coefficient table ``d``, its ``values`` (or the
  type and message of their refusal) and its root test ``_root``;
* ``raised``: the type and message of every refusal met on the way;
* ``E_alpha``: ``mittag_leffler`` arrays and scalars at z <= 0 and
  ``population_curve`` values at lam - mu <= 0, or the error each raised;
* ``E_alpha_pos``: the same at z > 0 and lam - mu > 0, apart, so that a
  change to one half-axis leaves the other's hash as it was;
* ``table1``, ``c0``: every file that ``run_table1`` and
  ``run_c0_suite`` write (CSV, JSON manifest and SVG);
* ``pece``, ``l1``: the ``solve_pece`` and the ``solve_l1`` trajectories
  and the ``discrete_caputo_l1`` of each, or the error each raised, apart,
  so that a change to one scheme leaves the other's hash as it was.

The draws are ``DRAWS`` (alpha, K, kind, a0, grid, beta) tuples from a
fixed seed, over more distinct alphas than the package's cache bound,
so they meet cold tables, cache hits and evictions; ``STRESS_ALPHAS``
add K = 200 tables on the ``series_stress`` grid.  Beside each series
table, nodes sit at the thresholds in x where a term crosses the
stopping rule's 1e-14 or outgrows the term before it, and at
(1 +- k 2^-52) times them, so that sums whose stop is decided within
rounding are hashed too; E_alpha gets z at the points where a term of
its series reaches 1e-14, and within rounding of them, and arrays of
``ML_LENGTHS`` z on each side of 0.
The schemes run on logistic right-hand sides with c > 0, c = 0 and
c < 0 at every N from 1 to 2 BLOCK + 8, so every block boundary and
partial block is met, and at N = 100, 2000 and 4000, with alpha = 1
among the PECE draws and ``u' = u^2`` from u0 = 1e100 as the one
config that overflows.

Two checkouts compare by ``diff``:

    python bench/identity.py > /tmp/new.txt
    python bench/identity.py --src ../other-checkout/src > /tmp/old.txt
    diff /tmp/old.txt /tmp/new.txt

``--src`` defaults to the ``src/`` of this checkout.  The node sums use
the private ``fracsis.series._sum_nodes(table, arg_scale, powers)`` and
the ``tables`` line the private ``CoeffTable._root``, so the script runs
on checkouts that have both.  It takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np

DRAWS = 420
SEED = 2021
#: distinct alphas drawn from, more than the cache bound of 8
ALPHAS = 40
KS = (0, 1, 2, 3, 5, 12, 15, 20, 60, 120, 200)
GRIDS = ((0.5, 10), (1.0, 100), (5.0, 100), (5.0, 400), (20.0, 1000), (5.0, 1000))
#: z per sign of the E_alpha draws around the contour's block of 256 z
#: (``specfn._Z_BLOCK``): a partial block, full ones and a lone last column
ML_LENGTHS = (1, 2, 255, 256, 257, 513)
#: alphas of the K = 200 A-tables summed on the series_stress grid, whose
#: nodes left after the rows span two tail blocks (``series._TAIL``)
STRESS_ALPHAS = (0.5, 0.6, 0.9)


class Hashes:
    """One running SHA-256 per output class."""

    def __init__(self, names):
        self.h = {name: hashlib.sha256() for name in names}

    def add(self, name, value):
        if isinstance(value, np.ndarray):
            data = value.dtype.str.encode() + value.tobytes()
        else:
            data = repr(value).encode()
        self.h[name].update(data + b"|")

    def lines(self):
        return [f"{name} {h.hexdigest()}" for name, h in self.h.items()]


def thresholds(d, rng, count):
    """x at which a term of the table ``d`` crosses 1e-14 or outgrows the
    previous non-zero term, for up to ``count`` random k, each with its
    neighbours (1 +- k 2^-52) x."""
    nonzero = [k for k in range(1, len(d)) if d[k] != 0.0 and math.isfinite(d[k])]
    xs = []
    for k in rng.permutation(nonzero)[:count].tolist():
        x = [math.exp((math.log(1e-14) - math.log(abs(d[k]))) / k)]
        p = max([j for j in nonzero if j < k], default=0)
        if d[p] != 0.0:
            x.append(math.exp((math.log(abs(d[p])) - math.log(abs(d[k]))) / (k - p)))
        for v in x:
            if math.isfinite(v):
                xs += [v, v * (1 - k * 2.0**-52), v * (1 + k * 2.0**-52)]
    return np.array(xs)


def series_draws(fx, out, rng):
    from fracsis.errors import FracsisError

    alphas = [1.0, *rng.uniform(0.05, 1.0, ALPHAS - 1).tolist()]
    for _ in range(DRAWS):
        alpha = alphas[rng.integers(len(alphas))]
        K = int(rng.choice(KS))
        kind = ("carrying", "zero", "rescaled")[rng.integers(3)]
        a0 = (0.5, 0.25, float(rng.uniform(0.02, 0.98)))[rng.integers(3)]
        T, N = GRIDS[rng.integers(len(GRIDS))]
        beta = float(rng.uniform(0.05, 3.0))
        try:
            if kind == "carrying":
                s = float(rng.uniform(0.05, 1.5))
                b = float(rng.choice([rng.uniform(0.01, 0.99), rng.uniform(1.0, 2.0)]))
                params = fx.model.ModelParams(s + b, s / 2, s / 2, alpha, 0.5)
                table = table_outcome(fx, out, fx.coeffs.euler_alpha(alpha, K))
                sol = fx.series.carrying_capacity_series(fx.model.derive(params), alpha, table)
            elif kind == "zero":
                table = table_outcome(fx, out, fx.coeffs.a_coeffs(alpha, K))
                sol = fx.series.zero_capacity_series(beta, alpha, table)
            else:
                table = table_outcome(fx, out, fx.coeffs.a_coeffs(alpha, K, a0=a0))
                sol = fx.series.rescaled_zero_capacity_series(a0, alpha, table)
            grid = fx.solvers.TimeGrid(T, T / N)
            traj = fx.series.sample_trajectory(sol, grid)
        except FracsisError as e:
            out.add("raised", (alpha, K, kind, type(e).__name__, str(e)))
            continue
        out.add("u", traj.u)
        for name in ("terms_used", "converged", "beyond_theoretical_radius"):
            out.add(name, traj.meta[name])
        out.add("radii", astuple(sol.radius))
        for t in (0.0, float(rng.uniform(0, T)), float(rng.uniform(0, 3 * T))):
            r = fx.series.evaluate(sol, t)
            out.add("u", r.value_i)
            out.add("terms_used", r.terms_used)
            out.add("converged", r.converged)
            out.add("beyond_theoretical_radius", r.beyond_theoretical_radius)
        xs = thresholds(table.d, rng, 6)
        total, used, converged = fx.series._sum_nodes(table, 1.0, xs)
        out.add("u", total)
        out.add("terms_used", used)
        out.add("converged", converged)


def stress_draws(fx, out):
    """The node sums of K = 200 A-tables on the series_stress grid."""
    grid = fx.solvers.TimeGrid(5.0, 0.005)
    for alpha in STRESS_ALPHAS:
        sol = fx.series.zero_capacity_series(0.7, alpha, fx.coeffs.a_coeffs(alpha, 200))
        powers = fx.solvers.node_powers(alpha, grid)
        total, used, converged = fx.series._sum_nodes(sol.coeffs, sol.arg_scale, powers)
        out.add("u", total)
        out.add("terms_used", used)
        out.add("converged", converged)


def table_outcome(fx, out, table):
    """Hash a coefficient table's entries, values (or their refusal) and
    root test; return the table."""
    out.add("tables", np.array(table.d))
    try:
        out.add("tables", np.array(table.values))
    except fx.errors.FracsisError as e:
        out.add("tables", f"{type(e).__name__}: {e}")
    out.add("tables", table._root)
    return table


def ml_draws(fx, out, rng):
    def outcome(fn, *args):
        try:
            return fn(*args)
        except fx.errors.FracsisError as e:
            return f"{type(e).__name__}: {e}"

    for alpha in [1.0, 0.5, *rng.uniform(0.05, 1.0, 30).tolist()]:
        zs = [np.linspace(-6.0, 4.0, 301), rng.uniform(-3.0, 3.0, 40)]
        lg = [math.lgamma(alpha * k + 1.0) for k in range(500)]
        ks = rng.integers(1, 500, 12)
        th = np.array([math.exp((math.log(1e-14) + lg[k]) / k) for k in ks.tolist()])
        near = np.concatenate([th, th * (1 - ks * 2.0**-52), th * (1 + ks * 2.0**-52)])
        zs += [near[near < 6.0], -near[near < 12.0]]
        zs += [np.concatenate([-rng.uniform(0.0, 8.0, n), rng.uniform(0.0, 4.0, n)])
               for n in ML_LENGTHS]
        for z in zs:
            for part, name in ((z[z <= 0], "E_alpha"), (z[z > 0], "E_alpha_pos")):
                out.add(name, outcome(fx.specfn.mittag_leffler, alpha, part))
        for z in (-1.0, 0.5, float(rng.uniform(-8, 8))):
            name = "E_alpha" if z <= 0 else "E_alpha_pos"
            out.add(name, outcome(fx.specfn.mittag_leffler, alpha, z))
        grid = fx.solvers.TimeGrid(5.0, 0.005)
        rate = float(rng.uniform(-5.0, 1.0))
        name = "E_alpha" if rate <= 0 else "E_alpha_pos"
        out.add(name, outcome(fx.harness.population_curve, alpha, 0.5, 0.5 - rate, 1.0, grid))


def scheme_draws(fx, out, rng):
    """Both marches and the discrete Caputo derivative of each, over
    grid sizes that meet every block boundary, and one overflow."""
    sizes = [*range(1, 2 * fx.solvers.BLOCK + 9), 100, 2000, 4000]
    for N in sizes:
        # gamma = mu = share * beta / 2 gives sigma = 1 / share: c > 0, c = 0, c < 0
        for share in (rng.uniform(0.1, 0.9), 1.0, rng.uniform(1.1, 3.0)):
            beta = float(rng.uniform(0.1, 1.0))
            gamma = beta * float(share) / 2.0
            alpha = float(rng.uniform(0.05, 0.99))
            params = fx.model.ModelParams(beta, gamma, gamma, alpha, float(rng.uniform(0.01, 1.0)))
            f = fx.model.logistic_rhs(params, fx.model.derive(params))
            grid = fx.solvers.TimeGrid(N * 0.025, 0.025)
            for name, a in (("pece", alpha), ("pece", 1.0), ("l1", alpha)):
                scheme_outcome(fx, out, name, f, params.i0, grid, a)
    grid = fx.solvers.TimeGrid(1.0, 0.1)
    for name in ("pece", "l1"):
        scheme_outcome(fx, out, name, lambda u: u * u, 1e100, grid, 0.5)


def scheme_outcome(fx, out, name, f, u0, grid, alpha):
    """Hash one march of the scheme ``name`` ("pece" or "l1") and its
    discrete Caputo derivative, or its refusal, on that scheme's line."""
    solve = getattr(fx.solvers, f"solve_{name}")
    try:
        u = solve(f, u0, grid, alpha).u
    except fx.errors.FracsisError as e:
        out.add(name, f"{type(e).__name__}: {e}")
        return
    out.add(name, u)
    if alpha < 1.0:
        out.add(name, fx.solvers.discrete_caputo_l1(u, alpha, grid.dt))


def harness_files(fx, out):
    """The files of both suites, written under a relative path, as the
    manifests record it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, run in (("table1", fx.harness.run_table1), ("c0", fx.harness.run_c0_suite)):
                run(out=Path(name), formats=("csv", "json", "svg"))
                for path in sorted(p for p in Path(name).rglob("*") if p.is_file()):
                    out.add(name, (str(path), path.read_bytes()))
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import fracsis as fx

    out = Hashes(["u", "terms_used", "converged", "beyond_theoretical_radius", "radii",
                  "tables", "raised", "E_alpha", "E_alpha_pos", "table1", "c0", "pece", "l1"])
    rng = np.random.default_rng(SEED)
    series_draws(fx, out, rng)
    stress_draws(fx, out)
    ml_draws(fx, out, rng)
    scheme_draws(fx, out, np.random.default_rng(SEED))
    harness_files(fx, out)
    print("\n".join(out.lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
