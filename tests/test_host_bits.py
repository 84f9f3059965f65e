"""Which output bits depend on the host: a fixed set of runs, native and
under two environment variables that select other kernels for one process.

``OPENBLAS_CORETYPE=Haswell`` swaps OpenBLAS's dot product behind
``np.convolve`` and ``np.correlate``; ``NPY_DISABLE_CPU_FEATURES`` set to
the host's AVX-512 features swaps numpy's SIMD loops for pow, exp, log
and their kin.  Each leg runs this file as a script in a fresh process
and prints the fixed set as JSON.  Trajectories and E_alpha values must
agree to ``REL`` relative, the table1 distances to ``ABS`` absolute, and
every flag, ``terms_used``, crossing node and divergence node exactly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

#: relative bound of a trajectory or E_alpha value; the worst move seen, on
#: an AVX-512 host, was 7.2e-14 (PECE at alpha 0.9 and c < 0, Haswell leg)
REL = 1e-12
#: absolute bound of a table1 distance; the worst move seen was 1.1e-16, an
#: ulp of u (series vs PECE at alpha 0.99, Haswell leg)
ABS = 1e-14

SRC = Path(__file__).resolve().parents[1] / "src"
#: environment variables that pick kernels; every leg starts without them
KERNEL_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def fixed_set() -> dict:
    """The fixed set's values, grouped by how two hosts may differ: ``relative``
    (trajectories and E_alpha), ``absolute`` (the table1 distances) and
    ``exact`` (flags, terms used, nodes); and what numpy reports of the
    host: ``avx2``, and ``features``, the AVX-512 features it dispatches on."""
    from fracsis import Method, harness, model, solvers
    from fracsis.specfn import mittag_leffler

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    relative, exact = {}, {}

    def series_flags(name, traj):
        for key in ("converged", "beyond_theoretical_radius", "terms_used"):
            exact[f"{name}.{key}"] = traj.meta[key]

    reports = harness.run_table1()
    absolute = {f"table1.{r.alpha}": [d for _, _, d in r.pairs] for r in reports}
    for alpha in harness.TABLE1_ALPHAS:
        cfg = harness.preset_config("c-nonzero", alpha, methods=("series",))
        traj = harness.solve_method(cfg, Method.SERIES)
        relative[f"table1.{alpha}.series"] = traj.u.tolist()
        series_flags(f"table1.{alpha}.series", traj)
    for e in harness.run_c0_suite():
        for m, traj in e.trajectories.items():
            relative[f"c0.{e.alpha}.{m.value}"] = traj.u.tolist()
        series_flags(f"c0.{e.alpha}.series", e.trajectories[Method.SERIES])
        exact[f"c0.{e.alpha}.nodes"] = [e.series_diverged_at, e.schemes_bounded, e.crossing]
    grid = solvers.TimeGrid(50.0, 0.025)
    for alpha in (0.5, 0.9):
        # gamma = mu = share * beta / 2 gives sigma = 1 / share: c > 0, c = 0, c < 0
        for share in (0.5, 1.0, 2.0):
            p = model.ModelParams(0.6, 0.3 * share, 0.3 * share, alpha, 0.3)
            f = model.logistic_rhs(p, model.derive(p))
            for solve in (solvers.solve_pece, solvers.solve_l1):
                u = solve(f, p.i0, grid, alpha).u
                relative[f"{solve.__name__}.{alpha}.{share}"] = u.tolist()
    sides = {"neg": np.linspace(-20.0, 0.0, 401), "pos": np.linspace(0.0, 5.0, 401)[1:]}
    for alpha in (0.3, 0.5, 0.7, 0.9, 0.99):
        for side, z in sides.items():
            relative[f"E_alpha.{alpha}.{side}"] = mittag_leffler(alpha, z).tolist()
    # numpy >= 2.4 dispatches the whole AVX-512 set as the group X86_V4
    features = [f for f in __cpu_dispatch__
                if __cpu_features__.get(f) and ("AVX512" in f or f == "X86_V4")]
    return {"relative": relative, "absolute": absolute, "exact": exact,
            "features": features, "avx2": bool(__cpu_features__.get("AVX2"))}


def run_fixed_set(**env) -> dict:
    """:func:`fixed_set` in a fresh interpreter with the given kernel variables."""
    base = {k: v for k, v in os.environ.items() if k not in KERNEL_VARS}
    proc = subprocess.run(
        [sys.executable, __file__], env={**base, "PYTHONPATH": str(SRC), **env},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def native():
    return run_fixed_set()


@pytest.mark.parametrize("leg", ["haswell", "no-avx512"])
def test_outputs_agree_within_the_stated_bounds(native, leg):
    if leg == "haswell":
        if not native["avx2"]:
            pytest.skip("the Haswell kernels need AVX2")
        other = run_fixed_set(OPENBLAS_CORETYPE="Haswell")
    else:
        if not native["features"]:
            pytest.skip("numpy dispatches no AVX-512 feature on this host")
        other = run_fixed_set(NPY_DISABLE_CPU_FEATURES=" ".join(native["features"]))
    assert other["exact"] == native["exact"]
    for group, bound in (("relative", REL), ("absolute", ABS)):
        assert other[group].keys() == native[group].keys()
        for name, want in native[group].items():
            want, got = np.array(want), np.array(other[group][name])
            scale = np.abs(want) if group == "relative" else 1.0
            assert np.all(np.abs(got - want) <= bound * scale), (name, np.max(np.abs(got - want)))


if __name__ == "__main__":
    print(json.dumps(fixed_set()))
