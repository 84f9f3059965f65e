"""End-to-end timings: the two preset suites, one CLI ``compare``, two
in-memory paper ops, and the emission step alone.

``run_table1`` and ``run_c0_suite`` run their three alphas in memory
(series, PECE and L1 each, no files).  The CLI case runs the c-nonzero
preset at alpha = 0.7 with all three methods and writes CSVs and the
manifest to a temporary directory, so it includes argument parsing and
file emission.  The paper op is the in-memory run behind most perfbench
``paper_sweep`` ops: ``config_from_dict`` on the c-nonzero rates at
alpha = 0.7 with ``i0`` given (T = 5, dt = 0.05, terms = 120), then
series, PECE and L1 and their comparison, with no files.  Its c = 0
twin, ``test_paper_op_c0``, runs the other half of those ops: the
c-zero rates (beta = 0.7, gamma = 0.07, mu = 0.63) with I0 = 1/(2 beta)
on T = 1, dt = 0.01, where every round after the first reads the
series' node sums from their per-(table, grid) cache.  ``emit``
writes the same three trajectories, their comparison and the manifest
(csv and json) from a finished run.  ``test_cold_import`` starts a fresh
interpreter with ``PYTHONDONTWRITEBYTECODE=1``, as perfbench workers
run, so every module it imports is compiled from source: ``cli`` runs
``import fracsis, fracsis.cli`` and ``schemes`` also reads
``fracsis.model`` and ``fracsis.solvers``, what a ``long_horizon``
worker loads.  The directory lies outside the test paths, so the
tier-1 suite does not run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

import os
import subprocess
import sys

import pytest

from fracsis import cli
from fracsis.harness import (
    C0_SUITE_ALPHAS,
    TABLE1_ALPHAS,
    compare_methods,
    config_from_dict,
    emit,
    preset_config,
    run_c0_suite,
    run_methods,
    run_table1,
)


def test_run_table1(benchmark):
    reports = benchmark(run_table1)
    assert [r.alpha for r in reports] == list(TABLE1_ALPHAS)


def test_run_c0_suite(benchmark):
    entries = benchmark(run_c0_suite)
    assert [e.alpha for e in entries] == list(C0_SUITE_ALPHAS)


def test_cli_compare(benchmark, tmp_path, capsys):
    argv = [
        "compare", "--preset", "c-nonzero", "--alpha", "0.7",
        "--methods", "series,pece,l1", "--out", str(tmp_path), "--formats", "csv,json",
    ]
    assert benchmark(cli.main, argv) == 0
    assert (tmp_path / "manifest.json").is_file()


def paper_op(preset, rates, T, dt):
    """The in-memory cross-check of a paper op at alpha = 0.7, as a closure."""
    raw = {
        **rates, "alpha": 0.7, "i0": preset_config(preset, 0.7).params.i0,
        "T": T, "dt": dt, "terms": 120, "methods": ["series", "pece", "l1"],
    }
    return lambda: compare_methods(run_methods(config_from_dict(raw)), 0.7)


PAIRS = [("series", "pece"), ("series", "l1"), ("pece", "l1")]


def test_paper_op(benchmark):
    op = paper_op("c-nonzero", {"beta": 0.7, "gamma": 0.05, "mu": 0.12}, 5.0, 0.05)
    assert [p[:2] for p in benchmark(op).pairs] == PAIRS


def test_paper_op_c0(benchmark):
    op = paper_op("c-zero", {"beta": 0.7, "gamma": 0.07, "mu": 0.63}, 1.0, 0.01)
    assert [p[:2] for p in benchmark(op).pairs] == PAIRS


def test_emit(benchmark, tmp_path):
    cfg = preset_config(
        "c-nonzero", 0.7, methods=("series", "pece", "l1"), out=str(tmp_path),
        formats=("csv", "json"),
    )
    trajs = run_methods(cfg)
    files = benchmark(emit, trajs, [compare_methods(trajs, 0.7)], cfg)
    assert [f.name for f in files] == [
        "series.csv", "pece.csv", "l1.csv", "comparison.csv", "manifest.json",
    ]


COLD = {
    "cli": "import fracsis, fracsis.cli",
    "schemes": "import fracsis, fracsis.cli; fracsis.model, fracsis.solvers",
}


@pytest.mark.parametrize("start", sorted(COLD))
def test_cold_import(benchmark, start):
    argv = [sys.executable, "-c", COLD[start]]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    assert benchmark(subprocess.run, argv, env=env).returncode == 0
