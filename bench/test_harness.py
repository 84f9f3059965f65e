"""End-to-end timings: the two preset suites, one CLI ``compare``, one
in-memory paper op, and the emission step alone.

``run_table1`` and ``run_c0_suite`` run their three alphas in memory
(series, PECE and L1 each, no files).  The CLI case runs the c-nonzero
preset at alpha = 0.7 with all three methods and writes CSVs and the
manifest to a temporary directory, so it includes argument parsing and
file emission.  The paper op is the in-memory run behind most perfbench
``paper_sweep`` ops: ``config_from_dict`` on the c-nonzero rates at
alpha = 0.7 with ``i0`` given (T = 5, dt = 0.05, terms = 120), then
series, PECE and L1 and their comparison, with no files.  ``emit``
writes the same three trajectories, their comparison and the manifest
(csv and json) from a finished run.  The directory lies outside the test
paths, so the tier-1 suite does not run it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

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


def test_paper_op(benchmark):
    raw = {
        "beta": 0.7, "gamma": 0.05, "mu": 0.12, "alpha": 0.7,
        "i0": preset_config("c-nonzero", 0.7).params.i0,
        "T": 5.0, "dt": 0.05, "terms": 120, "methods": ["series", "pece", "l1"],
    }

    def op():
        return compare_methods(run_methods(config_from_dict(raw)), 0.7)

    report = benchmark(op)
    assert [p[:2] for p in report.pairs] == [("series", "pece"), ("series", "l1"), ("pece", "l1")]


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
