"""End-to-end timings: the two preset suites and one CLI ``compare``, and
the emission step alone.

``run_table1`` and ``run_c0_suite`` run their three alphas in memory
(series, PECE and L1 each, no files).  The CLI case runs the c-nonzero
preset at alpha = 0.7 with all three methods and writes CSVs and the
manifest to a temporary directory, so it includes argument parsing and
file emission.  ``emit`` writes the same three trajectories, their
comparison and the manifest (csv and json) from a finished run.  The
directory lies outside the test paths, so the tier-1 suite does not run
it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest bench --benchmark-only
"""

from fracsis import cli
from fracsis.harness import (
    C0_SUITE_ALPHAS,
    TABLE1_ALPHAS,
    compare_methods,
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
