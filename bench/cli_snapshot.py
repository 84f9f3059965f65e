"""Snapshot the outputs of a fixed list of ``fracsis`` CLI calls.

Each call of :data:`CALLS` runs in its own process (``python -m fracsis``)
and its own empty working directory, with ``COLUMNS=80`` and
``PYTHONPATH`` set to the package sources.  The snapshot directory gets
one subdirectory per call holding ``argv.txt``, ``stdout.txt``,
``stderr.txt``, ``exit.txt`` and ``files/``, the call's working
directory with every file it wrote.  Mentions of the sources' path in
stdout and stderr are written as ``<src>``, so two checkouts compare
equal where their outputs do.  Two snapshots are compared with
``diff -r``:

    python bench/cli_snapshot.py /tmp/new
    python bench/cli_snapshot.py /tmp/old --src ../other-checkout/src
    diff -r /tmp/old /tmp/new

``--src`` defaults to the ``src/`` of this checkout.  The script is not
a test module, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

_OUT = ["--out", "d", "--formats", "csv,json,svg"]
_ALL = ["--methods", "series,pece,l1"]
_C_NONZERO = ["--preset", "c-nonzero", "--alpha", "0.7"]
#: sigma ~ 1.00014, b ~ 1e-4 at alpha = 0.01: M and both radii past binary64
_TINY_B = ["compare", "--beta", "0.7", "--gamma", "0.69", "--mu", "0.0099", "--alpha", "0.01"]
#: b = 2 at alpha = 1e-4: b^(1/alpha) is past binary64, and the series hypothesis fails
_HUGE_POWER = ["compare", "--beta", "3", "--gamma", "0.5", "--mu", "0.5", "--alpha", "0.0001",
               "--i0", "0.1"]
_POPULATION = ["population", "--alpha", "0.6", "--lambda", "0.1", "--mu", "0.6"]

CALLS = [
    ["--help"],
    *([cmd, "--help"] for cmd in ("coeffs", "solve", "compare", "table1", "c0-suite", "population")),
    ["table1"],
    ["table1", *_OUT],
    ["c0-suite"],
    ["c0-suite", *_OUT],
    ["compare", *_C_NONZERO, *_ALL, *_OUT],
    ["compare", "--preset", "c-zero", "--alpha", "0.5", *_ALL, *_OUT],
    ["solve", "--method", "pece", *_C_NONZERO],
    ["solve", "--method", "l1", *_C_NONZERO],
    ["solve", "--method", "series", "--preset", "c-zero", "--alpha", "0.7"],
    ["coeffs", "--kind", "euler", "--alpha", "0.7"],
    ["coeffs", "--kind", "a", "--alpha", "0.3", "-K", "60"],
    ["coeffs", "--kind", "a", "--alpha", "0.99", "-K", "200"],
    _POPULATION,
    [*_POPULATION, "--out", "n.csv"],
    ["population", "--alpha", "0.5", "--lambda", "0.1", "--mu", "1.1", "--T", "50", "--dt", "0.01"],
    [*_POPULATION, "--n0", "0"],
    [*_TINY_B, "--i0", "0.1", "--methods", "pece,l1", "--out", "d"],
    [*_TINY_B, *_ALL, "--out", "d"],
    [*_HUGE_POWER, "--methods", "pece,l1"],
    [*_HUGE_POWER, *_ALL],
    # sigma = beta / (gamma + mu) underflows to 0.0: the quotient, then the sum
    ["compare", *_C_NONZERO, "--methods", "pece,l1", "--beta", "5e-324", "--gamma", "10"],
    ["compare", *_C_NONZERO, "--methods", "pece,l1", "--gamma", "1e308", "--mu", "1e308"],
    # the default i0 = c/2 is about -8.5e298
    ["compare", *_C_NONZERO, "--methods", "pece,l1", "--beta", "1e-300"],
    [*_POPULATION[:4], "inf", *_POPULATION[5:]],
    [*_POPULATION[:6], "nan"],
    [*_POPULATION, "--n0", "inf"],
    # N0 E_alpha(t^alpha) is past binary64 from t = 0.5 on
    ["population", "--alpha", "0.6", "--lambda", "1", "--mu", "0", "--n0", "1e308",
     "--T", "1", "--dt", "0.5"],
    ["compare", *_C_NONZERO, "--methods", "pece"],
    # the error paths of the shared flags
    ["table1", "--terms", "0"],
    ["table1", "--terms", "201"],
    ["c0-suite", "--formats", "xml"],
    ["coeffs", "--kind", "a", "--alpha", "0.7", "-K", "201"],
    ["compare", "--config", "missing.json"],
]


def snapshot(out: Path, src: Path) -> None:
    """Run every call of :data:`CALLS` and record it under ``out``."""
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(src)}
    for i, argv in enumerate(CALLS):
        call = out / f"{i:02d}-{'_'.join(a.strip('-') for a in argv[:2])}"
        files = call / "files"
        files.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, "-m", "fracsis", *argv],
            cwd=files, env=env, capture_output=True, text=True,
        )
        (call / "argv.txt").write_text(" ".join(argv) + "\n")
        (call / "stdout.txt").write_text(done.stdout.replace(str(src), "<src>"))
        (call / "stderr.txt").write_text(done.stderr.replace(str(src), "<src>"))
        (call / "exit.txt").write_text(f"{done.returncode}\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="snapshot directory (must not exist)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="package sources to run (default: this checkout's src/)")
    args = parser.parse_args()
    if args.out.exists():
        parser.error(f"{args.out} exists")
    snapshot(args.out.resolve(), args.src.resolve())


if __name__ == "__main__":
    main()
