"""Time the ``bench/`` cases on two checkouts, in alternation.

Each round runs every selected case once per side, case by case: the two
sides of a case run back to back, each in its own ``python -m pytest
--benchmark-only`` process with ``PYTHONPATH`` set to that checkout's
``src/``, and which side goes first alternates from round to round.  So
the two timings of a pair are seconds apart, and a drift of the host's
speed (up to 1.6x between runs on a shared 2-vCPU machine) falls on
both.  Both sides run the bench files beside this script, so a case that
the newer side added times the older one too where the older one has
what the case calls.  After the rounds it prints one line per case: each
side's median over rounds of its per-run medians, with their quartiles, the
ratio new / old, the rounds in which the new side was faster and a verdict.
The verdict is "gain" (or "loss") only where the new side was faster (or
slower) in at least nine tenths of at least 10 pairs and the two medians
differ by more than the old side's interquartile range; else it is
"unresolved".  A case that did not run on a side shows ``-``.

    python bench/ab.py OLD NEW [-k EXPR] [--rounds N] [--json FILE]

OLD and NEW are checkout roots, e.g. made with ``git worktree add`` or
``git archive <commit> | tar -x -C <dir>``.  ``-k`` selects cases as
pytest's ``-k`` does.  ``--json`` writes the per-round medians and the
summary, quartiles and verdicts included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def pytest(root: Path, cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    """``python -m pytest`` in ``cwd`` on the sources of the checkout ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True)


def cases(root: Path, bench: Path, keyword: str | None) -> list[str]:
    """The node ids of the selected cases, relative to ``bench.parent``."""
    args = ["--collect-only", f"--rootdir={bench.parent}", bench.name]
    proc = pytest(root, bench.parent, args + (["-k", keyword] if keyword else []))
    ids = [line for line in proc.stdout.splitlines() if "::" in line]
    if not ids:
        sys.exit(f"no case selected on {root}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return ids


def median_of(root: Path, bench: Path, case: str) -> float | None:
    """One case's median in seconds from one pytest run, or None if it did not run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        args = ["--benchmark-only", f"--benchmark-json={out}", f"--rootdir={bench.parent}", case]
        proc = pytest(root, bench.parent, args)
        runs = json.loads(out.read_text())["benchmarks"] if out.exists() else []
    if proc.returncode or not runs:
        print(f"warning: {case} failed on {root} (pytest exit {proc.returncode})", file=sys.stderr)
        return None
    return runs[0]["stats"]["median"]


def quartiles(values: list[float]) -> list[float]:
    """The first quartile, median and third quartile, linearly interpolated."""
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def verdict(case: dict) -> str:
    """"gain" or "loss" where the new side wins or loses at least 9/10 of at
    least 10 pairs, ties counting for neither, and the medians differ by more
    than the old side's interquartile range; else "unresolved"."""
    q1, _, q3 = case["old_quartiles"]
    if case["pairs"] < 10 or abs(case["new_median"] - case["old_median"]) <= q3 - q1:
        return "unresolved"
    if 10 * case["new_wins"] >= 9 * case["pairs"]:
        return "gain"
    if 10 * case["new_losses"] >= 9 * case["pairs"]:
        return "loss"
    return "unresolved"


def summary(rounds: list[dict[str, dict[str, float]]]) -> dict[str, dict]:
    """Per case: each side's per-round medians, their quartiles, the ratio,
    the wins and losses of the new side over the pairs, and the verdict."""
    names = sorted({name for r in rounds for side in r.values() for name in side})
    cases = {}
    for name in names:
        old = [r["old"][name] for r in rounds if name in r["old"]]
        new = [r["new"][name] for r in rounds if name in r["new"]]
        paired = [(r["old"][name], r["new"][name]) for r in rounds
                  if name in r["old"] and name in r["new"]]
        case = {"old": old, "new": new}
        if old and new:
            case.update(
                old_quartiles=quartiles(old), new_quartiles=quartiles(new),
                old_median=statistics.median(old), new_median=statistics.median(new),
                new_wins=sum(n < o for o, n in paired), new_losses=sum(n > o for o, n in paired),
                pairs=len(paired),
            )
            case["ratio"] = case["new_median"] / case["old_median"]
            case["verdict"] = verdict(case)
        cases[name] = case
    return cases


def report(cases: dict[str, dict]) -> str:
    def us(values):
        if not values:
            return f"{'-':>28}"
        q1, q2, q3 = (v * 1e6 for v in quartiles(values))
        return f"{q2:10.1f} [{q1:7.1f}, {q3:7.1f}]"

    lines = [f"{'case':<64} {'old us [q1, q3]':>28} {'new us [q1, q3]':>28} "
             f"{'new/old':>8} {'wins':>6} verdict"]
    for name, c in cases.items():
        ratio = f"{c['ratio']:8.3f}" if "ratio" in c else f"{'-':>8}"
        wins = f"{c['new_wins']}/{c['pairs']}" if "ratio" in c else "-"
        lines.append(f"{name:<64} {us(c['old'])} {us(c['new'])} {ratio} {wins:>6} "
                     f"{c.get('verdict', '-')}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="root of the old checkout")
    parser.add_argument("new", type=Path, help="root of the new checkout")
    parser.add_argument("-k", dest="keyword", help="pytest -k expression selecting cases")
    parser.add_argument("--rounds", type=int, default=5, help="rounds per side (default 5)")
    parser.add_argument("--json", type=Path, help="write the per-round medians and summary")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    for root in sides.values():
        if not (root / "src" / "fracsis").is_dir():
            parser.error(f"{root} has no src/fracsis")

    bench = Path(__file__).resolve().parent
    names = cases(sides["new"], bench, args.keyword)
    rounds = [{"old": {}, "new": {}} for _ in range(args.rounds)]
    for i, medians in enumerate(rounds):
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        for name in names:
            for side in order:
                median = median_of(sides[side], bench, name)
                if median is not None:
                    medians[side][name] = median
        print(f"round {i + 1}/{args.rounds} done ({' then '.join(order)} per case)",
              file=sys.stderr)

    summed = summary(rounds)
    print(report(summed))
    if args.json:
        args.json.write_text(json.dumps({
            "old": sides["old"].name, "new": sides["new"].name, "rounds": args.rounds,
            "order": "case by case, old first in odd rounds and new first in even ones",
            "unit": "s", "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "cases": summed,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
