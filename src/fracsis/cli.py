"""Command-line interface.

Subcommands:

    coeffs      dump a coefficient table as CSV ``k,value``
    solve       run one method under one config
    compare     run the requested methods and report pairwise distances
    table1      reproduce the pairwise error table on the c-nonzero preset
    c0-suite    run the zero-capacity preset (series blow-up showcase)
    population  N(t) via the Mittag-Leffler function

The config flags come from one key table, ``harness._KEYS``: ``solve``
and ``compare`` take all of them (preset, beta, gamma, mu, alpha, i0, T,
dt, methods, terms, out, formats) and ``--config FILE``, a JSON config
or an emitted manifest that explicit flags override; ``table1`` takes
terms, out and formats, ``c0-suite`` out and formats, and ``population``
T and dt.

The parser is built once per process, on the first :func:`main` call,
and reused by every later one.  The module imports ``fracsis.errors``
alone and reaches ``harness``, ``coeffs`` and ``solvers`` through the
package, which loads each on first use (see :mod:`fracsis`).

Exit codes: 0 success, 1 validation error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

import fracsis
from .errors import NumericError, ValidationError


def _add_flags(p: argparse.ArgumentParser, *keys: str, default=False, help="{}") -> None:
    """Add the flag of each config key from ``harness._KEYS``, with its default if
    ``default``; ``help`` is the help line, formatted with the key's help and default."""
    for key in keys:
        k = fracsis.harness._KEYS[key]
        p.add_argument(f"--{key}", **k.flag, default=k.default if default else None,
                       help=help.format(k.help, k.default))


def _add_config_flags(p: argparse.ArgumentParser, with_methods: bool = True) -> None:
    p.add_argument("--config", type=Path, help="JSON config or manifest to load")
    _add_flags(p, *(k for k in fracsis.harness._KEYS if with_methods or k != "methods"))


def _merged_config(args) -> fracsis.harness.RunConfig:
    cfg = {} if args.config is None else fracsis.harness.read_config_dict(args.config)
    # explicit flags override the file; dests match the config keys
    keys = fracsis.harness.CONFIG_KEYS
    cfg.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return fracsis.harness.config_from_dict(cfg)


def _write_csv(out, text: str):
    """Write ``text`` to stdout if ``out`` is None, else to the file ``out``,
    refused if empty as the config key ``out`` is; return the file or None."""
    if out is None:
        sys.stdout.write(text)
        return None
    fracsis.harness._check_key("out", out)
    return fracsis.harness._write(Path(out), text)


def _cmd_coeffs(args) -> int:
    build = fracsis.coeffs.euler_alpha if args.kind == "euler" else fracsis.coeffs.a_coeffs
    table = build(args.alpha, args.K)
    _write_csv(args.out, fracsis.harness.csv_text("k,value", enumerate(table.values)))
    return 0


def _cmd_solve(args) -> int:
    cfg = _merged_config(args)
    method = cfg.methods[0]
    traj = fracsis.harness.solve_method(cfg, method)
    if cfg.output_dir is not None:
        for f in fracsis.harness.emit({method: traj}, [], cfg):
            print(f)
    else:
        sys.stdout.write(fracsis.harness.trajectory_csv(traj))
    return 0


def _cmd_compare(args) -> int:
    cfg = _merged_config(args)
    if len(cfg.methods) < 2:
        raise ValidationError("compare needs at least two methods (use --methods)")
    trajs = fracsis.harness.run_methods(cfg)
    report = fracsis.harness.compare_methods(trajs, cfg.params.alpha)
    for ma, mb, dist in report.pairs:
        print(f"{ma} vs {mb}: {dist:.6e}")
    if cfg.output_dir is not None:
        for f in fracsis.harness.emit(trajs, [report], cfg):
            print(f)
    return 0


def _cmd_table1(args) -> int:
    reports = fracsis.harness.run_table1(terms=args.terms, out=args.out, formats=args.formats)
    print(fracsis.harness.format_report_table(reports))
    return 0


def _cmd_c0_suite(args) -> int:
    entries = fracsis.harness.run_c0_suite(out=args.out, formats=args.formats)
    for e in entries:
        status = (
            "converged on the whole grid"
            if e.series_diverged_at is None
            else f"series lost convergence at t={e.series_diverged_at:g}"
        )
        print(
            f"alpha={e.alpha:g}: {status}; schemes bounded in [0,1]: "
            f"{e.schemes_bounded}; crossing nodes {e.crossing}"
        )
    return 0


def _cmd_population(args) -> int:
    grid = fracsis.solvers.TimeGrid(args.T, args.dt)
    n = fracsis.harness.population_curve(args.alpha, args.lam, args.mu, args.n0, grid)
    text = fracsis.harness.csv_text("t,N", zip(grid.nodes().tolist(), n.tolist()))
    path = _write_csv(args.out, text)
    if path is not None:
        print(path)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsis",
        description="Fractional-order SIS model: series solutions, schemes, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dump a coefficient table as CSV")
    p.add_argument("--kind", choices=("euler", "a"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("-K", type=int, default=40, help="table order (default 40)")
    p.add_argument("--out", help="CSV file (default: stdout)")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("solve", help="run a single method")
    methods = [m.value for m in fracsis.solvers.Method]
    p.add_argument("--method", dest="methods", choices=methods, required=True)
    _add_config_flags(p, with_methods=False)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="run methods and report pairwise distances")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("table1", help="pairwise error table on the c-nonzero preset")
    _add_flags(p, "terms", default=True, help="{} (default {})")
    _add_flags(p, "out", "formats")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("c0-suite", help="zero-capacity preset across alphas")
    _add_flags(p, "out", "formats")
    p.set_defaults(func=_cmd_c0_suite)

    p = sub.add_parser("population", help="population curve N(t) = N0 E_alpha((lambda-mu) t^alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--n0", type=float, default=1.0)
    _add_flags(p, "T", "dt", default=True)
    p.add_argument("--out", help="CSV file (default: stdout)")
    p.set_defaults(func=_cmd_population)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericError, OverflowError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
