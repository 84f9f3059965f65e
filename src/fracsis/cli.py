"""Command-line interface.

Subcommands:

    coeffs      dump a coefficient table as CSV ``k,value``
    solve       run one method under one config
    compare     run the requested methods and report pairwise distances
    table1      reproduce the pairwise error table on the c-nonzero preset
    c0-suite    run the zero-capacity preset (series blow-up showcase)
    population  N(t) via the Mittag-Leffler function

The flags of ``solve`` and ``compare`` mirror the config key vocabulary
(beta, gamma, mu, alpha, i0, T, dt, methods, terms, out, formats); there
``--config FILE`` loads a JSON config (or a previously emitted manifest)
and explicit flags override it.

The parser is built once per process, on the first :func:`main` call,
and reused by every later one.

Exit codes: 0 success, 1 validation error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from . import harness
from .coeffs import a_coeffs, euler_alpha
from .errors import NumericError, ValidationError
from .solvers import Method, TimeGrid

_METHODS_HELP = f"comma-separated subset of {','.join(m.value for m in Method)}"
_FORMATS_HELP = f"comma-separated subset of {','.join(sorted(harness._FORMATS))}"


def _add_config_flags(p: argparse.ArgumentParser, with_methods: bool = True) -> None:
    p.add_argument("--config", type=Path, help="JSON config or manifest to load")
    p.add_argument("--preset", choices=sorted(harness.PRESETS), help="named parameter preset")
    p.add_argument("--beta", type=float, help="contact rate")
    p.add_argument("--gamma", type=float, help="recovery removal rate")
    p.add_argument("--mu", type=float, help="birth/death removal rate")
    p.add_argument("--alpha", type=float, help="fractional order in (0, 1]")
    p.add_argument("--i0", type=float, help="initial infected fraction")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--dt", type=float, help="time step")
    if with_methods:
        p.add_argument("--methods", help=_METHODS_HELP)
    p.add_argument("--terms", type=int, help="series truncation order")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--formats", help=_FORMATS_HELP)


def _merged_config(args) -> harness.RunConfig:
    cfg = {} if args.config is None else harness.read_config_dict(args.config)
    # explicit flags override the file; dests match the config keys
    cfg.update((k, v) for k, v in vars(args).items() if k in harness.CONFIG_KEYS and v is not None)
    return harness.config_from_dict(cfg)


def _cmd_coeffs(args) -> int:
    build = euler_alpha if args.kind == "euler" else a_coeffs
    table = build(args.alpha, args.K)
    text = harness.csv_text("k,value", enumerate(table.values))
    if args.out is not None:
        harness._write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    cfg = _merged_config(args)
    method = cfg.methods[0]
    traj = harness.solve_method(cfg, method)
    if cfg.output_dir is not None:
        for f in harness.emit({method: traj}, [], cfg):
            print(f)
    else:
        sys.stdout.write(harness.trajectory_csv(traj))
    return 0


def _cmd_compare(args) -> int:
    cfg = _merged_config(args)
    if len(cfg.methods) < 2:
        raise ValidationError("compare needs at least two methods (use --methods)")
    trajs = harness.run_methods(cfg)
    report = harness.compare_methods(trajs, cfg.params.alpha)
    for ma, mb, dist in report.pairs:
        print(f"{ma} vs {mb}: {dist:.6e}")
    if cfg.output_dir is not None:
        for f in harness.emit(trajs, [report], cfg):
            print(f)
    return 0


def _cmd_table1(args) -> int:
    reports = harness.run_table1(terms=args.terms, out=args.out, formats=args.formats)
    print(harness.format_report_table(reports))
    return 0


def _cmd_c0_suite(args) -> int:
    entries = harness.run_c0_suite(out=args.out, formats=args.formats)
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
    grid = TimeGrid(args.T, args.dt)
    n = harness.population_curve(args.alpha, args.lam, args.mu, args.n0, grid)
    text = harness._columns_csv("t,N", grid.nodes(), n)
    if args.out is not None:
        harness._write(args.out, text)
        print(args.out)
    else:
        sys.stdout.write(text)
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
    p.add_argument("--out", type=Path, help="CSV file (default: stdout)")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("solve", help="run a single method")
    p.add_argument("--method", dest="methods", choices=[m.value for m in Method], required=True)
    _add_config_flags(p, with_methods=False)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="run methods and report pairwise distances")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("table1", help="pairwise error table on the c-nonzero preset")
    p.add_argument("--terms", type=int, default=harness._DEFAULT_TERMS,
                   help="series truncation order (default %(default)s)")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--formats", help=_FORMATS_HELP)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("c0-suite", help="zero-capacity preset across alphas")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--formats", help=_FORMATS_HELP)
    p.set_defaults(func=_cmd_c0_suite)

    p = sub.add_parser("population", help="population curve N(t) = N0 E_alpha((lambda-mu) t^alpha)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--n0", type=float, default=1.0)
    p.add_argument("--T", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--out", type=Path, help="CSV file (default: stdout)")
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
