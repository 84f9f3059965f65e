"""Experiment orchestration: configs, presets, comparisons, file emission.

A :class:`RunConfig` fully determines a run; identical configs produce
byte-identical CSV output (fixed summation orders, fixed 17-significant-
digit formatting, sorted JSON keys, no timestamps).  Each emitted run
carries a ``manifest.json`` that embeds the exact config under a
``"config"`` key, so a manifest can be fed back to :func:`load_config`
to reproduce the run bit-for-bit.

Each rule has one home: ``_KEYS``, the config keys, which the manifest's
``"config"`` and the CLI's flags read; :func:`config_from_dict`, the one
pass from config values to a RunConfig, which derives the model
parameters once; :func:`~fracsis.model.derive`, the regime and the series
hypothesis; :func:`_series_i0`, the series initial datum; :func:`_write`,
every file written; :func:`_run_suite`, both preset suites.

Two presets reproduce the reference experiments:

* ``c-nonzero`` — beta=0.7, gamma=0.05, mu=0.12 (sigma ~ 4.118,
  c ~ 0.757), I0 = c/2, T=5, dt=0.05;
* ``c-zero``    — beta=0.7, gamma=0.07, mu=0.63 (sigma = 1, c = 0),
  I0 = 1/(2 beta), T=1, dt=0.01.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .coeffs import MAX_ORDER, a_coeffs, euler_alpha
from .errors import (
    DomainError,
    GridMismatchError,
    NumericOverflowError,
    ValidationError,
    check_alpha,
)
from .model import ModelParams, DerivedParams, classical_sis, derive, logistic_rhs
from .series import (
    carrying_capacity_series,
    sample_trajectory,
    zero_capacity_series,
)
from .solvers import Method, TimeGrid, Trajectory, node_powers, solve_l1, solve_pece
from .specfn import mittag_leffler

__all__ = [
    "RunConfig",
    "ComparisonReport",
    "PRESETS",
    "CONFIG_KEYS",
    "TABLE1_ALPHAS",
    "C0_SUITE_ALPHAS",
    "preset_config",
    "load_config",
    "read_config_dict",
    "config_from_dict",
    "solve_method",
    "run_methods",
    "compare_methods",
    "format_report_table",
    "linf_distance",
    "crossing_node",
    "run_table1",
    "run_c0_suite",
    "population_curve",
    "csv_text",
    "trajectory_csv",
    "emit",
]

TOOL_NAME = "fracsis"

#: number format used for every CSV value (17 significant digits)
_FMT = "%.17g"

_FORMATS = {"csv", "json", "svg"}
#: the series trajectory's meta keys that its manifest entry records
_SERIES_FLAGS = ("converged", "beyond_theoretical_radius", "all_converged")

TABLE1_ALPHAS = (0.99, 0.7, 0.3)
#: the method pairs of the table1 columns, in order
_TABLE1_PAIRS = (("series", "pece"), ("series", "l1"), ("pece", "l1"))
C0_SUITE_ALPHAS = (0.99, 0.7, 0.5)

# preset values are the experiment parameters as typed; i0 is filled from
# the derived carrying capacity at load time where marked None
PRESETS = {
    "c-nonzero": {
        "beta": 0.7, "gamma": 0.05, "mu": 0.12,
        "i0": None,  # c/2
        "T": 5.0, "dt": 0.05,
    },
    "c-zero": {
        "beta": 0.7, "gamma": 0.07, "mu": 0.63,
        "i0": None,  # 1/(2 beta)
        "T": 1.0, "dt": 0.01,
    },
}


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_names(v) -> bool:
    return isinstance(v, str) or (
        isinstance(v, (list, tuple)) and all(isinstance(m, str) for m in v)
    )


#: a config key: the test a given value must pass and what it asks for, its
#: flag's argparse keywords and help, and the value no config or preset gives
_Key = namedtuple("_Key", "test want flag help default", defaults=[None])
_NUMBER = (_is_number, "a number", {"type": float})
_NAMES = (_is_names, "a string or a list of strings", {})
_SUBSET = "comma-separated subset of {}".format
#: the config key vocabulary, in the order of the CLI flags
_KEYS = {
    "preset": _Key(lambda v: isinstance(v, str), "a preset name",
                   {"choices": sorted(PRESETS)}, "named parameter preset"),
    "beta": _Key(*_NUMBER, "contact rate"),
    "gamma": _Key(*_NUMBER, "recovery removal rate"),
    "mu": _Key(*_NUMBER, "birth/death removal rate"),
    "alpha": _Key(*_NUMBER, "fractional order in (0, 1]"),
    "i0": _Key(*_NUMBER, "initial infected fraction"),
    "T": _Key(*_NUMBER, "final time", 5.0),
    "dt": _Key(*_NUMBER, "time step", 0.05),
    "methods": _Key(*_NAMES, _SUBSET(",".join(m.value for m in Method)), ("pece", "l1")),
    "terms": _Key(lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
                  "an integer", {"type": int}, "series truncation order", 120),
    # "" is refused, not read as "no output" or as the working directory;
    # the flag keeps the raw string, as Path("") would be "."
    "out": _Key(lambda v: isinstance(v, (str, os.PathLike)) and os.fspath(v) != "",
                "a non-empty path", {}, "output directory"),
    "formats": _Key(*_NAMES, _SUBSET(",".join(sorted(_FORMATS))), ("csv", "json")),
}
CONFIG_KEYS = set(_KEYS)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated, reproducible run description."""

    params: ModelParams
    grid: TimeGrid
    methods: tuple[Method, ...]
    series_terms: int = _KEYS["terms"].default
    output_dir: Optional[Path] = None
    formats: tuple[str, ...] = _KEYS["formats"].default
    #: ``derive(params)``, computed once at construction for every later step
    derived: DerivedParams = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValidationError("at least one method is required")
        if len(set(self.methods)) != len(self.methods):
            raise ValidationError("duplicate methods in config")
        if len(set(self.formats)) != len(self.formats):
            raise ValidationError("duplicate formats in config")
        unknown = set(self.formats) - _FORMATS
        if unknown:
            raise ValidationError(f"unknown output formats: {sorted(unknown)}")
        if not 1 <= self.series_terms <= MAX_ORDER:
            raise ValidationError(
                f"terms must be in [1, {MAX_ORDER}], got {self.series_terms}"
            )
        if Method.L1 in self.methods and not self.params.alpha < 1:
            raise ValidationError(
                "the L1 scheme requires alpha strictly inside (0, 1); "
                "the endpoint alpha = 1 is excluded"
            )
        object.__setattr__(self, "derived", derive(self.params))
        if Method.SERIES in self.methods:
            p, d = self.params, self.derived
            if d.c != 0.0 and d.r_alpha is None:
                raise ValidationError(
                    f"carrying-capacity series requires c > 0 and b^(1/alpha) < 1, "
                    f"got c={d.c}, b={d.b}"
                )
            want = _series_i0(p.beta, d)
            if not math.isclose(p.i0, want, rel_tol=1e-12):
                raise ValidationError(
                    f"series requires i0 = {want!r} (c/2, or 1/(2 beta) at sigma = 1), "
                    f"got {p.i0!r}"
                )


def _series_i0(beta: float, d: DerivedParams) -> float:
    """Initial datum the explicit series is built for.

    c/2 in the endemic case, 1/(2 beta) at sigma = 1.  It is also the
    preset convention for a config that gives no ``i0``.
    """
    return 1.0 / (2.0 * beta) if d.c == 0.0 else d.c / 2.0


@dataclass(frozen=True)
class ComparisonReport:
    """Pairwise L-infinity distances between trajectories on one grid."""

    alpha: float
    pairs: tuple[tuple[str, str, float], ...]

    def distance(self, a: str, b: str) -> float:
        for ma, mb, d in self.pairs:
            if {ma, mb} == {a, b}:
                return d
        raise KeyError(f"no pair ({a}, {b}) in report")


def _build_params(cfg: dict) -> ModelParams:
    missing = [k for k in ("beta", "gamma", "mu", "alpha") if cfg.get(k) is None]
    if missing:
        raise ValidationError(f"missing required config keys: {missing}")
    i0 = cfg.get("i0")
    params = ModelParams(
        beta=cfg["beta"], gamma=cfg["gamma"], mu=cfg["mu"], alpha=cfg["alpha"],
        i0=0.0 if i0 is None else i0,
    )
    if i0 is None:
        d = derive(params)
        i0 = _series_i0(params.beta, d)
        if not 0 <= i0 <= 1:
            rule = "1/(2 beta)" if d.c == 0.0 else "c/2"
            raise ValidationError(
                f"i0 must be in [0, 1], got the default {rule} = {i0!r}, derived from "
                f"beta={params.beta}, gamma={params.gamma}, mu={params.mu}; set i0 explicitly"
            )
        params = replace(params, i0=i0)
    return params


def _split(raw):
    """The names of a comma/space-separated string, or ``raw`` as it is."""
    return raw.replace(",", " ").split() if isinstance(raw, str) else raw


def _parse_methods(raw) -> tuple[Method, ...]:
    raw = _split(raw)
    try:
        return tuple(Method(str(m).lower()) for m in raw)
    except ValueError as e:
        raise ValidationError(
            f"unknown method in {raw!r}; choose from "
            f"{[m.value for m in Method]}"
        ) from e


def _parse_formats(raw) -> tuple[str, ...]:
    """Formats from a comma/space-separated string or a sequence of names."""
    formats = tuple(_split(raw))
    if not formats:
        raise ValidationError(f"formats must name one of {sorted(_FORMATS)}, got {raw!r}")
    return formats


def _check_key(key: str, value) -> None:
    """Refuse a value of a config key, other than None, that fails the key's test."""
    if value is not None and not _KEYS[key].test(value):
        raise ValidationError(f"config key {key!r} must be {_KEYS[key].want}, got {value!r}")


def config_from_dict(cfg: dict) -> RunConfig:
    """Validate a flat key-value mapping into a RunConfig; bad keys and values are named.

    Every key is checked against its type rule; then the given values
    that are not None override the preset's, which override the defaults
    of ``_KEYS``, in one merge; then the merged values are parsed, and
    every later step reads the RunConfig and parses or derives nothing
    again.
    """
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in _KEYS:
        _check_key(key, cfg.get(key))
    preset = cfg.get("preset")
    if preset is not None and preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
    given = {k: v for k, v in cfg.items() if v is not None}
    cfg = {**{k: key.default for k, key in _KEYS.items()}, **PRESETS.get(preset, {}), **given}
    return RunConfig(
        params=_build_params(cfg),
        grid=TimeGrid(float(cfg["T"]), float(cfg["dt"])),
        methods=_parse_methods(cfg["methods"]),
        series_terms=int(cfg["terms"]),
        output_dir=None if cfg["out"] is None else Path(cfg["out"]),
        formats=_parse_formats(cfg["formats"]),
    )


def preset_config(name: str, alpha: float, **overrides) -> RunConfig:
    """Build a RunConfig from a named preset at the given alpha."""
    return config_from_dict({"preset": name, "alpha": alpha, **overrides})


def read_config_dict(path) -> dict:
    """Read the raw key-value mapping of a config file or run manifest."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            f"config parse error in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(raw, dict):
        raise ValidationError(f"config root must be an object, got {type(raw).__name__}")
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]
    return raw


def load_config(path) -> RunConfig:
    """Load a flat JSON config (or a run manifest) into a RunConfig.

    The key vocabulary is ``CONFIG_KEYS``.  A manifest written by
    :func:`emit` is accepted too: its embedded ``"config"`` object is
    used, which is what makes re-runs reproducible from the manifest alone.
    """
    return config_from_dict(read_config_dict(path))


def solve_method(config: RunConfig, method: Method) -> Trajectory:
    """Produce the trajectory of a single method under a config."""
    p, d = config.params, config.derived
    if method is Method.SERIES:
        if d.c == 0.0:
            table = a_coeffs(p.alpha, config.series_terms)
            series = zero_capacity_series(p.beta, p.alpha, table)
        else:
            table = euler_alpha(p.alpha, config.series_terms)
            series = carrying_capacity_series(d, p.alpha, table)
        return sample_trajectory(series, config.grid)
    if method is Method.CLASSICAL:
        i, _ = classical_sis(p, config.grid.nodes())
        return Trajectory(config.grid, np.asarray(i), Method.CLASSICAL, {"alpha": 1.0})
    f = logistic_rhs(p, d)
    if method is Method.PECE:
        return solve_pece(f, p.i0, config.grid, p.alpha)
    if method is Method.L1:
        return solve_l1(f, p.i0, config.grid, p.alpha)
    raise ValidationError(f"unknown method {method}")


def run_methods(config: RunConfig) -> dict[Method, Trajectory]:
    """All requested trajectories, keyed by method, in config order."""
    return {m: solve_method(config, m) for m in config.methods}


def linf_distance(a: Trajectory, b: Trajectory) -> float:
    """max_n |a.u[n] - b.u[n]| over a shared grid."""
    ga, gb = a.grid, b.grid
    if ga != gb:
        raise GridMismatchError(
            f"grids differ: (T={ga.T}, dt={ga.dt}) vs (T={gb.T}, dt={gb.dt})"
        )
    return float(np.max(np.abs(a.u - b.u)))


def compare_methods(trajectories: dict[Method, Trajectory], alpha: float) -> ComparisonReport:
    """Pairwise L-infinity report over the given trajectories."""
    if len(trajectories) < 2:
        raise ValidationError("comparison needs at least two trajectories")
    methods = list(trajectories)
    pairs = []
    for i, ma in enumerate(methods):
        for mb in methods[i + 1 :]:
            pairs.append(
                (ma.value, mb.value, linf_distance(trajectories[ma], trajectories[mb]))
            )
    return ComparisonReport(alpha=alpha, pairs=tuple(pairs))


def crossing_node(traj: Trajectory) -> Optional[float]:
    """First grid node at which I - S changes sign relative to t = 0.

    For a rising infected fraction (I0 < S0) this is the first node with
    I >= S; for a decaying one, the first node with I <= S.  None if the
    curves do not cross on the grid.
    """
    u = traj.u
    d0 = u[0] - 0.5
    if d0 == 0.0:
        return 0.0
    nodes = traj.grid.nodes()
    hits = np.nonzero((u - 0.5) * np.sign(d0) <= 0.0)[0]
    if hits.size == 0:
        return None
    return float(nodes[hits[0]])


def _run_suite(
    preset: str, alphas: Sequence[float], out: Optional[Path], formats=None, terms=None
) -> Iterator[tuple[RunConfig, dict[Method, Trajectory], ComparisonReport]]:
    """Yield ``(config, trajectories, report)`` of series, PECE and L1 per alpha.

    With ``out`` given, each alpha's artifacts are emitted to ``out/alpha-<alpha>``.
    ``out`` is checked as the config key is, before any path is built, and
    ``formats`` and ``terms`` are config values, None for the key's default.
    """
    _check_key("out", out)
    for alpha in alphas:
        cfg = preset_config(
            preset, alpha, methods=("series", "pece", "l1"), formats=formats,
            out=None if out is None else Path(out) / f"alpha-{alpha:g}", terms=terms,
        )
        trajs = run_methods(cfg)
        report = compare_methods(trajs, alpha)
        if out is not None:
            emit(trajs, [report], cfg)
        yield cfg, trajs, report


def run_table1(
    terms: int = _KEYS["terms"].default,
    out: Optional[Path] = None,
    formats: Optional[str | Sequence[str]] = None,
) -> list[ComparisonReport]:
    """Reproduce the pairwise error table on the c-nonzero preset.

    For each alpha of ``TABLE1_ALPHAS``, runs the series solution and both
    schemes on the preset grid and reports the three pairwise distances.
    When ``out`` is given, per-alpha artifacts plus a summary ``table1.csv``
    with header ``alpha,series_vs_pece,series_vs_l1,pece_vs_l1`` are emitted.
    """
    suite = _run_suite("c-nonzero", TABLE1_ALPHAS, out, formats, terms=terms)
    reports = [report for _, _, report in suite]
    if out is not None:
        header = ",".join(["alpha"] + [f"{a}_vs_{b}" for a, b in _TABLE1_PAIRS])
        rows = [(r.alpha, *(r.distance(a, b) for a, b in _TABLE1_PAIRS)) for r in reports]
        _write(Path(out) / "table1.csv", csv_text(header, rows))
    return reports


def format_report_table(reports: Sequence[ComparisonReport]) -> str:
    """Human-readable rendering of comparison reports."""
    header = f"{'alpha':>6}" + "".join(f"  {f'{a} vs {b}':>15}" for a, b in _TABLE1_PAIRS)
    rows = [header, "-" * len(header)] + [
        f"{r.alpha:>6g}" + "".join(f"  {r.distance(a, b):>15.3e}" for a, b in _TABLE1_PAIRS)
        for r in reports
    ]
    return "\n".join(rows)


@dataclass(frozen=True)
class C0SuiteEntry:
    """One alpha of the zero-capacity suite; the series flags are in its trajectory's meta."""

    alpha: float
    trajectories: dict[Method, Trajectory]
    series_diverged_at: Optional[float]
    schemes_bounded: bool
    crossing: dict[str, Optional[float]]


def run_c0_suite(
    out: Optional[Path] = None,
    formats: Optional[str | Sequence[str]] = None,
) -> list[C0SuiteEntry]:
    """Run the zero-capacity preset for each alpha of ``C0_SUITE_ALPHAS``.

    The explicit series is only trustworthy inside its convergence radius
    (it blows up in finite time for small alpha, e.g. alpha = 0.5 on
    T = 1); the two schemes remain bounded in [0, 1] throughout.  The
    entry records where the series first lost convergence, boundedness of
    the schemes, and the I/S crossing node per method.
    """
    entries = []
    for cfg, trajs, report in _run_suite("c-zero", C0_SUITE_ALPHAS, out, formats):
        flags = trajs[Method.SERIES].meta["converged"]
        diverged_at = None if all(flags) else float(cfg.grid.nodes()[flags.index(False)])
        bounded = all(
            bool(np.all((trajs[m].u >= 0.0) & (trajs[m].u <= 1.0)))
            for m in (Method.PECE, Method.L1)
        )
        crossing = {m.value: crossing_node(t) for m, t in trajs.items()}
        entries.append(
            C0SuiteEntry(
                alpha=report.alpha,
                trajectories=trajs,
                series_diverged_at=diverged_at,
                schemes_bounded=bounded,
                crossing=crossing,
            )
        )
    return entries


def population_curve(alpha: float, lam: float, mu: float, n0: float, grid: TimeGrid) -> np.ndarray:
    """N(t) = N0 E_alpha((lam - mu) t^alpha) sampled on a grid: the package's one N(t).

    Refuses, naming the argument, a non-finite rate, rate difference or
    N0, a non-positive N0, and alpha outside (0, 1], before any t^alpha
    is formed.  Raises :class:`NumericOverflowError`, naming the first
    node, where N(t) is past binary64.
    """
    for name, value in (("lambda", lam), ("mu", mu), ("lambda - mu", lam - mu), ("n0", n0)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not n0 > 0:
        raise DomainError(f"n0 must be positive, got {n0}")
    check_alpha(alpha, "alpha must be")
    with np.errstate(over="ignore"):
        n = n0 * mittag_leffler(alpha, (lam - mu) * node_powers(alpha, grid))
    finite = np.isfinite(n)
    if not finite.all():
        t = float(grid.nodes()[finite.argmin()])
        raise NumericOverflowError(
            f"N(t) = N0 E_alpha((lambda - mu) t^alpha) overflowed at t={t} "
            f"(alpha={alpha}, lambda - mu={lam - mu}, n0={n0})"
        )
    return n


# ---------------------------------------------------------------------------
# file emission


def _write(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` and its parent directories; an OSError names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e
    return path


def _config_dict(config: RunConfig) -> dict:
    """The manifest's ``"config"``: the value of every key of ``_KEYS`` but the preset."""
    values = {
        **vars(config.params),
        "T": config.grid.T,
        "dt": config.grid.dt,
        "methods": [m.value for m in config.methods],
        "terms": config.series_terms,
        "out": None if config.output_dir is None else str(config.output_dir),
        "formats": list(config.formats),
    }
    return {key: values[key] for key in _KEYS if key != "preset"}


def csv_text(header: str, rows) -> str:
    """CSV text: the header, then one line per row, numbers at 17 significant digits.

    ``str`` cells (method names) are written as they are.  The whole file
    is formatted by one ``%``, with the cell types of the first row.
    """
    rows = list(rows)
    line = ",".join("%s" if isinstance(v, str) else _FMT for row in rows[:1] for v in row)
    return header + "\n" + ((line + "\n") * len(rows)) % tuple(chain.from_iterable(rows))


def trajectory_csv(traj: Trajectory) -> str:
    """The ``t,I,S`` CSV of a trajectory, S written as 1 - I."""
    return csv_text("t,I,S", np.column_stack((traj.grid.nodes(), traj.u, 1.0 - traj.u)).tolist())


def _svg_polyline(xs, ys, color: str, dashed: bool) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
        f'points="{pts}"/>'
    )


_SVG_COLORS = {
    "series": "#1f77b4",
    "pece": "#d62728",
    "l1": "#2ca02c",
    "classical": "#7f7f7f",
}


def _svg_text(trajectories: dict[Method, Trajectory]) -> str:
    """Static line plot: I (solid) and S (dashed) against t per method."""
    w, h = 800.0, 500.0
    mx, my = 60.0, 40.0
    first = next(iter(trajectories.values()))
    T = first.grid.T
    xs = mx + (w - 2 * mx) * first.grid.nodes() / T

    def ys(values):
        return my + (h - 2 * my) * (1.0 - np.clip(values, 0.0, 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:g}" height="{h:g}" '
        f'viewBox="0 0 {w:g} {h:g}">',
        f'<rect width="{w:g}" height="{h:g}" fill="white"/>',
        f'<line x1="{mx}" y1="{h - my}" x2="{w - mx}" y2="{h - my}" stroke="black"/>',
        f'<line x1="{mx}" y1="{my}" x2="{mx}" y2="{h - my}" stroke="black"/>',
        f'<text x="{w / 2:.2f}" y="{h - 8:.2f}" font-size="14" text-anchor="middle">t</text>',
        f'<text x="16" y="{h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {h / 2:.2f})">population fraction</text>',
        f'<text x="{mx:.2f}" y="{h - my + 16:.2f}" font-size="11" text-anchor="middle">0</text>',
        f'<text x="{w - mx:.2f}" y="{h - my + 16:.2f}" font-size="11" text-anchor="middle">{T:g}</text>',
        f'<text x="{mx - 8:.2f}" y="{h - my:.2f}" font-size="11" text-anchor="end">0</text>',
        f'<text x="{mx - 8:.2f}" y="{my + 4:.2f}" font-size="11" text-anchor="end">1</text>',
    ]
    legend_y = my
    for method, traj in trajectories.items():
        color = _SVG_COLORS[method.value]
        parts.append(_svg_polyline(xs, ys(traj.u), color, dashed=False))
        parts.append(_svg_polyline(xs, ys(1.0 - traj.u), color, dashed=True))
        parts.append(
            f'<text x="{w - mx - 70:.2f}" y="{legend_y:.2f}" font-size="12" '
            f'fill="{color}">{method.value}</text>'
        )
        legend_y += 16.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(
    trajectories: dict[Method, Trajectory],
    reports: Sequence[ComparisonReport],
    config: RunConfig,
) -> list[Path]:
    """Write the run's files in ``config.formats`` and its manifest.

    With ``"csv"`` every trajectory goes to ``<method>.csv``
    (:func:`trajectory_csv`) and the report pairs to ``comparison.csv``;
    with ``"svg"`` the plot goes to ``trajectories.svg``.  Every run,
    whatever its formats, writes ``manifest.json``: the exact config,
    derived parameters, the series radius recorded in the series
    trajectory's meta, per-node series convergence flags and the emitted
    CSV names.  Requires ``config.output_dir``, which is created with its
    parents if missing; returns the written paths, in the order
    ``<method>.csv``, ``trajectories.svg``, ``comparison.csv``, manifest.
    """
    if config.output_dir is None:
        raise ValidationError("emit requires an output directory in the config")
    csv = "csv" in config.formats
    names = {m: f"{m.value}.csv" for m in trajectories}
    files = {names[m]: trajectory_csv(t) for m, t in trajectories.items()} if csv else {}
    if "svg" in config.formats:
        files["trajectories.svg"] = _svg_text(trajectories)
    if csv and reports:
        rows = (p for r in reports for p in r.pairs)
        files["comparison.csv"] = csv_text("method_a,method_b,linf", rows)
    series = trajectories.get(Method.SERIES)
    manifest = {
        "tool": TOOL_NAME,
        "version": __version__,
        "config": _config_dict(config),
        "derived": asdict(config.derived),
        "series_radius": None if series is None else series.meta["radius"],
        "comparisons": [{"alpha": r.alpha, "pairs": [list(p) for p in r.pairs]} for r in reports],
        "trajectories": {
            m.value: {
                **({"file": names[m]} if names[m] in files else {}),
                **({k: t.meta[k] for k in _SERIES_FLAGS} if m is Method.SERIES else {}),
            }
            for m, t in trajectories.items()
        },
    }
    files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return [_write(Path(config.output_dir) / name, text) for name, text in files.items()]
