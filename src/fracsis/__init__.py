"""Fractional-order SIS epidemic model with constant population.

The infected fraction of a constant-size population without immunity
obeys the Caputo-fractional logistic equation

    D^alpha I = beta c I - beta I**2,        S = 1 - I,

with basic reproduction number sigma = beta/(gamma + mu) and carrying
capacity c = (sigma - 1)/sigma.  The package provides three independent
routes to I(t) and the machinery to cross-validate them:

* explicit fractional power-series solutions (`fracsis.series`), with
  coefficient recursions and the root-test radius in `fracsis.coeffs`;
* a fractional Adams-Bashforth-Moulton (PECE) scheme and an L1-type
  scheme for general scalar Caputo problems (`fracsis.solvers`);
* the regime, the series hypothesis with both guaranteed radii, and the
  alpha = 1 closed forms as oracles (`fracsis.model`).

`fracsis.harness` orchestrates reproducible experiments (presets,
pairwise L-infinity reports, CSV/JSON/SVG emission), also reachable via
the ``fracsis`` command line tool.

Submodules load on first use.  ``import fracsis`` imports none of them:
the first read of an export, such as ``fracsis.solve_pece``, or of a
submodule, such as ``fracsis.solvers``, imports the submodule that owns
it (with the modules it imports itself), and ``__version__`` is read
without any import.  ``import fracsis.cli`` adds ``fracsis.errors``
alone; a command loads ``harness`` and, through it, the rest.  So a
program that only runs the schemes never loads ``harness``, ``series``
or ``specfn``.  ``from fracsis import *`` binds every export and the
seven submodules, and so loads them all.
"""

__version__ = "0.1.0"

#: each export, by the submodule that defines it
_SUBMODULES = {
    "coeffs": (
        "CoeffKind", "CoeffTable", "RadiusEstimate", "a_coeffs", "empirical_radius",
        "euler_alpha",
    ),
    "errors": (
        "DomainError", "FracsisError", "GridMismatchError", "HypothesisError",
        "InsufficientDataError", "NumericError", "NumericOverflowError", "ValidationError",
    ),
    "harness": (
        "ComparisonReport", "RunConfig", "compare_methods", "crossing_node", "emit",
        "format_report_table", "linf_distance", "load_config", "population_curve",
        "preset_config", "run_c0_suite", "run_methods", "run_table1", "solve_method",
    ),
    "model": (
        "DerivedParams", "ModelParams", "classical_sis", "derive", "logistic_rhs",
        "radius_carrying_capacity", "radius_zero_capacity",
    ),
    "series": (
        "EvalResult", "SeriesSolution", "carrying_capacity_series", "evaluate",
        "rescaled_zero_capacity_series", "sample_trajectory", "zero_capacity_series",
    ),
    "solvers": (
        "Method", "TimeGrid", "Trajectory", "discrete_caputo_l1", "l1_kernel",
        "pece_kernels", "solve_l1", "solve_pece",
    ),
    "specfn": ("mittag_leffler",),
}
#: the export table: each exported name and the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}
__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    """Import the submodule that owns ``name`` on its first use; an export is
    then bound here, so that later reads find it without this call."""
    owner = name if name in _SUBMODULES else _EXPORTS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: -X importtime lists only the
    # imports made through it.  A non-empty fromlist returns the submodule.
    module = __import__(f"{__name__}.{owner}", fromlist=[name])
    if owner == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
