"""Fractional-order SIS epidemic model with constant population.

The infected fraction of a constant-size population without immunity
obeys the Caputo-fractional logistic equation

    D^alpha I = beta c I - beta I**2,        S = 1 - I,

with basic reproduction number sigma = beta/(gamma + mu) and carrying
capacity c = (sigma - 1)/sigma.  The package provides three independent
routes to I(t) and the machinery to cross-validate them:

* explicit fractional power-series solutions (`fracsis.series`), with
  coefficient recursions and convergence-radius tooling in
  `fracsis.coeffs`;
* a fractional Adams-Bashforth-Moulton (PECE) scheme and an L1-type
  scheme for general scalar Caputo problems (`fracsis.solvers`);
* the alpha = 1 closed forms as oracles (`fracsis.model`).

`fracsis.harness` orchestrates reproducible experiments (presets,
pairwise L-infinity reports, CSV/JSON/SVG emission), also reachable via
the ``fracsis`` command line tool.
"""

# defined before the submodule imports: the harness writes it to manifests
__version__ = "0.1.0"

from .coeffs import (
    CoeffKind,
    CoeffTable,
    RadiusEstimate,
    a_coeffs,
    empirical_radius,
    euler_alpha,
    radius_carrying_capacity,
    radius_zero_capacity,
)
from .errors import (
    DomainError,
    FracsisError,
    GridMismatchError,
    HypothesisError,
    InsufficientDataError,
    NumericError,
    NumericOverflowError,
    ValidationError,
)
from .harness import (
    ComparisonReport,
    RunConfig,
    compare_methods,
    crossing_node,
    emit,
    format_report_table,
    linf_distance,
    load_config,
    population_curve,
    preset_config,
    run_c0_suite,
    run_methods,
    run_table1,
    solve_method,
)
from .model import DerivedParams, ModelParams, classical_sis, derive, logistic_rhs
from .series import (
    EvalResult,
    SeriesSolution,
    carrying_capacity_series,
    evaluate,
    rescaled_zero_capacity_series,
    sample_trajectory,
    zero_capacity_series,
)
from .solvers import (
    Method,
    TimeGrid,
    Trajectory,
    discrete_caputo_l1,
    l1_kernel,
    pece_kernels,
    solve_l1,
    solve_pece,
)
from .specfn import mittag_leffler, ml_asymptotics
