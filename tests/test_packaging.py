"""Package metadata and exports."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import fracsis

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_read_from_the_package():
    # pyproject.toml declares the version dynamic: fracsis.__version__ is its one home
    assert read_configuration(PYPROJECT)["project"]["version"] == fracsis.__version__


def test_exports_match_module_all():
    # every name of the export table is in its submodule's __all__ and reads
    # as that submodule's object, and every __all__ entry resolves
    assert fracsis.__all__ == [*fracsis._EXPORTS, *fracsis._SUBMODULES]
    for name, owner in fracsis._EXPORTS.items():
        module = importlib.import_module(f"fracsis.{owner}")
        assert name in module.__all__, (owner, name)
        assert getattr(fracsis, name) is getattr(module, name), (owner, name)
    for owner in fracsis._SUBMODULES:
        module = importlib.import_module(f"fracsis.{owner}")
        for name in module.__all__:
            assert hasattr(module, name), (owner, name)


#: what ``from fracsis import *`` binds: the exports and the seven submodules
STAR_NAMES = set("""
    CoeffKind CoeffTable ComparisonReport DerivedParams DomainError EvalResult
    FracsisError GridMismatchError HypothesisError InsufficientDataError Method
    ModelParams NumericError NumericOverflowError RadiusEstimate RunConfig
    SeriesSolution TimeGrid Trajectory ValidationError a_coeffs
    carrying_capacity_series classical_sis compare_methods crossing_node derive
    discrete_caputo_l1 emit empirical_radius euler_alpha evaluate
    format_report_table l1_kernel linf_distance load_config logistic_rhs
    mittag_leffler pece_kernels population_curve preset_config
    radius_carrying_capacity radius_zero_capacity rescaled_zero_capacity_series
    run_c0_suite run_methods run_table1 sample_trajectory solve_l1 solve_method
    solve_pece zero_capacity_series
    coeffs errors harness model series solvers specfn
""".split())

#: run in a fresh interpreter: the package modules loaded after each step
LOADING = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("fracsis"))

import fracsis
seen = {"import": loaded()}
import fracsis.cli
seen["cli"] = loaded()
grid = fracsis.TimeGrid(1.0, 0.25)
pece = fracsis.solve_pece(lambda u: u * (1 - u), 0.5, grid, 0.7)
fracsis.solve_l1(lambda u: u * (1 - u), 0.5, grid, 0.7)
fracsis.discrete_caputo_l1(pece.u, 0.7, 0.25)
seen["schemes"] = loaded()
params = fracsis.ModelParams(beta=0.5, gamma=0.1, mu=0.1, alpha=0.7, i0=0.1)
fracsis.logistic_rhs(params, fracsis.derive(params))
seen["model"] = loaded()
try:
    fracsis.no_such_name
except AttributeError as e:
    seen["unknown"] = str(e)
seen["dir"] = dir(fracsis)
star = {}
exec("from fracsis import *", star)
seen["star"] = sorted(set(star) - {"__builtins__"})
print(json.dumps(seen))
"""


def test_submodules_load_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(Path(fracsis.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", LOADING], env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen["import"] == ["fracsis"]
    assert seen["cli"] == ["fracsis", "fracsis.cli", "fracsis.errors"]
    assert not {"fracsis.harness", "fracsis.series", "fracsis.specfn"} & set(seen["schemes"])
    # derive decides the series hypothesis and forms the radius without coeffs
    assert set(seen["model"]) - set(seen["schemes"]) == {"fracsis.model"}
    assert len(STAR_NAMES) == 58
    assert set(seen["star"]) == STAR_NAMES
    assert STAR_NAMES <= set(seen["dir"])
    assert seen["unknown"] == "module 'fracsis' has no attribute 'no_such_name'"


def modules():
    """Every module of the package but ``__main__``, which runs the CLI."""
    root = Path(fracsis.__file__).parent
    return [importlib.import_module(f"fracsis.{p.stem}")
            for p in sorted(root.glob("*.py")) if p.stem not in ("__init__", "__main__")]


def test_every_cache_has_the_one_bound():
    from fracsis._cache import _CACHE_SIZE

    bounds = {}
    for module in modules():
        scopes = [module, *(c for c in vars(module).values()
                            if isinstance(c, type) and c.__module__ == module.__name__)]
        for scope in scopes:
            for name, obj in vars(scope).items():
                if callable(getattr(obj, "cache_info", None)) and obj.__module__ == module.__name__:
                    bounds[f"{module.__name__}.{name}"] = obj.cache_info().maxsize
    # the parser takes no argument, and the generated functions are three:
    # each cache holds its few values for the process
    assert bounds.pop("fracsis.cli.build_parser") is None
    assert bounds.pop("fracsis._cache._compiled") is None
    assert bounds == dict.fromkeys([
        "fracsis.coeffs._table", "fracsis.coeffs.log_gamma_orders",
        "fracsis.series._series_table", "fracsis.series._unit_scale_sums",
        "fracsis.solvers._l1_plan", "fracsis.solvers._pece_plan",
        "fracsis.solvers.node_powers",
    ], _CACHE_SIZE)


def package_imports(module):
    """The package modules that ``module`` imports, as (name, names) pairs:
    the names imported from it, or ``None`` for the module itself."""
    found = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                found.append((node.module, [alias.name for alias in node.names]))
            elif (node.module or "").startswith("fracsis."):
                found.append((node.module[8:], [alias.name for alias in node.names]))
        elif isinstance(node, ast.Import):
            found += [(alias.name[8:], None) for alias in node.names
                      if alias.name.startswith("fracsis.")]
    return found


def test_specfn_is_the_mittag_leffler_module_alone():
    # the series kernel lives in series and the log-Gammas in coeffs:
    # specfn reads only the errors, coeffs neither specfn nor series, and
    # no module reaches into specfn's private names
    imported = {module.__name__: package_imports(module) for module in modules()}
    assert [name for name, _ in imported["fracsis.specfn"]] == ["errors"]
    assert not {"specfn", "series"} & {name for name, _ in imported["fracsis.coeffs"]}
    for module, found in imported.items():
        for name, names in found:
            if name == "specfn":
                assert names is not None, module
                assert not [n for n in names if n.startswith("_")], (module, names)


def test_numeric_modules_import_only_errors_and_cache():
    # the regime, the series hypothesis and both radii share model, which
    # reads only the errors; coeffs, model, solvers and specfn read only
    # the errors and the cache policy, and so none of each other
    numeric = {"coeffs", "model", "solvers", "specfn"}
    imported = {}
    for module in modules():
        short = module.__name__.removeprefix("fracsis.")
        if short in numeric:
            found = package_imports(module)
            # ``from . import x`` is (None, ["x"])
            imported[short] = {m for name, names in found for m in ([name] if name else names)}
    assert imported.keys() == numeric
    assert imported["model"] == {"errors"}
    for short, found in imported.items():
        assert found <= {"errors", "_cache"}, (short, found)


def test_cache_policy_is_imported_from_its_home():
    # a copy of _CACHE_MAX_N elsewhere would take a patch that _per_grid never reads
    policy = {"_CACHE_SIZE", "_CACHE_MAX_N", "_per_grid", "_read_only"}
    for module in modules():
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                names = policy.intersection(alias.name for alias in node.names)
                assert not names or node.module == "_cache", (module.__name__, names)
        if module.__name__ != "fracsis._cache":
            assert not hasattr(module, "_CACHE_MAX_N"), module.__name__


#: a measured timing: a duration, the host it ran on or the tool that took it
TIMING = re.compile(r"\d\s?(?:s|us|µs|ms)\b|Xeon|vCPU|timeit|best of \d|\bp50\b")


def test_no_measured_timings_in_the_sources_or_readme():
    # a timing drifts with every change to the code it measures: it lives
    # once, in CHANGES.md or a BENCH_*.json file, which a comment may cite
    files = [*sorted((ROOT / "src" / "fracsis").glob("*.py")), ROOT / "README.md"]
    hits = [f"{path.name}:{i}: {line.strip()}" for path in files
            for i, line in enumerate(path.read_text().splitlines(), 1) if TIMING.search(line)]
    assert not hits


README = ROOT / "README.md"
#: the modules of the package, private ones such as ``_cache`` included
PACKAGE = {p.stem for p in Path(fracsis.__file__).parent.glob("*.py")}
#: a backticked span that is one dotted name, such as `fracsis.series.evaluate`
CITED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def readme_names():
    """Each dotted name README cites in backticks, with its line number;
    fenced code blocks are left out."""
    text = re.sub(r"```.*?```", lambda m: "\n" * m[0].count("\n"), README.read_text(), flags=re.S)
    return [(i, name) for i, line in enumerate(text.splitlines(), 1) for name in CITED.findall(line)]


def test_readme_names_no_private_name():
    # README points at the public modules and functions whose docstrings
    # state each mechanism: a private helper is a detail of its module
    private = [(i, name) for i, name in readme_names()
               if any(part.startswith("_") and part not in PACKAGE for part in name.split("."))]
    assert not private


def resolve(name: str):
    """The object a dotted name such as ``fracsis.coeffs.MAX_ORDER`` names:
    the longest importable prefix, then attributes."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(name)


def test_readme_citations_resolve():
    # every fracsis.- or module-qualified name README cites exists
    cited = [name if name.split(".")[0] == "fracsis" else f"fracsis.{name}"
             for _, name in readme_names()
             if name.split(".")[0] == "fracsis" or ("." in name and name.split(".")[0] in PACKAGE)]
    assert len(cited) > 10
    for name in cited:
        resolve(name)


def test_identity_script_runs_on_the_checkout():
    # bench/identity.py reaches private names (series._sum_nodes,
    # CoeffTable._root): a rename that breaks it fails here, not at the
    # next comparison of two checkouts
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "identity.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = [m[1] if (m := re.fullmatch(r"(\w+) [0-9a-f]{64}", line)) else line
             for line in proc.stdout.splitlines()]
    assert names == ["u", "terms_used", "converged", "beyond_theoretical_radius", "radii",
                     "tables", "raised", "E_alpha", "E_alpha_pos", "table1", "c0", "pece", "l1"]
