"""Package metadata and exports."""

import ast
import importlib
import re
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
    # every name the package imports from a submodule is in that module's
    # __all__, and every __all__ entry resolves
    tree = ast.parse(Path(fracsis.__file__).read_text())
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = importlib.import_module(f"fracsis.{node.module}")
        if not hasattr(module, "__all__"):
            continue
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
        for name in module.__all__:
            assert hasattr(module, name), (node.module, name)


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
TIMING = re.compile(r"\d\s?(?:us|µs|ms)\b|Xeon|timeit|best of \d|\bp50\b")


def test_no_measured_timings_in_the_sources_or_readme():
    # a timing drifts with every change to the code it measures: it lives
    # once, in CHANGES.md or a BENCH_*.json file, which a comment may cite
    files = [*sorted((ROOT / "src" / "fracsis").glob("*.py")), ROOT / "README.md"]
    hits = [f"{path.name}:{i}: {line.strip()}" for path in files
            for i, line in enumerate(path.read_text().splitlines(), 1) if TIMING.search(line)]
    assert not hits
