"""Package metadata and exports."""

import ast
import importlib
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import fracsis

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
