"""Package metadata."""

from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

import fracsis

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_read_from_the_package():
    # pyproject.toml declares the version dynamic: fracsis.__version__ is its one home
    assert read_configuration(PYPROJECT)["project"]["version"] == fracsis.__version__
