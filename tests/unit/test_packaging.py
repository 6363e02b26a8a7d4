"""Packaging metadata sanity: pyproject.toml exists and matches the layout.

The setup shim (``setup.py``) declares that all real metadata lives in
``pyproject.toml``; these tests pin that promise so the distribution keeps a
name, a version, src-layout package discovery, and the numpy, orjson (the
serving layer's request decoder) and scipy (the t and F quantiles of OPTWIN's
cut tables) dependencies.
"""

import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _load_pyproject():
    with open(_ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def test_pyproject_exists_with_core_metadata():
    data = _load_pyproject()
    assert data["project"]["name"]
    assert any(dep.startswith("numpy") for dep in data["project"]["dependencies"])
    assert any(dep.startswith("orjson") for dep in data["project"]["dependencies"])
    assert any(dep.startswith("scipy") for dep in data["project"]["dependencies"])


def test_version_is_single_sourced_from_the_package():
    data = _load_pyproject()
    assert "version" in data["project"]["dynamic"]
    assert data["tool"]["setuptools"]["dynamic"]["version"]["attr"] == "repro.__version__"
    import repro

    assert repro.__version__


def test_pyproject_declares_src_layout():
    data = _load_pyproject()
    assert data["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert (_ROOT / "src" / "repro" / "__init__.py").exists()


def test_build_system_is_setuptools_pep621():
    data = _load_pyproject()
    assert data["build-system"]["build-backend"] == "setuptools.build_meta"
    assert any(req.startswith("setuptools") for req in data["build-system"]["requires"])


def test_package_discovery_finds_repro():
    setuptools = pytest.importorskip("setuptools")
    packages = setuptools.find_packages(where=str(_ROOT / "src"))
    assert "repro" in packages
    assert "repro.experiments" in packages
