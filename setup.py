"""Setup shim enabling legacy editable installs on machines without ``wheel``.

``pip install -e . --no-use-pep517 --no-build-isolation`` falls back to
``setup.py develop``, which works offline; all real metadata (name, version,
``src``-layout package discovery, the numpy and orjson dependencies) lives in
``pyproject.toml`` and is resolved by setuptools>=61 from there.
"""

from setuptools import setup

setup()
