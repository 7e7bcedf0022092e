"""Setup shim.

The package metadata (name, version, dependencies, the ``repro-igp``
console script) is declared in the ``[project]`` table of
``pyproject.toml``.  This file exists so that
``pip install -e . --no-build-isolation --no-use-pep517`` works on offline
machines whose setuptools lacks the ``wheel`` package needed for PEP-660
editable installs.
"""

from setuptools import setup

setup()
