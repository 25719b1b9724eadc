"""Legacy setup shim.

The execution environment lacks the `wheel` package, which PEP 660
editable installs require; this shim lets `pip install -e .` use the
legacy `setup.py develop` path instead.  All metadata, the version
included, lives in pyproject.toml.
"""

from setuptools import setup

setup()
