# Package metadata lives in pyproject.toml. This shim keeps the legacy
# `python setup.py develop` install working where the `wheel` package, which
# `pip install -e .` needs, is not available.
from setuptools import setup

setup()
