"""Setuptools entry point.

Nothing in the repository installs the package: tests, examples and
benchmarks run with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
