"""Test configuration: make helper modules in this directory importable."""

import importlib.util
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    # pyproject.toml sets pytest-timeout's ``timeout`` key.  Where the plugin
    # is not installed, register the key so pytest does not warn that it is
    # unknown; where it is (as in CI), the plugin owns it.
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini("timeout", "per-test timeout (needs pytest-timeout)")
