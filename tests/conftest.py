"""Fixtures shared by the test modules."""

import importlib.metadata
from pathlib import Path

import pytest

CONSTRAINTS = Path(__file__).resolve().parent.parent / "constraints.txt"


def _pins() -> dict:
    """Package name -> version of each `name==version` line of constraints.txt."""
    pins = {}
    for line in CONSTRAINTS.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name, version = line.split("==")
            pins[name.strip()] = version.strip()
    return pins


@pytest.fixture(scope="session")
def recorded_stack() -> str:
    """The message of a golden or digest test that fails: the package
    versions its values were recorded on and the ones running, so that a
    failure after an upgrade can be told from a regression."""
    pins = _pins()
    recorded = ", ".join(f"{name} {version}" for name, version in pins.items())
    running = ", ".join(f"{name} {importlib.metadata.version(name)}" for name in pins)
    return f"values recorded on {recorded} (constraints.txt); running {running}"
