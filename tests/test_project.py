"""Checks on the project files around the package."""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _project():
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def _workflow():
    return (ROOT / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")


def test_dev_extra_pins_the_workflow_test_tools():
    """The `dev` extra pins pytest and hypothesis to the versions the CI
    workflow installs, so the property tests draw the same examples
    wherever the suite runs."""
    dev = _project()["project"]["optional-dependencies"]["dev"]
    pinned = re.findall(r'"((?:pytest|hypothesis)==[^"]+)"', _workflow())
    assert len(pinned) == 2
    assert sorted(dev) == sorted(pinned)


def test_workflow_runs_the_declared_python_floor():
    """The workflow runs the oldest Python that `requires-python`
    admits, so the floor is the version the suite is run on."""
    floor = _project()["project"]["requires-python"]
    assert floor.startswith(">=")
    assert re.findall(r'python-version: "([^"]+)"', _workflow()) == [floor[2:]]
