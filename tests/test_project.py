"""Checks on the project files around the package."""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_dev_extra_pins_the_workflow_test_tools():
    """The `dev` extra pins pytest and hypothesis to the versions the CI
    workflow installs, so the property tests draw the same examples
    wherever the suite runs."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    dev = project["project"]["optional-dependencies"]["dev"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(
        encoding="utf-8")
    pinned = re.findall(r'"((?:pytest|hypothesis)==[^"]+)"', workflow)
    assert len(pinned) == 2
    assert sorted(dev) == sorted(pinned)
