"""Checks on the project files around the package."""

import importlib
import re
import tomllib
from pathlib import Path

import pytest

import nliexpl

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


def test_declared_version_and_console_script(capsys):
    """pyproject's version is the package's `__version__`, and its
    `nliexpl` script names `nliexpl.cli:main`, whose `--version` exits 0
    printing that version."""
    project = _project()["project"]
    assert project["version"] == nliexpl.__version__
    assert project["scripts"] == {"nliexpl": "nliexpl.cli:main"}
    module, name = project["scripts"]["nliexpl"].split(":")
    main = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == nliexpl.__version__


def test_workflow_installs_the_package_and_runs_its_script():
    """The workflow installs the package and runs its console script
    before it checks that the checkout is clean, and git ignores what
    the install leaves in the checkout."""
    workflow = _workflow()
    install = workflow.index("python -m pip install --no-deps . && nliexpl --version")
    assert install < workflow.index("name: No files left behind")
    ignored = (ROOT / ".gitignore").read_text(encoding="utf-8").split()
    assert "build/" in ignored and "*.egg-info/" in ignored


def test_cli_docs_name_every_subcommand():
    """The subcommands `cli.build_parser()` defines are exactly those the
    `cli` module docstring lists and those the README's CLI block runs."""
    from nliexpl import cli
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    listed = re.search(r"Subcommands: ([^.]+)\.", cli.__doc__).group(1)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", readme, re.S).group(1)
    commands = set(sub.choices)
    assert set(listed.replace(",", " ").split()) == commands
    assert set(re.findall(r"^nliexpl ([\w-]+)", block, re.M)) == commands


def test_readme_names_every_flag():
    """Every flag `cli.build_parser()` defines, on the program or on a
    subcommand, appears in README.md."""
    from nliexpl import cli
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    flags = {flag for p in [parser, *sub.choices.values()]
             for action in p._actions if action.dest != "help"
             for flag in action.option_strings}
    assert {flag for flag in flags
            if not re.search(re.escape(flag) + r"(?![\w-])", readme)} == set()


def test_package_namespace_holds_only_its_submodules():
    """Code imports the modules (`from nliexpl.training import train`),
    so each name has one home: once the CLI has loaded the package, every
    public attribute of `nliexpl` is one of its submodules."""
    import nliexpl.cli  # noqa: F401 (loads the modules the program runs)
    stray = sorted(name for name, value in vars(nliexpl).items()
                   if not name.startswith("_")
                   and getattr(value, "__name__", None) != f"nliexpl.{name}")
    assert stray == []
