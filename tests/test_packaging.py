"""The distribution is named hookexp and takes its version from
hookexp.__version__.  pyproject.toml is read with plain regular
expressions, so the test runs on Python 3.10 too (no tomllib there); where
tomllib exists it must read the same values."""

import re
from importlib import import_module
from pathlib import Path

import hookexp

PYPROJECT = (Path(__file__).resolve().parent.parent
             / "pyproject.toml").read_text()


def _table(name):
    """The key = value lines of one [table], as {key: raw value}."""
    match = re.search(r"^\[%s\]\n(.*?)(?=^\[|\Z)" % re.escape(name),
                      PYPROJECT, re.M | re.S)
    assert match, name
    return dict(re.findall(r"^([\w-]+) = (.+)$", match.group(1), re.M))


def test_the_distribution_is_named_hookexp_with_a_dynamic_version():
    project = _table("project")
    assert project["name"] == '"hookexp"'
    assert project["dynamic"] == '["version"]'
    assert "version" not in project  # one place holds the version


def test_the_version_is_read_from_the_package():
    raw = _table("tool.setuptools.dynamic")["version"]
    (attr,) = re.fullmatch(r'\{attr = "([\w.]+)"\}', raw).groups()
    module, _, name = attr.rpartition(".")
    assert getattr(import_module(module), name) == hookexp.__version__
    assert re.fullmatch(r"\d+\.\d+\.\d+", hookexp.__version__)


def test_tomllib_reads_the_same_where_it_exists():
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return
    data = tomllib.loads(PYPROJECT)
    assert data["project"]["name"] == "hookexp"
    assert data["project"]["dynamic"] == ["version"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "hookexp.__version__"}
