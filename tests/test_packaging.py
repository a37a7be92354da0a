"""The packaging metadata in pyproject.toml, checked without an install."""

from importlib import import_module
from pathlib import Path, PurePosixPath

import pytest

import pantsarc
from pantsarc import cli

# tomllib is in the standard library from Python 3.11
tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(pantsarc.__file__).parent


def _pyproject():
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def test_console_script_is_the_cli_entry_point():
    target = _pyproject()["project"]["scripts"]["pantsarc"]
    module, _, name = target.partition(":")
    assert getattr(import_module(module), name) is cli.main


def test_package_data_globs_ship_every_data_file():
    globs = _pyproject()["tool"]["setuptools"]["package-data"]["pantsarc"]
    files = {PurePosixPath(p.relative_to(PACKAGE).as_posix())
             for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    # the files words._data_lines opens for census, lowlying and planar
    assert {PurePosixPath("data", name) for name in (
        "census_minmax.csv", "lowlying_words.csv", "decidable_pairs.txt")} <= files
    for path in files:
        assert any(path.match(g) for g in globs), path
