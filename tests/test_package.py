"""The package namespace: every public name loads from its home module on use."""

import importlib
from pathlib import Path

import pytest

import gsvkit


@pytest.mark.parametrize("name", gsvkit.__all__)
def test_public_name_is_its_home_module_object(name):
    home = importlib.import_module(f"gsvkit.{gsvkit._HOME[name]}")
    assert getattr(gsvkit, name) is getattr(home, name)
    assert name in dir(gsvkit)


def test_normalize_sheet_resolves_from_package_and_strata():
    from gsvkit import strata
    assert gsvkit.normalize_sheet is strata.normalize_sheet
    assert gsvkit.normalize_sheet("neg") == -1


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gsvkit.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gsvkit import *", namespace)
    assert set(gsvkit.__all__) <= set(namespace)
    assert namespace["verify_transversal"] is gsvkit.verify_transversal


def test_every_data_file_of_the_package_is_declared():
    """A wheel carries only the `.py` files and the declared package data."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    declared = set(config["tool"]["setuptools"]["package-data"]["gsvkit"])
    files = {p.name for p in (root / "src" / "gsvkit").iterdir()
             if p.is_file() and p.suffix != ".py"}
    assert files and files <= declared
