"""The public surface: exported names resolve, and every check is selectable."""

import importlib
import pkgutil

import pytest

import genfrac
from genfrac.inequalities import DEFAULT_THEOREMS, TheoremId

MODULES = ["genfrac"] + ["genfrac." + m.name for m in pkgutil.iter_modules(genfrac.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_theorem_check_is_a_default_one():
    # the CLI selects from DEFAULT_THEOREMS, so no check is reachable from tests alone
    assert set(TheoremId) == set(DEFAULT_THEOREMS)
