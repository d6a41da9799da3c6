"""Every name a modetab module exports exists."""

import importlib
import pkgutil

import pytest

import modetab

MODULES = ["modetab"] + [
    "modetab." + m.name for m in pkgutil.iter_modules(modetab.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
