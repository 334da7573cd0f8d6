"""Every name a galiray module lists in __all__ must resolve, so a deleted
function cannot linger in the public API."""

import importlib
import pkgutil

import pytest

import galiray

MODULES = sorted(m.name for m in pkgutil.iter_modules(galiray.__path__,
                                                     "galiray."))


def test_every_module_is_found():
    assert {"galiray.group", "galiray.harness", "galiray.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
