"""Every name a galiray module lists in __all__ must resolve, so a deleted
function cannot linger in the public API, and the package re-exports
exactly the names its modules list."""

import importlib
import pkgutil
import types

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


def test_the_package_re_exports_exactly_the_modules_all():
    # every module but the command line, whose main is the galiray script
    library = [name for name in MODULES if name != "galiray.cli"]
    union = set().union(*(importlib.import_module(name).__all__
                          for name in library))
    exported = {n for n, v in vars(galiray).items()
                if not (n.startswith("_") or isinstance(v, types.ModuleType))}
    assert exported == union
