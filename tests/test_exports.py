"""Export lists: every name a module lists in __all__ is defined there, and
every name the package exports resolves to a listed name of its module.
The benchmark's tracer wraps the names of each __all__ and silently skips
one that is missing or imported from elsewhere, so a stale entry would
drop a layer from its metrics unnoticed."""

import importlib
import pkgutil

import pytest

import curvedfronts

MODULES = sorted(m.name for m in pkgutil.iter_modules(curvedfronts.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined_in_the_module(name):
    mod = importlib.import_module(f"curvedfronts.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"{name}.__all__ lists missing {attr!r}"
        assert getattr(mod, attr).__module__ == mod.__name__, f"{name}.{attr}"


def test_package_exports_resolve_to_module_exports():
    assert len(set(curvedfronts.__all__)) == len(curvedfronts.__all__)
    for attr in curvedfronts.__all__:
        assert hasattr(curvedfronts, attr), f"curvedfronts.__all__ lists missing {attr!r}"
        obj = getattr(curvedfronts, attr)
        home = importlib.import_module(obj.__module__)
        assert attr in home.__all__ and getattr(home, attr) is obj, attr
