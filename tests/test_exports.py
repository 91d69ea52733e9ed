"""Every name that a module of the package exports exists in it, so a
renamed or deleted function cannot linger in an ``__all__``."""

import importlib
import pkgutil

import wscalc


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(wscalc.__path__):
        module = importlib.import_module("wscalc." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
            checked += 1
    assert checked > 0
