"""Package surface: every exported name exists."""

import importlib
import pkgutil

import levosc


def test_public_names_resolve():
    modules = [levosc] + [importlib.import_module(f"levosc.{info.name}")
                          for info in pkgutil.iter_modules(levosc.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__} exports missing {missing}"
