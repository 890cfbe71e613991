"""Package surface: every exported name exists, and the import path is
numpy only."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import levosc


def test_public_names_resolve():
    modules = [levosc] + [importlib.import_module(f"levosc.{info.name}")
                          for info in pkgutil.iter_modules(levosc.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__} exports missing {missing}"


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would double the
    # start-up of every CLI call
    src = str(Path(levosc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, levosc.cli; print(sorted(name for name in "
            "sys.modules if name.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
