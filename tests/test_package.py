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


def _loaded_by_cli_import(prefixes: tuple[str, ...]) -> list[str]:
    """The modules under ``prefixes`` that a fresh ``import levosc.cli``
    loads."""
    src = str(Path(levosc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (f"import sys, levosc.cli; print(*sorted(name for name in "
            f"sys.modules if name.split('.')[0] in {prefixes!r}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would double the
    # start-up of every CLI call
    assert _loaded_by_cli_import(("scipy",)) == []


def test_cli_import_loads_no_thread_pool():
    # the ring-down's two threads are plain threading.Thread: a thread
    # pool would import concurrent.futures and logging with it, some 9 ms
    # of start-up and 0.6 MB of memory on every CLI call
    assert _loaded_by_cli_import(("concurrent", "logging")) == []
