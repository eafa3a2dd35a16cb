"""The runtime needs numpy alone, as ``pyproject.toml`` declares: scipy,
hypothesis and pytest are test dependencies only."""

import os
import pathlib
import subprocess
import sys

import qcontour

_IMPORT_ALL = """
import importlib, pkgutil, sys
import qcontour
for info in pkgutil.iter_modules(qcontour.__path__):
    importlib.import_module(f"qcontour.{info.name}")
print(sorted(name for name in ("scipy", "hypothesis", "pytest")
             if name in sys.modules))
"""


def test_package_imports_no_test_dependency():
    # a fresh interpreter: this test process has all three loaded already
    src = str(pathlib.Path(qcontour.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
