"""Importing the package loads no optional numerical library.

Every subsystem runs on the standard library alone, so a process that
imports ``repro`` pays for no numpy import (about 12 MB of resident
memory) whether or not numpy is installed.  The check runs in a fresh
interpreter, because this test process may already have numpy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import importlib
import pkgutil
import sys

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print("numpy" in sys.modules)
"""


def test_importing_every_subpackage_leaves_numpy_unloaded():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert probe.stdout.strip() == "False"
