"""Importing the package or its console script stays light: the
subprocess machinery is imported only by the external counter, which
uses it, and no process pool is imported at all."""

import subprocess
import sys

import pytest
from conftest import package_env

LAZY = ("subprocess", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("module", ["hornenum", "hornenum.cli"])
def test_import_loads_no_process_machinery(module):
    code = (f"import sys, {module}; "
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
