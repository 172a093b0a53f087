"""Every demo runs to completion as a script."""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import package_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

#: Extra arguments per demo; the width-6 demo stops at its budget.
ARGS = {"06_stretch_width_six.py": ["--budget-seconds", "1"]}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo), *ARGS.get(demo.name, [])],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout
