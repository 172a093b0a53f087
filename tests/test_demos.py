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


def test_width_six_demo_refuses_a_negative_budget():
    # the CLI's budget rule: 0 means no budget, a negative one is a usage
    # error
    demo = DEMOS[0].with_name("06_stretch_width_six.py")
    proc = subprocess.run([sys.executable, str(demo), "--budget-seconds", "-1"],
                          capture_output=True, text=True, env=package_env(), timeout=60)
    assert proc.returncode == 2
    assert "--budget-seconds must be 0 or more" in proc.stderr
