"""Every demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hornenum

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

#: Extra arguments per demo; the width-6 demo stops at its budget.
ARGS = {"06_stretch_width_six.py": ["--budget-seconds", "1"]}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    package_root = str(Path(hornenum.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo), *ARGS.get(demo.name, [])],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout
