"""Every demo runs to completion from a source checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = run_demo([sys.executable, str(demo)])
    assert done.returncode == 0, done.stderr


def test_cli_tour_runs():
    done = run_demo(["bash", str(ROOT / "demos" / "cli_tour.sh")])
    assert done.returncode == 0, done.stderr


def test_simplex_kernel_demo_prints_the_dual():
    done = run_demo([sys.executable, str(ROOT / "demos" / "simplex_kernel.py")])
    assert ("dual program:   2 rows over 2 variables\n"
            "dual optimum:   12.0  (strong duality: equals the primal optimum)\n") in done.stdout
