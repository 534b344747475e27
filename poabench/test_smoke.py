"""Smoke tests of the benchmark itself.

    python3 -m pytest -q poabench

Tiny runs of every workload must print every declared metric with its
unit, a planted wrong answer must count as a failed job, and a directory
without the program's sources must exit non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run._load_program()
import workloads  # noqa: E402


def _bench(cwd, *args):
    cmd = [sys.executable, "poabench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace, section):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _planted(job, perturb):
    original = job.run
    job.run = lambda: perturb(original())
    return job


def test_perturbed_gamma_star_counts_as_failed():
    jobs, _ = workloads.prepare("class-ladder", 3, tiny=True)
    float_job = jobs[0]

    def perturb(outcome):
        res, game = outcome
        res.gamma_star *= 1.001
        return res, game

    runner = run.Runner()
    runner.run_pass([_planted(float_job, perturb)])
    assert runner.attempted == 1 and len(runner.failures) == 1
    reasons = " ".join(runner.failures[0]["reasons"])
    assert "anchor" in reasons and "witness value" in reasons


def test_perturbed_lp_optimum_counts_as_failed():
    jobs, _ = workloads.prepare("witness-frontier", 3, tiny=True)

    def perturb(outcome):
        rep, sol, game = outcome
        sol.value += 0.01
        return rep, sol, game

    runner = run.Runner()
    runner.run_pass([_planted(jobs[0], perturb)] + jobs[1:])
    assert len(runner.failures) == 1
    assert "LP optimum" in runner.failures[0]["reasons"][0]


def test_raised_error_counts_as_failed():
    jobs, _ = workloads.prepare("game-audit", 3, tiny=True)
    job = jobs[0]
    job.cls.cert.dual_solution = {}  # certificate lost: extension must fail
    runner = run.Runner()
    runner.run_pass([job])
    assert len(runner.failures) == 1


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(1, 201)]
    pct, value = run.tail(lat)
    assert pct == 95.0 and value == 190.0
    assert sum(x > value for x in lat) == 10


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "poabench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
