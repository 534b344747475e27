"""poacert benchmark: one workload, closed loop, one process, one thread.

    python3 poabench/run.py --workload class-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; poacert is imported from its
``src/`` directory and nowhere else.  Jobs run one at a time, each starting
when the previous one has finished.  The job list is generated from the
seed; the whole list runs in rounds, and a job's latency is its fastest run
(see SUBROUNDS and workloads.Job.runs).  How many times each job runs is
fixed by its kind and size and scales with ``--seconds``, so a run is a
fixed amount of work that lasts about ``--seconds`` on the reference
machine.  Every run of every job is checked; a failure is reported with
its job and reason.  Times are scaled to a reference host speed measured
by a calibration kernel around each timed interval (see CAL_REF_S); the
report line before the result gives the same figures in raw wall-clock
time.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each job once
untraced and then once traced, prints the per-layer metrics of the traced
runs with the tracing overhead against the untraced ones, and writes the
spans to poabench/out/.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# single-threaded numpy: no BLAS worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

TAIL_BEYOND = 10  # samples a tail percentile must have above it
# a run of workloads.NOMINAL_SECONDS makes SUBROUNDS rounds over the job
# list; every job runs in round 0 and then in evenly spaced later rounds,
# job.runs in all, so its fastest time rests on samples spread over the
# whole run.  Set-up is repeated SETUP_REPEATS times, spread the same way,
# and setup_s is the median.
SUBROUNDS = 9
SETUP_REPEATS = 5
# The host's speed swings by up to 1.7x over seconds to minutes while other
# tenants load the CPU, longer than a run, so every timed interval sits
# between two runs of a fixed calibration kernel and is scaled by CAL_REF_S
# over their mean: times are reported at the speed of a host on which the
# kernel takes CAL_REF_S (about its time on the 2-core reference machine).
CAL_REF_S = 4e-4
_CAL_MATRIX = None
# times, in a fresh interpreter, the import of poacert and the benchmark
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {bench!r}]; t = time.perf_counter(); "
    "import poacert, workloads; print(time.perf_counter() - t)"
)


def _load_program():
    """Import poacert from this checkout's src/ (exit 2 when absent)."""
    if not (SRC / "poacert" / "__init__.py").is_file():
        print(f"error: no poacert sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import poacert

    if Path(poacert.__file__).resolve().parent != (SRC / "poacert").resolve():
        print(f"error: imported poacert from {poacert.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads  # noqa: F401  (imports poacert's modules)

    return poacert


def machine_record(poacert_version: str) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "poacert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "poacert": poacert_version,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def _commit() -> str:
    """HEAD of the checkout read from .git; 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the fastest of 3 runs, so
    that an interrupt in one run does not count.  Like poacert's own work
    it mixes small numpy products with dict updates and Fraction sums, so
    the neighbours that slow one slow the other."""
    global _CAL_MATRIX
    import numpy

    if _CAL_MATRIX is None:
        _CAL_MATRIX = (numpy.arange(1, 3601, dtype=float).reshape(60, 60) % 7 + 1) / 10
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        v, total, counts = numpy.ones(60), Fraction(0), {}
        for k in range(50):
            v = _CAL_MATRIX @ v
            v /= v.max()
            counts[k % 17] = counts.get(k % 17, 0) + k
            total += Fraction(k, 7)
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(timed):
    """Call ``timed()`` -> (seconds, value) between two runs of the
    calibration kernel; return (seconds at the reference speed, raw
    seconds, value)."""
    c0 = calibrate()
    dt, value = timed()
    return dt * 2 * CAL_REF_S / (c0 + calibrate()), dt, value


class Runner:
    """Closed loop over jobs: time each, check each, keep failures."""

    def __init__(self):
        self.failures = []
        self.attempted = 0

    def execute(self, job, tracer=None) -> float:
        self.attempted += 1
        failure = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                reasons = job.check(job.run())
            else:
                job.span = tracer.span
                try:
                    with tracer.span("bench.job", job=job.label):
                        reasons = job.check(job.run())
                finally:
                    del job.span
        except Exception as exc:  # a failed job is a measured outcome
            reasons = [f"{type(exc).__name__}: {exc}"]
            failure = traceback.format_exc()
        dt = time.perf_counter() - t0
        if reasons:
            self.failures.append({"job": job.label, "reasons": reasons, "traceback": failure})
        return dt

    def run_pass(self, jobs, tracer=None) -> float:
        return sum(self.execute(job, tracer) for job in jobs)

    def timed(self, jobs, scale: float, between_rounds) -> list:
        """Each job's runs as (seconds at the reference speed, raw seconds)
        pairs; ``scale`` multiplies the rounds and each job's runs,
        ``between_rounds(r)`` follows round r.  Rounds after the first visit
        the jobs in a fresh fixed order, so a slow stretch of the host falls
        on different jobs in each round.  Consecutive runs share the
        calibration between them."""
        rounds = max(1, round(SUBROUNDS * scale))
        runs = [min(rounds, max(1, round(job.runs * scale))) for job in jobs]
        samples = [[] for _ in jobs]
        order = list(range(len(jobs)))
        for r in range(rounds):
            c0 = calibrate()
            for i in order:
                if r in spread(runs[i], rounds):
                    dt = self.execute(jobs[i])
                    c1 = calibrate()
                    samples[i].append((dt * 2 * CAL_REF_S / (c0 + c1), dt))
                    c0 = c1
            between_rounds(r)
            random.Random(r).shuffle(order)
        return samples


def spread(count: int, rounds: int) -> set:
    """`count` evenly spaced rounds out of `rounds`, round 0 first."""
    return {-(-k * rounds // count) for k in range(count)}


def set_up(workload: str, seed: int, tiny: bool, runner: Runner):
    """One set-up: (seconds, jobs).  The import is timed in a fresh
    interpreter; input generation and the checked warm-up jobs here."""
    import workloads

    code = IMPORT_PROBE.format(src=str(SRC), bench=str(BENCH))
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=120, check=True)
    t0 = time.perf_counter()
    jobs, warm = workloads.prepare(workload, seed, tiny)
    runner.run_pass(warm)
    return float(probe.stdout) + time.perf_counter() - t0, jobs


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    above it, i.e. the (TAIL_BEYOND + 1)-th largest latency."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return 0.0, max(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a minimal job list, for smoke tests")
    args = ap.parse_args(argv)

    poacert = _load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    runner = Runner()  # warm-up jobs are checked and counted too
    first_s, first_raw, jobs = scaled(lambda: set_up(args.workload, args.seed, args.tiny, runner))
    setup_times, setup_raw = [first_s], [first_raw]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(poacert.__version__),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        plain = traced = 0.0
        for job in jobs:
            plain += runner.execute(job)
            tracer.install()
            try:
                traced += runner.execute(job, tracer)
            finally:
                tracer.uninstall()
        layer = tracer.summary()
        layer["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        metrics = {
            m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in _declared("per_layer")
        }
        tracer.write(OUT / f"{stem}-spans.json")
        report["untraced_s"] = plain
        report["traced_s"] = traced
    else:
        scale = args.seconds / workloads.NOMINAL_SECONDS
        rounds = max(1, round(SUBROUNDS * scale))
        setup_after = {r - 1 for r in spread(min(SETUP_REPEATS, rounds), rounds) if r > 0}

        def between_rounds(r):
            if r in setup_after:
                t, dt, _ = scaled(lambda: set_up(args.workload, args.seed, args.tiny, runner))
                setup_times.append(t)
                setup_raw.append(dt)

        samples = runner.timed(jobs, scale, between_rounds)
        lat = [min(t for t, _ in runs) for runs in samples]
        raw = [min(dt for _, dt in runs) for runs in samples]
        pct, tail_s = tail(lat)
        values = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": len(lat) / sum(lat),
            "job_p50_ms": 1000.0 * statistics.median(lat),
            "job_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in _declared("end_to_end")}
        report["job_tail"] = {"percentile": pct, "samples": len(lat), "beyond": TAIL_BEYOND}
        report["rounds"] = rounds
        # the same figures in raw wall-clock seconds, not scaled
        report["wall"] = {
            "setup_s": statistics.median(setup_raw),
            "jobs_per_s": len(raw) / sum(raw),
            "job_p50_ms": 1000.0 * statistics.median(raw),
            "job_tail_ms": 1000.0 * tail(raw)[1],
        }
        report["job_runs_s"] = [[job.label, runs] for job, runs in zip(jobs, samples)]
        report["setup_repeats_s"] = setup_times
        report["setup_repeats_wall_s"] = setup_raw

    failed = len(runner.failures)
    report["failed_frac"] = failed / runner.attempted
    report["failures"] = runner.failures
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report["result"] = result
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    for f in runner.failures:
        print(f"FAILED {f['job']}: {'; '.join(f['reasons'])}", file=sys.stderr)
    print(json.dumps({k: v for k, v in report.items() if k != "result"}))
    print(json.dumps(result))
    return 0


def _declared(section: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[section]


if __name__ == "__main__":
    sys.exit(main())
