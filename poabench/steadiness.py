"""Steadiness report: repeated untraced runs of one commit.

    python3 poabench/steadiness.py --seeds 10 --sets 2

For every workload in BENCHMARK.json, runs the benchmark command once per
seed (one run at a time), then gives each end-to-end metric's median,
quartiles (statistics.quantiles, n=4) and spread (q3 - q1) / median
against the metric's bound.  With --sets 2 a second set on fresh seeds
follows, and the report compares the two medians against the bound.
Writes the raw runs to poabench/out/steadiness.json and the table, with
the machine record of the first run, to poabench/STEADINESS.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["machine"]


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_share(metric, first, second):
    """How much worse the second median is, as a share of the first
    (negative when it is better)."""
    d = (second - first) if metric["better"] == "lower" else (first - second)
    return d / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--workload", action="append", help="default: every workload")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]

    doc = {"run_seconds": spec["run_seconds"], "workloads": {}}
    machine = None
    lines = ["| workload | metric | bound | set | median | q1 | q3 | spread | spread/bound | verdict |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    ok = True
    for w in names:
        sets = []
        for k in range(args.sets):
            seeds = range(args.first_seed + k * args.seeds, args.first_seed + (k + 1) * args.seeds)
            runs = []
            for s in seeds:
                res, machine = run_once(spec, w, s)
                runs.append({"seed": s, **res})
                print(f"{w} seed {s}: correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        entry = {"sets": sets, "metrics": {}}
        for m in spec["end_to_end"]:
            per_set = [stats([r["metrics"][m["name"]]["value"] for r in runs]) for runs in sets]
            verdicts = []
            for k, st in enumerate(per_set):
                spread_ok = st["spread"] <= m["bound"]
                verdicts.append(spread_ok)
                lines.append(
                    f"| {w} | {m['name']} ({m['unit']}) | {m['bound']} | {k + 1} | {st['median']:.6g} | "
                    f"{st['q1']:.6g} | {st['q3']:.6g} | {st['spread']:.4f} | "
                    f"{st['spread'] / m['bound']:.2f} | {'ok' if spread_ok else 'TOO WIDE'} |"
                )
            row = {"bound": m["bound"], "unit": m["unit"], "sets": per_set}
            if len(per_set) == 2:
                share = worse_share(m, per_set[0]["median"], per_set[1]["median"])
                row["second_worse_by"] = share
                drift_ok = abs(share) <= m["bound"]
                verdicts.append(drift_ok)
                lines.append(
                    f"| {w} | {m['name']} | {m['bound']} | 2 vs 1 | second median worse by "
                    f"{share:+.4f} | | | | | {'ok' if drift_ok else 'DRIFT'} |"
                )
            ok = ok and all(verdicts)
            entry["metrics"][m["name"]] = row
        attempted = sum(r["attempted"] for runs in sets for r in runs)
        failed = sum(r["failed"] for runs in sets for r in runs)
        entry["failed_frac"] = failed / attempted
        lines.append(f"| {w} | failed_frac | - | all | {failed}/{attempted} | | | | | "
                     f"{'ok' if failed == 0 else 'FAILURES'} |")
        ok = ok and failed == 0
        doc["workloads"][w] = entry
    doc["machine"] = machine
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(doc, indent=1))
    seeds = f"{args.seeds} seeds per set from {args.first_seed}, {args.sets} set(s)"
    head = [
        "# Steadiness of the poacert benchmark",
        "",
        f"`python3 poabench/steadiness.py --seeds {args.seeds} --first-seed {args.first_seed} "
        f"--sets {args.sets}` on {time.strftime('%Y-%m-%d', time.gmtime())}: {', '.join(names)}; "
        f"{seeds}; untraced runs of {spec['run_seconds']} s, one at a time.",
        "spread = (q3 - q1) / median over the runs of one set (statistics.quantiles, n=4); "
        "the verdict compares it, and the shift of the second set's median from the first "
        "in either direction, with the metric's bound.",
        "",
        f"Machine: {json.dumps(machine)}",
        "",
    ]
    (BENCH / "STEADINESS.md").write_text("\n".join(head + lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
