"""Steadiness check: run each workload repeatedly, in separate sets of runs.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--trace 0]

Run n of every set uses seed n, so the sets differ only by when they ran.
Within a set the workloads take turns, so a slow spell of the machine falls
on all of them alike.  For every metric of every workload the report gives
each set's median and quartiles (Python's ``statistics.quantiles(values,
n=4)``), the spread (quartile distance over median) and, from the second set
on, the change of the median against the first set.

With --trace 0 the end-to-end metrics are held against the bounds in
BENCHMARK.json: every spread within its bound, every median within its bound
of the first set's, in either direction.  With --trace 1 every count metric
(one not ending in ``_s``) must be identical in the runs of the same workload
and seed.  In both modes every run must be correct and the share of failed
operations identical in every set.  The full record is written to
perfbench/out/.  Exit code 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def describe(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = list(WORKLOADS)

    runs: dict = {w: [[] for _ in range(args.sets)] for w in workloads}
    started = time.time()
    for s in range(args.sets):
        for r in range(args.runs):
            seed = 1 + r
            for w in workloads:
                result = one_run(w, seed, seconds, args.trace)
                result["seed"] = seed
                runs[w][s].append(result)
                figures = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: {figures}", file=sys.stderr, flush=True)

    report: dict = {"seconds": seconds, "runs": args.runs, "sets": args.sets, "trace": args.trace,
                    "wall_s": time.time() - started, "python": sys.version.split()[0],
                    "cpu_count": os.cpu_count(), "workloads": {}}
    ok = True
    for w in workloads:
        shares = [
            Fraction(sum(x["failed"] for x in runs[w][s]), sum(x["attempted"] for x in runs[w][s]))
            for s in range(args.sets)
        ]
        correct = all(x["correct"] for s in range(args.sets) for x in runs[w][s])
        entry = {"correct": correct, "failed_share_by_set": [str(x) for x in shares], "metrics": {}}
        print(f"\n{w}: correct={correct} failed share per set: {', '.join(str(x) for x in shares)}")
        if len(set(shares)) != 1 or not correct:
            ok = False
        for metric in runs[w][0][0]["metrics"]:
            unit = runs[w][0][0]["metrics"][metric]["unit"]
            sets = [describe([x["metrics"][metric]["value"] for x in runs[w][s]]) for s in range(args.sets)]
            bound = bounds.get(metric)
            line = [f"  {metric:<30} {unit:<6}"]
            for n, d in enumerate(sets):
                line.append(f"set{n + 1} {d['median']:.6g} [{d['q1']:.6g}, {d['q3']:.6g}] spread {d['spread']:.3f}")
                if n:
                    d["change"] = d["median"] / sets[0]["median"] - 1 if sets[0]["median"] else 0.0
                    line.append(f"change {d['change']:+.3f}")
                    if bound is not None and abs(d["change"]) > bound:
                        ok = False
                if bound is not None and d["spread"] > bound:
                    ok = False
            if bound is not None:
                line.append(f"bound {bound}")
            print("  ".join(line))
            if args.trace and not metric.endswith("_s"):
                differing = sorted({
                    x["seed"] for s in range(1, args.sets) for x, y in zip(runs[w][s], runs[w][0])
                    if x["metrics"][metric]["value"] != y["metrics"][metric]["value"]
                })
                if differing:
                    ok = False
                    print(f"    counts differ between sets for seeds {differing}")
            entry["metrics"][metric] = {"unit": unit, "bound": bound, "sets": sets}
        report["workloads"][w] = entry
    report["within_bounds"] = ok
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"steady-{time.strftime('%Y%m%d-%H%M%S')}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"report": report, "runs": runs}, handle, indent=1)
    print(f"\nwithin bounds: {ok}; record: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
