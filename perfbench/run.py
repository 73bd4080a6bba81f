"""Benchmark of ncfgl: four workloads, three end-to-end metrics, a layer trace.

    python3 perfbench/run.py --workload {table,verify,certificate,cli,all}
                             --seed N --seconds S --trace {0,1}

With --trace 0 it reports the end-to-end metrics:
  setup_s       median over SETUP_SAMPLES fresh interpreters of: import ncfgl,
                build the inputs, run the first (cold) round;
  round_p50_s   median time of a warm round;
  peak_rss_mib  peak resident memory of the process that runs the rounds (for
                cli, the largest of its child processes).
The two times are scaled by the machine's speed at the time (calibrate.py).
With --trace 1 it reports the per-layer metrics of a separate traced run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``--workload all`` runs the four in turn and
prints a table of every metric with its unit.  One client runs rounds in a
closed loop: a round starts when the previous one has ended.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import CalibratedClock, scaled_median  # noqa: E402
from workloads import SRC, WORKLOADS, child_env  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
# A run ends, with or without a result, within this many seconds per workload.
RUN_LIMIT_S = 170


class BenchmarkError(Exception):
    pass


_running: list = []  # the child process group in flight, if any


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group has already exited
        pass


def _stop_children(signum, frame):
    for proc in _running:
        _kill_group(proc)
        proc.wait()
    sys.exit(128 + signum)


def _run_child(cmd, deadline):
    """Run a child in its own process group; kill the whole group at ``deadline``."""
    timeout = max(1.0, deadline - time.perf_counter())
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), start_new_session=True
    )
    _running.append(proc)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        raise BenchmarkError(f"{' '.join(cmd[1:4])} did not finish in {timeout:.0f} s") from None
    finally:
        _running.remove(proc)
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise BenchmarkError(f"{' '.join(cmd[1:4])} exited {proc.returncode}")
    return out


def setup_samples(workload: str, seed: int, deadline: float) -> dict:
    """Wall seconds of SETUP_SAMPLES fresh set-up interpreters, and calibrations."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup", workload, str(seed)]
    clock = CalibratedClock()
    for _ in range(SETUP_SAMPLES):
        _run_child(cmd, deadline)
        clock.cut()
    return {"wall_s": clock.walls, "calibration_s": clock.calibrations}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = None if trace else setup_samples(workload, seed, deadline)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "run",
        workload, str(seed), str(seconds), "1" if trace else "0", OUT_DIR,
    ]
    out = _run_child(cmd, deadline)
    result = json.loads(out.decode().strip().splitlines()[-1])
    for problem in result["problems"]:
        print(f"{workload}: CHECK FAILED: {problem}", file=sys.stderr)
    if result.get("missing_patch_points"):
        print(f"{workload}: not traced: {', '.join(result['missing_patch_points'])}", file=sys.stderr)
    if trace:
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
            for name, value in result["layers"].items()
        }
    else:
        metrics = {
            "setup_s": {"value": scaled_median(setup["wall_s"], setup["calibration_s"]), "unit": "s"},
            "round_p50_s": {"value": statistics.median(result["rounds_timed"]["scaled_s"]), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
        result["setup_samples"] = setup
    summary = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"summary": summary, "detail": result}, handle, indent=1)
    return summary


def print_table(name: str, summary: dict) -> None:
    print(f"{name}: correct={summary['correct']} attempted={summary['attempted']} failed={summary['failed']}")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ncfgl", "__init__.py")):
        print(f"no ncfgl sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop_children)
    signal.signal(signal.SIGINT, _stop_children)
    # Every measured interpreter then loads bytecode, also where the
    # environment forbids writing it (PYTHONDONTWRITEBYTECODE).
    for directory in (os.path.join(SRC, "ncfgl"), HERE):
        compileall.compile_dir(directory, quiet=1, maxlevels=0)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, summary in summaries.items():
            print_table(name, summary)
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, s in summaries.items()
                for metric, entry in s["metrics"].items()
            },
        }
    else:
        final = summaries[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
