"""One fresh interpreter of the benchmark; started by run.py.

    worker.py setup WORKLOAD SEED
        import ncfgl, build the inputs, run one (cold) round, exit.
    worker.py run WORKLOAD SEED SECONDS TRACE OUT_DIR
        run a cold round whose output digest is the reference, then whole
        warm rounds until SECONDS have passed, then the output checks on the
        last round.  Prints one JSON line with the round and calibration
        times (see calibrate.py), the peak resident memory, the operation
        counts and, with TRACE 1, the per-layer figures.

Only a digest of the cold round is kept, so that no earlier round's objects
stay alive (and slow the garbage collector) during later rounds.  With TRACE
1 the first half of the time runs untraced rounds and the second half traced
ones; the difference of their medians is the tracing overhead.  End-to-end
figures come only from TRACE 0.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

from calibrate import CalibratedClock
from workloads import HERE, WORKLOADS

LAYER_METRICS = (
    "series.left_expand_s", "series.left_expand_calls",
    "series.mul_s", "series.mul_calls",
    "series.add_s", "series.add_calls",
    "series.specialize_s", "series.revert_s", "series.left_substitute_calls",
    "freealg.mul_s", "freealg.mul_calls", "freealg.mul_terms_out",
    "freealg.add_s", "freealg.add_calls", "freealg.render_s",
    "linalg.rref_fp_s", "linalg.rref_q_s", "linalg.rref_calls", "linalg.rref_cells",
    "steenrod.nsym_action_s", "steenrod.nsym_action_calls", "steenrod.certificate_s",
    "commalg.mul_s", "commalg.mul_calls",
    "fgl.fgl_table_s", "fgl.inverse_table_s", "fgl.verify_axioms_s",
    "cli.interpreter_s", "cli.import_s", "cli.compute_s", "cli.render_s",
)
MIN_TRACED_ROUNDS = 2


class Untraced:
    round_kwargs: dict = {}
    missing: list = []
    groups: list = []

    def before(self):
        pass

    def after(self, workload):
        return None

    def close(self):
        pass


class InProcessTrace(Untraced):
    """Patches ncfgl in this process; per-round figures are snapshot differences."""

    def __init__(self):
        import tracer as tracing

        self.tracer = tracing.Tracer().install()
        self.missing = self.tracer.missing
        self.groups = [("rounds", self.tracer.spans)]

    def before(self):
        self._start = self.tracer.snapshot()

    def after(self, workload):
        now = self.tracer.snapshot()
        return {key: value - self._start.get(key, 0) for key, value in now.items()}

    def close(self):
        self.tracer.remove()


class CliTrace(Untraced):
    """Runs each command through cli_traced.py and sums the records of a round."""

    def __init__(self, out_dir):
        self.record_dir = os.path.join(out_dir, "cli-records")
        os.makedirs(self.record_dir, exist_ok=True)
        self.round_kwargs = {"record_dir": self.record_dir}
        self.missing, self.groups = [], []

    def after(self, workload):
        totals = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
        for n, wall in enumerate(workload.last_walls):
            with open(os.path.join(self.record_dir, f"cmd{n}.json"), encoding="utf-8") as handle:
                record = json.load(handle)
            totals["cli.interpreter_s"] += wall - record["inside_s"]
            totals["cli.import_s"] += record["import_s"]
            for key, value in record["layers"].items():
                totals[key] = totals.get(key, 0) + value
            self.missing += [m for m in record["missing"] if m not in self.missing]
            self.groups.append((f"round{len(self.groups) // len(workload.last_walls) + 1}-cmd{n}",
                                [tuple(span) for span in record["spans"]]))
        return totals

    def close(self):
        shutil.rmtree(self.record_dir, ignore_errors=True)


def timed_rounds(workload, inputs, reference, seconds, minimum, probe):
    """Whole rounds until ``seconds`` pass (at least ``minimum``).

    The workload cuts each round into pieces at its operation boundaries
    (calibrate.CalibratedClock).  Returns the rounds' wall and scaled times,
    the failed operations, the number of rounds whose output digest differs
    from ``reference``, the per-round layer figures and the last round's
    outputs.
    """
    walls, scaled, layers, failed, mismatched = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    clock = CalibratedClock()
    while True:
        gc.collect()
        probe.before()
        first = len(clock.walls)
        clock.restart()
        outputs, round_failed = workload.run_round(inputs, cut=clock.cut, **probe.round_kwargs)
        clock.cut()
        walls.append(sum(clock.walls[first:]))
        scaled.append(sum(clock.scaled[first:]))
        layers.append(probe.after(workload))
        failed += round_failed
        mismatched += workload.fingerprint(outputs) != reference
        if len(walls) >= minimum and time.perf_counter() >= deadline:
            rounds = {"wall_s": walls, "scaled_s": scaled, "piece_wall_s": clock.walls,
                      "calibration_s": clock.calibrations}
            return rounds, failed, mismatched, layers, outputs
        del outputs


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(per_round: list, problems: list) -> dict:
    """Median self time per round; counts, which must repeat, from one round."""
    metrics = {}
    for name in LAYER_METRICS:
        values = [r.get(name, 0) for r in per_round]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = values[0]
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    import checks

    workload = WORKLOADS[name]
    inputs = workload.prepare(seed)
    gc.collect()
    first, failed = workload.run_round(inputs)
    reference = workload.fingerprint(first)
    del first
    result: dict = {"workload": name, "seed": seed}
    problems: list = []
    if not trace:
        rounds, more_failed, mismatched, _, last = timed_rounds(
            workload, inputs, reference, seconds, 1, Untraced()
        )
        result["peak_rss_mib"] = peak_rss_mib(workload)
        result["rounds_timed"] = rounds
        timed = len(rounds["wall_s"])
    else:
        untraced, more_failed, mismatched, _, last = timed_rounds(
            workload, inputs, reference, seconds / 2, 1, Untraced()
        )
        del last
        probe = CliTrace(out_dir) if name == "cli" else InProcessTrace()
        try:
            traced, traced_failed, traced_mismatched, layers, last = timed_rounds(
                workload, inputs, reference, seconds / 2, MIN_TRACED_ROUNDS, probe
            )
        finally:
            probe.close()
        timed = len(untraced["wall_s"]) + len(traced["wall_s"])
        more_failed += traced_failed
        mismatched += traced_mismatched
        result["untraced_rounds"] = untraced
        result["traced_rounds"] = traced
        result["missing_patch_points"] = probe.missing
        result["layers"] = layer_metrics(layers, problems)
        overhead = statistics.median(traced["scaled_s"]) - statistics.median(untraced["scaled_s"])
        result["layers"]["trace.overhead_s"] = overhead
        spans_path = os.path.join(out_dir, f"{name}-seed{seed}-spans.jsonl.gz")
        import tracer as tracing

        tracing.write_spans(spans_path, {"workload": name, "seed": seed}, probe.groups)
        result["spans_file"] = os.path.relpath(spans_path, os.path.dirname(HERE))
    begin = time.perf_counter()
    problems += checks.CHECKS[name](last, inputs)
    result["check_s"] = time.perf_counter() - begin
    if mismatched:
        problems.append(f"{mismatched} rounds produced output different from the first round")
    rounds_run = 1 + timed
    result.update(
        rounds=rounds_run,
        attempted=rounds_run * workload.ops_per_round(inputs),
        failed=failed + more_failed,
        problems=problems,
    )
    return result


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        workload = WORKLOADS[name]
        if workload.imports_ncfgl:
            import ncfgl  # noqa: F401
        workload.run_round(workload.prepare(seed))
        return 0
    seconds, trace, out_dir = float(argv[3]), argv[4] == "1", argv[5]
    result = run(name, seed, seconds, trace, out_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
