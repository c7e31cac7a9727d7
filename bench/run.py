"""rrsched benchmark: one workload, one seed, checked results, one JSON line.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

The op list built from the seed runs as a closed loop in this process (the
cli workload starts one ``python -m rrsched`` at a time), pass after pass,
until another pass would overrun ``--seconds``; at least MIN_PASSES passes
run.  Every result is checked; an op that raises, exits with the wrong code
or gives a wrong result is counted as failed and the run goes on.

Op latencies are in reference milliseconds.  A fixed pure-Python loop,
:func:`calibration_loop`, is timed right before and right after every op,
and the op's wall time is scaled by REFERENCE_LOOP_S over the loop's median
time around the nearest ops.  On a shared machine whose speed swings by a
fifth within seconds and drifts over minutes, this cancels the machine's
speed and keeps the program's: a slower program takes longer against the
same loop.  An op's latency is the median of its repetitions in the run.

``--trace 0`` prints the end-to-end metrics: setup_s (median over fresh
interpreters that import rrsched and build the inputs), ops_per_s, op_p50_ms,
op_tail_ms and peak_rss_mb.  ``--trace 1`` splits the time between an
untraced and a traced loop and prints the per-layer metrics, including the
ratio of traced to untraced ops_per_s; ``--rows FILE`` also writes the
per-layer rows there.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

MIN_PASSES = 3
SETUP_REPEATS = 9
REFERENCE_LOOP_S = 0.001
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_REPORTED_FAILURES = 10


def calibration_loop() -> int:
    """Fixed allocation, dict and arithmetic work: the yardstick for latencies."""
    pairs = [(i, i * 7 % 1009) for i in range(4000)]
    index: dict[int, int] = {}
    for a, b in pairs:
        index[b] = index.get(b, 0) + a
    return sum(index.values())


def _loop_s() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


@dataclass
class Phase:
    """What one closed loop over the op list did.

    ``records`` holds one (op index, wall s, loop s before, loop s after)
    entry per completed op, in the order they ran.
    """

    ops: int
    records: list[tuple[int, float, float, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    passes: int = 0

    def loop_s(self) -> list[float]:
        return [t for _, _, before, after in self.records for t in (before, after)]

    def op_latencies(self) -> list[float]:
        """Each completed op's median repetition in reference seconds.

        A repetition's wall time is scaled by REFERENCE_LOOP_S over the median
        calibration-loop time around the nine nearest ops: near enough to
        follow the machine's speed, wide enough to smooth the loop's own jitter.
        """
        loops = [(before + after) / 2 for _, _, before, after in self.records]
        per_op: list[list[float]] = [[] for _ in range(self.ops)]
        for j, (index, wall, _, _) in enumerate(self.records):
            speed = statistics.median(loops[max(0, j - 4):j + 5])
            per_op[index].append(wall * REFERENCE_LOOP_S / speed)
        return [statistics.median(times) for times in per_op if times]


def run_phase(ops: list[workloads.Op], seconds: float, tracer: spans.Tracer | None = None,
              min_passes: int = MIN_PASSES, between_passes=None) -> Phase:
    """Run whole passes over ``ops`` until the next would end after ``seconds``.

    Each pass runs the ops in a new fixed order, so no op always follows the
    same neighbour.  ``between_passes()``, if given, runs before each pass.
    Latencies cover the program call only, not the check.  A failure never
    stops the loop.
    """
    span = tracer.span if tracer else spans.no_span
    phase = Phase(len(ops))
    start = time.perf_counter()
    last_pass = 0.0
    while phase.passes < min_passes or time.perf_counter() - start + last_pass <= seconds:
        if between_passes:
            between_passes()
        pass_start = time.perf_counter()
        order = list(range(len(ops)))
        random.Random(phase.passes).shuffle(order)
        for index in order:
            op = ops[index]
            if tracer:
                tracer.op = (phase.passes, index)
            phase.attempted += 1
            before = _loop_s()
            t0 = time.perf_counter()
            try:
                result = op.run(span)
            except Exception as exc:  # noqa: BLE001 - a failing op is data, not a crash
                phase.failures.append(f"{op.name}: raised {exc!r}")
                continue
            wall = time.perf_counter() - t0
            phase.records.append((index, wall, before, _loop_s()))
            try:
                problem = op.check(result, op.expected)
            except Exception as exc:  # noqa: BLE001
                problem = f"check raised {exc!r}"
            if problem:
                phase.failures.append(f"{op.name}: {problem}")
        phase.passes += 1
        last_pass = time.perf_counter() - pass_start
    return phase


def tail_percentile(ops: int) -> float:
    """Highest ladder percentile with at least 10 of ``ops`` beyond it."""
    for p in TAIL_LADDER:
        if ops * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _fresh_interpreter_s(args: list[str], env: dict | None = None) -> float:
    """Wall time from starting ``python3 ARGS`` until its first line of output."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, env=env,
                          cwd=workloads.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"python3 {' '.join(args)} exited {proc.returncode}")
    return elapsed


class SetupProbe:
    """Times set-up from fresh interpreters: start, ``import rrsched`` and
    building the seeded inputs, in reference seconds like the op latencies.

    The first start only fills the bytecode cache.  Calling the probe
    between passes spreads the starts over the run.
    """

    def __init__(self, workload: str, seed: int):
        self.args = [str(Path(workloads.__file__)), workload, str(seed)]
        self.times: list[float] = []
        _fresh_interpreter_s(self.args)

    def __call__(self) -> None:
        loops = [_loop_s() for _ in range(3)]
        wall = _fresh_interpreter_s(self.args)
        loops += [_loop_s() for _ in range(3)]
        self.times.append(wall * REFERENCE_LOOP_S / statistics.median(loops))

    def median_s(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self()
        return statistics.median(self.times)


def measure_import_probes() -> dict[str, float]:
    """The bare interpreter floor and a fresh ``import rrsched`` above it, in ms."""
    env = workloads.cli_env()
    bare = ["-c", "print('ready')"]
    imported = ["-c", "import rrsched; print('ready')"]
    _fresh_interpreter_s(imported, env)
    floor, full = [], []
    for _ in range(SETUP_REPEATS):
        floor.append(_fresh_interpreter_s(bare, env))
        full.append(_fresh_interpreter_s(imported, env))
    interpreter = statistics.median(floor)
    return {"interpreter_ms": 1000 * interpreter,
            "import_ms": 1000 * (statistics.median(full) - interpreter)}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def ops_per_s(latencies: list[float]) -> float:
    """Ops per second of one pass at each op's median latency."""
    return len(latencies) / sum(latencies) if latencies else 0.0


def end_to_end(phase: Phase, setup: SetupProbe) -> tuple[dict, list[str]]:
    latencies = phase.op_latencies() or [0.0]
    tail_p = tail_percentile(phase.ops)
    metrics = {
        "setup_s": (setup.median_s(), "s"),
        "ops_per_s": (ops_per_s(latencies), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * percentile(latencies, tail_p), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    ops = len(latencies)
    notes = [
        f"op latency: median of each op's {phase.passes} repetitions (program call only), "
        f"in reference ms; the calibration loop took a median "
        f"{1000 * statistics.median(phase.loop_s() or [0.0]):.3f} ms (reference 1 ms)",
        f"setup_s: median of {len(setup.times)} fresh interpreters (import rrsched, build "
        f"inputs), in reference s",
        f"ops_per_s: {ops} ops / {sum(latencies):.3f} s, one pass at op latency",
        f"op_p50_ms: median over {ops} ops",
        f"op_tail_ms: p{tail_p:g} over {ops} ops",
        "peak_rss_mb: ru_maxrss of the benchmark process",
    ]
    return metrics, notes


def traced(ops: list[workloads.Op], seconds: float, workload: str,
           rows_path: str | None) -> tuple[dict, list[str], Phase]:
    untraced = run_phase(ops, seconds / 2, min_passes=1)
    tracer = spans.Tracer()
    traced_phase = run_phase(ops, seconds / 2, tracer, min_passes=1)
    metrics = spans.layer_metrics(tracer.spans, traced_phase.passes, measure_import_probes())
    rate = ops_per_s(untraced.op_latencies())
    traced_rate = ops_per_s(traced_phase.op_latencies())
    metrics["trace.ops_per_s_ratio"] = (traced_rate / rate if rate else 0.0, "ratio")
    notes = [f"tracing overhead: traced {traced_rate:.3f} ops/s vs untraced {rate:.3f} ops/s",
             f"{len(tracer.spans)} spans over {traced_phase.passes} traced passes"]
    notes += catalogue_drift(tracer.spans)
    if rows_path:
        rows = spans.layer_rows(tracer.spans, workload, machine())
        Path(rows_path).write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
        notes.append(f"{len(rows)} layer rows written to {rows_path}")
    both = Phase(len(ops), untraced.records, untraced.failures + traced_phase.failures,
                 untraced.attempted + traced_phase.attempted,
                 untraced.passes + traced_phase.passes)
    return metrics, notes, both


def catalogue_drift(records: list[dict]) -> list[str]:
    """Compare traced node and solution counts with the catalogue."""
    cases = {c["id"]: c for c in workloads.load_catalogue()["cases"]}
    checked, differ = set(), set()
    for r in records:
        if r["layer"] not in ("search", "claims"):
            continue
        case = cases[r["case"]]
        checked.add(r["case"])
        got = (r["nodes"], r.get("solutions"))
        want = (case["expect"]["nodes"],
                workloads.expected_solutions(case) if r["layer"] == "search" else None)
        if got != want:
            differ.add(f"{r['case']}: (nodes, solutions) {got}, catalogue {want}")
    if checked and not differ:
        return [f"node and solution counts equal the catalogue for all {len(checked)} cases"]
    return sorted(differ)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", metavar="FILE",
                        help="with --trace 1, write the per-layer rows to FILE as JSON")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=workloads.ROOT, prefix=".bench-") as tmp:
        ops = workloads.build_ops(args.workload, args.seed, Path(tmp))
        if args.trace:
            metrics, notes, phase = traced(ops, args.seconds, args.workload, args.rows)
        else:
            setup = SetupProbe(args.workload, args.seed)
            phase = run_phase(ops, args.seconds, between_passes=setup)
            metrics, notes = end_to_end(phase, setup)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{phase.passes} passes, {phase.attempted} attempted, {len(phase.failures)} failed "
          f"(error_rate {len(phase.failures) / max(phase.attempted, 1):.4f})")
    for failure in phase.failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": not phase.failures,
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
