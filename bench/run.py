"""cyclact benchmark harness (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: cyclact is imported from `src/` of the
checkout this file sits in, never from an installed copy. The workloads are in
`bench/workloads.py`. Each is a closed loop with one client and no think time,
in one process; every operation runs under a deadline and its output is
checked after its timer stops.

With `--trace 0` the harness sets up the workload several times (a fresh
import plus input generation, timed in pieces at reference machine speed;
`setup_s` is the median), then runs the
operations in order, cycling through them, for `--seconds` seconds. An input's
latency is the median over its runs; `latency_p50_ms` and `latency_tail_ms`
(the highest percentile with ten inputs beyond it) are taken over inputs.
`ops_per_s` is verified runs per second spent inside operations. The last
stdout line is the result JSON; the line before it is a report with the
failure rate, the tail percentile and its sample count, the slowest inputs in
replayable form, any failures, and the machine.

With `--trace 1` the harness makes one untraced and one traced pass over all
of the workload's inputs, the traced one including a traced set-up, with every
layer wrapped from outside (`bench/tracer.py`). It reports per-layer totals and
`trace.overhead_frac`. The work is fixed, so per-layer counts repeat exactly
for a seed.

Exit codes: 0 on a finished run (its last line says whether outputs were
correct), 2 when there is no cyclact source tree to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 30.0  # per operation; far above the slowest spec in any workload
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S of
# it has run, so a short set-up gets more repeats to take the median over.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
# Timings are scaled to a machine on which the calibration loop of
# CAL_STEPS steps takes CAL_REF_S; on the 2-core Xeon this was written on it
# takes 0.8-1.1 ms when the machine is quiet. The loop runs between
# operations, and between the inputs made in set-up, so a neighbour's load
# that slows the machine for a few seconds slows both and cancels out.
CAL_STEPS = 10_000
CAL_REF_S = 0.001
CAL_EVERY_S = 0.05
SLOWEST = 5
WARM_UP_OPS = 50  # run before the untraced pass of --trace 1, to fill caches
LISTED_FAILURES = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "out_bits_p50": "bits",
    "peak_rss_mb": "MB",
}


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so library code cannot swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def import_cyclact():
    """Import a fresh copy of cyclact and every layer from the checkout's src/."""
    for name in [n for n in sys.modules if n == "cyclact" or n.startswith("cyclact.")]:
        del sys.modules[name]
    cy = importlib.import_module("cyclact")
    for sub in LAYERS:
        importlib.import_module(f"cyclact.{sub}")
    if Path(cy.__file__).resolve().parent != SRC / "cyclact":
        raise ImportError(f"cyclact was imported from {cy.__file__}, not from {SRC}")
    return cy


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_STEPS):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


class SpeedLog:
    """The calibration loop, run every CAL_EVERY_S between pieces of timed work.

    `mark()` is called after each piece and returns its segment; once the log
    is closed, `slowdown(segment)` is the median of the two calibrations
    before that piece and the one after it, over CAL_REF_S.
    """

    def __init__(self):
        self.cals = [calibrate()]
        self.last = time.perf_counter()

    def mark(self) -> int:
        segment = len(self.cals)
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.cals.append(calibrate())
            self.last = time.perf_counter()
        return segment

    def close(self) -> None:
        self.cals.append(calibrate())

    def slowdown(self, segment: int) -> float:
        return statistics.median(self.cals[max(segment - 2, 0):segment + 1]) / CAL_REF_S


def setup(workload, seed: int, repeats: int, min_seconds: float = 0.0):
    """Import and generate inputs `repeats` times, and more until `min_seconds`
    of set-up has run; keep the last copy.

    Returns (cyclact, ops, times at reference speed, wall-clock times). Each
    input made is a piece of timed work in a SpeedLog.
    """
    times, wall = [], []
    while len(times) < repeats or sum(wall) < min_seconds:
        cy = ops = None  # the last copy is not kept alive while making the next
        gc.collect()
        log = SpeedLog()
        pieces = []  # (seconds, segment)
        t0 = time.perf_counter()

        def tick():
            nonlocal t0
            pieces.append((time.perf_counter() - t0, log.mark()))
            t0 = time.perf_counter()  # a calibration in mark() is not set-up

        cy = import_cyclact()
        tick()
        ops = workload.make(cy, seed, tick)
        tick()
        log.close()
        times.append(sum(s / log.slowdown(seg) for s, seg in pieces))
        wall.append(sum(s for s, _ in pieces))
    return cy, ops, times, wall


@dataclass
class Record:
    index: int  # position in the workload's operation list
    elapsed: float  # seconds inside the operation, failed or not
    bits: Optional[int]  # output size; None when the operation failed
    failure: Optional[str]  # None, "timeout", "error: ..." or "wrong: ..."
    slowdown: float = 1.0  # calibration loop time around this op / CAL_REF_S

    @property
    def adjusted(self) -> float:
        """Seconds the operation would take at the reference machine speed."""
        return self.elapsed / self.slowdown


def run_one(op, index: int, deadline: float, tracer=None) -> Record:
    """One operation under the deadline, then its check with tracing paused."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            t0 = time.perf_counter()  # after the syscall, which is not the op's cost
            result = op.call()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Record(index, elapsed, None, "timeout")
    except Exception as exc:  # noqa: BLE001 - an operation's failure is a result
        return Record(index, elapsed, None, f"error: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.reset_stack()
            tracer.active = False
    try:
        op.check(result)
        bits = op.out_bits(result)
    except Exception as exc:  # noqa: BLE001 - WrongAnswer or a malformed output
        return Record(index, elapsed, None, f"wrong: {type(exc).__name__}: {exc}")
    return Record(index, elapsed, bits, None)


def run_ops(ops, *, seconds: Optional[float] = None, count: Optional[int] = None,
            deadline: float = DEADLINE_S, tracer=None) -> list:
    """Closed loop over ops in order, cycling, for `seconds` or `count` ops.

    Each operation is a piece of timed work in a SpeedLog, which gives its
    record's slowdown.
    """
    signal.signal(signal.SIGALRM, _alarm)
    gc.collect()
    records, segments, log = [], [], SpeedLog()
    stop = time.perf_counter() + (seconds or 0.0)
    i = 0
    while (i < count) if count is not None else (time.perf_counter() < stop):
        records.append(run_one(ops[i % len(ops)], i % len(ops), deadline, tracer))
        segments.append(log.mark())
        i += 1
    log.close()
    for r, seg in zip(records, segments):
        r.slowdown = log.slowdown(seg)
    return records


def tail(values: list) -> tuple:
    """(value, percentile, n): the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def per_op(records: list, seconds=lambda r: r.adjusted) -> dict:
    """{op index: (median seconds, output bits)}; a failed op ranks above all."""
    runs = {}
    for r in records:
        runs.setdefault(r.index, []).append(r)
    out = {}
    for index, rs in runs.items():
        if any(r.failure for r in rs):
            out[index] = (math.inf, None)
        else:
            out[index] = (statistics.median(seconds(r) for r in rs), rs[0].bits)
    return out


def latency(records: list, deadline: float, seconds=lambda r: r.adjusted) -> dict:
    """Throughput, median and tail latency over distinct inputs."""
    lat = [v[0] for v in per_op(records, seconds).values()]
    tail_value, tail_pct, n = tail(lat)
    ok = sum(1 for r in records if not r.failure)
    return {
        "ops_per_s": ok / sum(seconds(r) for r in records),
        "latency_p50_ms": 1000 * min(statistics.median(lat), deadline),
        "latency_tail_ms": 1000 * min(tail_value, deadline),  # a failure reads as the deadline
        "percentile": tail_pct,
        "inputs": n,
    }


def end_to_end(records: list, setup_times: list, deadline: float, setup_wall=()) -> tuple:
    """(metrics, details) for one untraced run.

    The loop cycles through the inputs, so most run several times. An input's
    latency is the median of its runs at reference speed, which keeps brief
    slowdowns of the machine out of the tail; percentiles are over inputs.
    """
    adjusted = latency(records, deadline)
    wall = latency(records, deadline, seconds=lambda r: r.elapsed)
    ops = per_op(records)
    top = max((v[1] for v in ops.values() if v[1] is not None), default=0) + 1
    bits = [top if v[1] is None else v[1] for v in ops.values()]
    failed = sum(1 for r in records if r.failure)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": adjusted["ops_per_s"],
        "latency_p50_ms": adjusted["latency_p50_ms"],
        "latency_tail_ms": adjusted["latency_tail_ms"],
        "out_bits_p50": statistics.median(bits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    slowdowns = [r.slowdown for r in records]
    details = {
        "failed_frac": failed / len(records),
        "latency_tail_percentile": adjusted["percentile"],
        "latency_samples": adjusted["inputs"],
        "runs": len(records),
        "wall_clock": {
            **{k: wall[k] for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")},
            "setup_s": statistics.median(setup_wall) if setup_wall else None,
        },
        "slowdown": {"min": min(slowdowns), "median": statistics.median(slowdowns),
                     "max": max(slowdowns)},
        "setup_s_each": setup_times,
    }
    return metrics, details


def slowest(ops, records: list) -> list:
    """The inputs with the highest median latency, in replayable form."""
    by_latency = sorted(per_op(records).items(), key=lambda kv: kv[1][0], reverse=True)
    return [{"index": i, "kind": ops[i].kind, "ms": 1000 * ms, "bits": bits,
             "replay": ops[i].replay} for i, (ms, bits) in by_latency[:SLOWEST]]


def failures(ops, records: list) -> list:
    out = []
    for r in records:
        if r.failure and len(out) < LISTED_FAILURES:
            out.append({"index": r.index, "kind": ops[r.index].kind,
                        "failure": r.failure, "replay": ops[r.index].replay})
    return out


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain source checkout
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_untraced(workload, seed: int, seconds: float) -> tuple:
    _, ops, setup_times, setup_wall = setup(workload, seed, SETUP_REPEATS, SETUP_MIN_S)
    records = run_ops(ops, seconds=seconds)
    metrics, details = end_to_end(records, setup_times, DEADLINE_S, setup_wall)
    details["slowest"] = slowest(ops, records)
    details["failures"] = failures(ops, records)
    return metrics, details, records


def run_traced(workload, seed: int, count: Optional[int] = None) -> tuple:
    """One untraced and one traced pass over the first `count` ops (default all)."""
    cy, ops, _, _ = setup(workload, seed, 1)
    count = count or len(ops)
    run_ops(ops, count=min(count, WARM_UP_OPS))
    base = run_ops(ops, count=count)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced_ops = workload.make(cy, seed, lambda: None)
        traced = run_ops(traced_ops, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    timeouts = sum(1 for r in traced if r.failure == "timeout")
    exhausted = sum(1 for r in traced if r.failure and "SearchExhausted" in r.failure)
    metrics = tracer.metrics(timeouts, exhausted)
    metrics["trace.overhead_frac"] = (
        sum(r.adjusted for r in traced) / sum(r.adjusted for r in base) - 1
    )
    return metrics, traced


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith(("accept_ratio", "overhead_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "cyclact" / "__init__.py").is_file():
        print(f"no cyclact source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    if args.trace:
        metrics, records = run_traced(workload, args.seed)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, details, records = run_untraced(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
        report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "deadline_s": DEADLINE_S, **machine(),
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                  **details}
        print(json.dumps({"report": report}))
    wrong = sum(1 for r in records if r.failure and r.failure.startswith("wrong"))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failure),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
