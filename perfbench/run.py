"""The repository benchmark: its workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-pd-zipf --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced rounds with rounds in which the public
functions of every layer are wrapped (see ``layers.py``) and reports the
per-layer metrics, plus the tracing overhead between the two kinds of round.
``--spans-out FILE`` also writes the traced spans as Chrome trace-event JSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the figures for a reader, with host facts and sample counts.  The
exit code is 1 when an output check fails and non-zero without a result when
the ``repro`` sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from layers import Instrumentation, SpanRecorder, layer_metrics
from workloads import CheckFailed, ServiceWorkload, StreamWorkload

ROOT = Path(__file__).resolve().parent.parent

#: Extra set-ups timed before every untraced round (the round's own adds one
#: more), so the set-up samples are spread over the whole run.
SETUPS_PER_ROUND = 4

#: Stated sizes: requests per round on the streams, wire ops on the service.
SIZES = {
    "stream-rand-zipf": {"num_points": 1024, "ops": 15000},
    "stream-pd-zipf": {"num_points": 256, "ops": 2000},
    "service-submit-evict": {"num_points": 256, "ops": 2000},
    "service-evict": {"num_points": 256, "ops": 2000},
}
#: The same workloads at a size that finishes in about a second (self-test).
TINY_SIZES = {
    "stream-rand-zipf": {"num_points": 64, "ops": 200},
    "stream-pd-zipf": {"num_points": 32, "ops": 100},
    "service-submit-evict": {"num_points": 32, "ops": 150},
    "service-evict": {"num_points": 32, "ops": 150},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "finalize_s": "s",
    "peak_rss_mb": "MB",
    "solution_cost": "cost",
}

SERVICE_OPS = ("create", "submit", "advance", "status", "metrics", "snapshot", "finalize")


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def build_workload(name: str, seed: int, scratch: Path, tiny: bool = False) -> Any:
    size = (TINY_SIZES if tiny else SIZES)[name]
    if name == "stream-rand-zipf":
        return StreamWorkload("rand-omflp", size["num_points"], size["ops"], seed)
    if name == "stream-pd-zipf":
        return StreamWorkload("pd-omflp", size["num_points"], size["ops"], seed)
    scenario_backed = name == "service-evict"
    return ServiceWorkload(seed, size["ops"], size["num_points"], scratch, scenario_backed)


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    return {
        "metric.rows_per_op": "rows/op",
        "service.reloads_per_op": "reloads/op",
        "service.snapshot.bytes_mean": "bytes",
        "trace.overhead_frac": "ratio",
    }[name]


class Measurement:
    """Everything one run collected, split by untraced and traced rounds."""

    def __init__(self) -> None:
        self.setup_times: List[float] = []
        self.finalize_times: List[float] = []
        self.latencies: List[float] = []
        self.by_op: Dict[str, List[float]] = {}
        self.ops_time = {False: 0.0, True: 0.0}
        self.ops_done = {False: 0, True: 0}
        self.rounds = {False: 0, True: 0}
        self.failed = 0
        self.costs: List[float] = []
        self.peak_rss_mb = 0.0


def run_round(workload: Any, m: Measurement, traced: bool, recorder: SpanRecorder) -> None:
    clock = time.perf_counter
    instrument = Instrumentation(recorder) if traced else contextlib.nullcontext()
    with instrument:
        start = clock()
        current = workload.setup()
        m.setup_times.append(clock() - start)
        start = clock()
        workload.run_ops(current)
        m.ops_time[traced] += clock() - start
        start = clock()
        workload.finalize(current)
        finalize_time = clock() - start
    try:
        m.costs.append(workload.check_round(current))
    finally:
        workload.teardown(current)
    m.rounds[traced] += 1
    m.ops_done[traced] += workload.ops_per_round
    m.failed += current.failed
    if not traced:
        m.finalize_times.append(finalize_time)
        m.latencies.extend(current.latencies)
        for kind, values in current.by_op.items():
            m.by_op.setdefault(kind, []).extend(values)


def measure(
    workload: Any, seconds: float, trace: bool, recorder: SpanRecorder, m: Measurement
) -> None:
    """Run a warm-up round, then timed rounds until ``seconds`` have passed.

    The warm-up round is checked like any other but not counted: it pays the
    lazy imports and the first touch of the memory the workload settles into
    (about 1.5 million page faults on ``stream-pd-zipf``, none in later
    rounds).  Every untraced round is preceded by :data:`SETUPS_PER_ROUND`
    timed set-ups.  With ``trace`` every second round is instrumented, and
    the run ends on an instrumented round so both kinds are represented
    equally.
    """
    clock = time.perf_counter
    began = clock()
    run_round(workload, Measurement(), False, recorder)
    number = 0
    while True:
        traced = trace and number % 2 == 1
        if not traced:
            for _ in range(SETUPS_PER_ROUND):
                start = clock()
                current = workload.setup()
                m.setup_times.append(clock() - start)
                workload.teardown(current)
        run_round(workload, m, traced, recorder)
        number += 1
        if clock() - began >= seconds and (not trace or number % 2 == 0):
            break
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: Measurement) -> Dict[str, float]:
    """The run's figures over all of its untraced rounds.

    Op figures pool every timed op of the run, and ``finalize_s`` is the
    mean over rounds: the host's speed drifts in phases of tens of seconds,
    and a mean weighs them by the time they last where a median of a dozen
    rounds jumps to whichever phase held most rounds.  ``setup_s`` is a
    median: its sub-millisecond samples are the ones a single pause skews.
    """
    latencies = np.asarray(m.latencies)
    return {
        "setup_s": statistics.median(m.setup_times),
        "throughput_ops_s": m.ops_done[False] / m.ops_time[False],
        "op_p50_us": float(np.percentile(latencies, 50.0)) * 1e6,
        "op_p99_us": float(np.percentile(latencies, 99.0)) * 1e6,
        "finalize_s": statistics.mean(m.finalize_times),
        "peak_rss_mb": m.peak_rss_mb,
        "solution_cost": m.costs[0],
    }


def per_layer(workload: Any, m: Measurement, recorder: SpanRecorder) -> Dict[str, float]:
    rounds = m.rounds[True]
    values = layer_metrics(recorder, rounds)
    values["metric.rows_per_op"] = (
        values["metric.distances_from.calls"] / workload.ops_per_round
    )
    for op in SERVICE_OPS:
        samples = m.by_op.get(op)
        values[f"service.{op}.p50_us"] = (
            float(np.percentile(samples, 50.0)) * 1e6 if samples else 0.0
        )
    reloads = getattr(workload, "reloads", None)
    values["service.reloads_per_op"] = (
        statistics.mean(reloads) / workload.ops_per_round if reloads else 0.0
    )
    values["service.snapshot.bytes_mean"] = (
        statistics.mean(recorder.saved_bytes) if recorder.saved_bytes else 0.0
    )
    values["trace.spans"] = len(recorder) / rounds
    per_op_traced = m.ops_time[True] / m.ops_done[True]
    per_op_plain = m.ops_time[False] / m.ops_done[False]
    values["trace.overhead_frac"] = per_op_traced / per_op_plain - 1.0
    return values


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    spans_out: Optional[str] = None,
    out=sys.stdout,
) -> Dict[str, Any]:
    """Run one workload and return the result object (also printed to ``out``).

    A failed output check makes the result ``correct: false``; the figures
    of the rounds that completed are still reported, for diagnosis.
    """
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_root))
    recorder = SpanRecorder()
    m = Measurement()
    workload = build_workload(name, seed, scratch, tiny=tiny)
    correct = True
    try:
        measure(workload, seconds, trace, recorder, m)
        if recorder.open_spans:
            raise CheckFailed(f"{recorder.open_spans} spans were left open")
        workload.verify()
    except CheckFailed as error:
        print(f"# check failed: {error}", file=out)
        correct = False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()
    values: Dict[str, float] = {}
    if trace and m.rounds[True] and m.rounds[False]:
        values = per_layer(workload, m, recorder)
        if spans_out:
            recorder.write_chrome_trace(spans_out)
    elif not trace and m.rounds[False]:
        values = end_to_end(m)
    units = {key: END_TO_END_UNITS.get(key) or layer_unit(key) for key in values}
    facts = host_facts()
    print(f"# host: {' '.join(f'{k}={v}' for k, v in facts.items())}", file=out)
    samples = len(m.latencies)
    print(
        f"# workload={name} seed={seed} rounds={m.rounds[False]} untraced + "
        f"{m.rounds[True]} traced, {workload.ops_per_round} ops/round, "
        f"{samples} latency samples ({samples // 100} beyond p99)",
        file=out,
    )
    for key, value in values.items():
        print(f"# {key} = {value!r} {units[key]}", file=out)
    result = {
        "correct": correct,
        "attempted": max(1, m.ops_done[False] + m.ops_done[True]),
        "failed": m.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, help="Chrome trace JSON of traced spans")
    args = parser.parse_args(argv)
    import_repro()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spans_out=args.spans_out)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
