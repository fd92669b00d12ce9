"""Fast self-test of the benchmark itself, at tiny size (a few seconds).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks the benchmark's machinery, not the program's speed:

* every metric named in ``BENCHMARK.json`` is emitted, with its unit, by
  every workload (end-to-end with ``--trace 0``, per-layer with ``--trace 1``);
* a deliberately corrupted cost trips the output checks, on the streams and
  on the service, while the uncorrupted control passes;
* the traced run drops no spans: every span belongs to a layer group, the
  Chrome export holds each of them, every streamed request shows one
  ``api.session.submit`` span, and the wrappers are gone afterwards.

It then reports which workloads failed their output checks on the program
as it stands.  The exit code is non-zero if anything above fails.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

import run
from workloads import CheckFailed

BENCHMARK = run.ROOT / "BENCHMARK.json"
#: The service workload of ``BENCHMARK.json``.
SERVICE = "service-submit-evict"


def last_json(text: str) -> Dict[str, Any]:
    return json.loads(text.strip().splitlines()[-1])


def tiny_run(name: str, trace: bool, spans_out: Optional[str] = None) -> Dict[str, Any]:
    out = io.StringIO()
    run.run(name, 0, 0, trace, tiny=True, spans_out=spans_out, out=out)
    return last_json(out.getvalue())


def check_emitted(config: Dict[str, Any], failures: List[str], checks_failed: List[str]) -> None:
    for workload in config["workloads"]:
        name = workload["name"]
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = tiny_run(name, trace)
            if not result["correct"]:
                checks_failed.append(f"{name} (--trace {int(trace)})")
            expected = {metric["name"]: metric["unit"] for metric in config[section]}
            emitted = {key: value["unit"] for key, value in result["metrics"].items()}
            if emitted != expected:
                missing = sorted(set(expected) - set(emitted))
                extra = sorted(set(emitted) - set(expected))
                wrong = sorted(k for k in expected if k in emitted and emitted[k] != expected[k])
                failures.append(
                    f"{name} {section}: missing {missing}, unexpected {extra}, wrong unit {wrong}"
                )
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name}: result keys {sorted(result)}")
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append(f"{name}: attempted {result['attempted']}, failed {result['failed']}")


def check_corruption_trips(failures: List[str]) -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as scratch:
        for name in ("stream-rand-zipf", "stream-pd-zipf"):
            workload = run.build_workload(name, 0, Path(scratch), tiny=True)
            current = workload.setup()
            workload.run_ops(current)
            workload.finalize(current)
            record = current.record
            current.record = dataclasses.replace(record, total_cost=record.total_cost * (1 + 1e-6))
            try:
                workload.check_round(current)
                failures.append(f"{name}: a corrupted total_cost passed the output check")
            except CheckFailed:
                pass
            current.record = record
            workload.check_round(current)

        # The service check compares a round with a replay on a resident
        # manager: a resident round passes it until one cost is corrupted.
        for corrupt in (False, True):
            workload = run.build_workload(SERVICE, 0, Path(scratch), tiny=True)
            current = workload.setup(evicting=False)
            workload.run_ops(current)
            workload.finalize(current)
            if corrupt:
                response = json.loads(current.responses[-1])
                response["record"]["total_cost"] *= 1 + 1e-6
                current.responses[-1] = json.dumps(response)
            workload.check_round(current)
            try:
                workload.verify()
                if corrupt:
                    failures.append(f"{SERVICE}: a corrupted total_cost passed the output check")
            except CheckFailed as error:
                if not corrupt:
                    failures.append(f"{SERVICE}: two identical resident runs disagree: {error}")
                elif "total_cost" not in str(error):
                    failures.append(f"{SERVICE}: corruption reported as {error}")


def check_no_dropped_spans(failures: List[str]) -> None:
    from repro.metric.euclidean import EuclideanMetric

    original = EuclideanMetric.__dict__["distances_from"]
    for name in ("stream-rand-zipf", SERVICE):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as scratch:
            spans_out = str(Path(scratch) / "spans.json")
            metrics = {k: v["value"] for k, v in tiny_run(name, True, spans_out)["metrics"].items()}
            with open(spans_out, encoding="utf-8") as handle:
                events = json.load(handle)["traceEvents"]
        spans = metrics["trace.spans"]
        grouped = sum(value for key, value in metrics.items() if key.endswith(".calls"))
        if not spans or grouped != spans:
            failures.append(f"{name}: {spans} spans but {grouped} calls across layer groups")
        if len(events) != spans:
            failures.append(f"{name}: Chrome export holds {len(events)} of {spans} spans")
        if any(e["dur"] < 0 or not -1 <= e["args"]["parent"] < e["args"]["span"] for e in events):
            failures.append(f"{name}: a span is unfinished or has a parent recorded after it")
        if name.startswith("stream"):
            ops = run.TINY_SIZES[name]["ops"]
            if metrics["api.session.submit.calls"] != ops:
                failures.append(
                    f"{name}: {metrics['api.session.submit.calls']} submit spans for {ops} requests"
                )
    if EuclideanMetric.__dict__["distances_from"] is not original:
        failures.append("the layer wrappers were left installed after the traced run")


def main() -> int:
    run.import_repro()
    config = json.loads(BENCHMARK.read_text())
    failures: List[str] = []
    checks_failed: List[str] = []
    check_emitted(config, failures, checks_failed)
    check_corruption_trips(failures)
    check_no_dropped_spans(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("ok: metrics emitted with their units, corruption trips the checks, no span dropped")
    for name in checks_failed:
        print(f"FAIL program output check: {name}")
    return 1 if failures or checks_failed else 0


if __name__ == "__main__":
    sys.exit(main())
