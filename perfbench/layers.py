"""Per-layer spans recorded from outside the program.

The traced run wraps the public functions of each layer (one layer per
``repro`` subpackage) from this file; nothing under ``src/`` changes.  Each
wrapped call records one span -- group name, start, end and the index of the
enclosing wrapped call -- into flat in-memory arrays.  Nothing is dropped and
nothing is written until the run ends, when :func:`layer_metrics` reduces the
spans to per-group call counts, busy time and self time.

Self time is a span's duration minus the durations of its direct child spans
(calls are synchronous and single-threaded, so children never overlap).
Busy time counts only the outermost span of a group, so a group that calls
itself is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np


def layer_targets() -> List[Tuple[str, type, Sequence[str]]]:
    """``(group, owner class, attribute names)`` of every wrapped function.

    Imported lazily: the benchmark decides where ``repro`` is imported from
    before anything here runs.
    """
    from repro.accel.classes import ClassDistanceIndex
    from repro.accel.history import BidHistoryBuffer
    from repro.accel.tracker import NearestSetTracker
    from repro.algorithms.online.meyerson_ofl import MeyersonOFLAlgorithm
    from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
    from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
    from repro.api.session import OnlineSession
    from repro.core.solution import Solution
    from repro.core.state import OnlineState
    from repro.metric.euclidean import EuclideanMetric
    from repro.scenarios.base import ScenarioStream
    from repro.service.snapshot import SessionSnapshot
    from repro.telemetry.sink import TelemetrySink

    # Every workload runs on random Euclidean metrics, so the concrete metric
    # class is the one whose row and scalar queries are wrapped.
    return [
        ("metric.distances_from", EuclideanMetric, ["distances_from"]),
        ("metric.distance", EuclideanMetric, ["distance"]),
        (
            "accel.class_index",
            ClassDistanceIndex,
            [
                "class_distances",
                "distance_to_class",
                "nearest_point_of_class",
                "cheapest_open_option",
            ],
        ),
        ("accel.tracker.add", NearestSetTracker, ["add"]),
        ("accel.bid_history.base", BidHistoryBuffer, ["base"]),
        ("algorithms.process", RandOMFLPAlgorithm, ["process"]),
        ("algorithms.process", PDOMFLPAlgorithm, ["process"]),
        ("algorithms.process", MeyersonOFLAlgorithm, ["process"]),
        ("core.state.record_assignment", OnlineState, ["record_assignment"]),
        ("core.state.open_facility", OnlineState, ["open_facility"]),
        ("core.solution.cost_breakdown", Solution, ["cost_breakdown"]),
        ("api.session.submit", OnlineSession, ["submit"]),
        ("api.session.finalize", OnlineSession, ["finalize"]),
        ("api.session.snapshot", OnlineSession, ["snapshot"]),
        ("api.session.restore", OnlineSession, ["restore"]),
        ("scenarios.take", ScenarioStream, ["take"]),
        ("scenarios.observe", ScenarioStream, ["observe"]),
        ("service.snapshot.save", SessionSnapshot, ["save"]),
        ("service.snapshot.load", SessionSnapshot, ["load"]),
        ("telemetry.record_batch", TelemetrySink, ["record_batch"]),
        ("telemetry.summary", TelemetrySink, ["summary"]),
    ]


def layer_groups() -> List[str]:
    """Group names in report order, each once."""
    return list(dict.fromkeys(group for group, _, _ in layer_targets()))


class SpanRecorder:
    """Flat, append-only span storage shared by every wrapper."""

    def __init__(self) -> None:
        self.groups: List[str] = []
        self._group_ids: Dict[str, int] = {}
        self.group = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.outermost = array("b")
        self._stack: List[int] = []
        self._open_per_group: List[int] = []
        #: Bytes of every snapshot file written while recording.
        self.saved_bytes: List[int] = []

    def __len__(self) -> int:
        return len(self.group)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def group_id(self, name: str) -> int:
        if name not in self._group_ids:
            self._group_ids[name] = len(self.groups)
            self.groups.append(name)
            self._open_per_group.append(0)
        return self._group_ids[name]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        gid = self.group_id(name)
        clock = time.perf_counter
        stack = self._stack
        open_per_group = self._open_per_group
        group, start, end = self.group, self.start, self.end
        parent, outermost = self.parent, self.outermost

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(group)
            group.append(gid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(open_per_group[gid] == 0)
            open_per_group[gid] += 1
            stack.append(index)
            end.append(0.0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                open_per_group[gid] -= 1

        return traced

    def chrome_trace(self) -> Dict[str, Any]:
        """All spans as Chrome trace-event JSON (loadable in Perfetto)."""
        events = [
            {
                "name": self.groups[self.group[i]],
                "ph": "X",
                "ts": self.start[i] * 1e6,
                "dur": (self.end[i] - self.start[i]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": self.parent[i]},
            }
            for i in range(len(self.group))
        ]
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


class Instrumentation:
    """Install the recorder's wrappers on the layer targets, and undo it."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[type, str, bool, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for name, owner, attributes in layer_targets():
            for attribute in attributes:
                self._install(name, owner, attribute)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attribute, own, original in reversed(self._saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._saved.clear()

    def _install(self, name: str, owner: type, attribute: str) -> None:
        original = inspect.getattr_static(owner, attribute)
        self._saved.append((owner, attribute, attribute in owner.__dict__, original))
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.recorder.wrap(name, original.__func__))
        elif name == "service.snapshot.save":
            replacement = self._wrap_save(name, original)
        else:
            replacement = self.recorder.wrap(name, original)
        setattr(owner, attribute, replacement)

    def _wrap_save(self, name: str, save: Callable[..., Any]) -> Callable[..., Any]:
        traced = self.recorder.wrap(name, save)
        saved_bytes = self.recorder.saved_bytes

        @functools.wraps(save)
        def save_and_measure(*args: Any, **kwargs: Any) -> Any:
            path = traced(*args, **kwargs)
            saved_bytes.append(path.stat().st_size)
            return path

        return save_and_measure


def layer_metrics(recorder: SpanRecorder, rounds: int) -> Dict[str, float]:
    """``<group>.calls`` / ``.busy_s`` / ``.self_s`` per traced round."""
    n = len(recorder)
    group = np.frombuffer(recorder.group, dtype=np.uint16, count=n)
    start = np.frombuffer(recorder.start, dtype=np.float64, count=n)
    end = np.frombuffer(recorder.end, dtype=np.float64, count=n)
    parent = np.frombuffer(recorder.parent, dtype=np.int64, count=n)
    outermost = np.frombuffer(recorder.outermost, dtype=np.int8, count=n).astype(bool)
    duration = end - start
    child = np.zeros(n, dtype=np.float64)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    own = duration - child
    metrics: Dict[str, float] = {}
    for name in layer_groups():
        if name in recorder.groups:
            mask = group == recorder.groups.index(name)
            calls = int(mask.sum())
            busy = float(duration[mask & outermost].sum())
            self_time = float(own[mask].sum())
        else:
            calls, busy, self_time = 0, 0.0, 0.0
        metrics[f"{name}.calls"] = calls / rounds
        metrics[f"{name}.busy_s"] = busy / rounds
        metrics[f"{name}.self_s"] = self_time / rounds
    return metrics
