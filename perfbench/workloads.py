"""The benchmark's workloads and the output checks that guard them.

Every workload is driven from one process and thread through public entry
points: :class:`repro.scenarios.run.ScenarioSession` for the two streams and
:meth:`repro.service.ServiceProtocol.handle_line` for the service.  A round
is one full pass over the workload at its stated size -- set up, the timed
ops, finalize -- and every round of a run repeats the same seeded inputs, so
per-round figures are comparable however many rounds fit into a run.

A workload exposes ``setup() -> Round``, ``run_ops(round)`` (the timed ops,
each op's latency in ``round.latencies``), ``finalize(round)`` (timed as a
whole), ``check_round(round) -> solution cost`` (also counts the round's
failed ops), ``verify()`` (once, after all rounds) and ``teardown(round)``.
Checks raise :class:`CheckFailed` and run outside every timed region.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

#: Leading events of every round compared exactly against the reference path.
CHECK_EVENTS = 300


class CheckFailed(Exception):
    """An output check failed: the program computed something wrong."""


class Round:
    """The live objects of one round and what its checks need."""

    def __init__(self, target: Any, manager: Any = None, directory: Optional[str] = None):
        self.target = target
        self.manager = manager
        self.directory = directory
        self.latencies: List[float] = []
        #: Timed ops answered with ``ok: false`` (counted after the round).
        self.failed = 0
        #: Per-op latencies of the service's wire ops, keyed by op name.
        self.by_op: Dict[str, List[float]] = {}
        self.head: List[Any] = []
        self.last: Any = None
        self.record: Any = None
        self.responses: List[str] = []


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
class StreamWorkload:
    """One scenario-backed session streamed for ``num_requests`` requests."""

    def __init__(self, algorithm: str, num_points: int, num_requests: int, seed: int):
        self.ops_per_round = num_requests
        self.spec = {
            "algorithm": algorithm,
            "scenario": {
                "kind": "zipf",
                "num_requests": num_requests,
                "num_commodities": 8,
                "num_points": num_points,
            },
            "seed": seed,
            "validate": True,
        }
        self._heads: List[List[Any]] = []
        self._costs: List[float] = []

    def setup(self) -> Round:
        from repro.scenarios.run import ScenarioSession

        return Round(ScenarioSession(self.spec))

    def run_ops(self, current: Round) -> None:
        step = current.target.step
        latencies = current.latencies
        clock = time.perf_counter
        head = current.head
        event = None
        for index in range(self.ops_per_round):
            start = clock()
            event = step()
            latencies.append(clock() - start)
            if event is None:
                raise CheckFailed(f"stream ended after {index} of {self.ops_per_round} requests")
            if index < CHECK_EVENTS:
                head.append(event)
        current.last = event

    def finalize(self, current: Round) -> None:
        current.record = current.target.finalize()

    def check_round(self, current: Round) -> float:
        record = current.record
        if record.num_requests != self.ops_per_round:
            raise CheckFailed(
                f"record holds {record.num_requests} requests, expected {self.ops_per_round}"
            )
        last = current.last.total_cost_so_far
        if not math.isclose(record.total_cost, last, rel_tol=1e-9, abs_tol=0.0):
            raise CheckFailed(
                f"final total_cost {record.total_cost!r} differs from the last event's "
                f"running total {last!r}"
            )
        self._heads.append(current.head)
        self._costs.append(record.total_cost)
        return record.total_cost

    def verify(self) -> None:
        from repro.scenarios.run import ScenarioSession

        if any(cost != self._costs[0] for cost in self._costs):
            raise CheckFailed(f"rounds on one seed disagree on total_cost: {self._costs}")
        reference = ScenarioSession(self.spec, use_accel=False)
        expected = [reference.step() for _ in range(min(CHECK_EVENTS, self.ops_per_round))]
        for number, head in enumerate(self._heads):
            for index, (got, want) in enumerate(zip(head, expected)):
                if got != want:
                    raise CheckFailed(
                        f"round {number}: event {index} differs from the use_accel=False "
                        f"session: {got} != {want}"
                    )

    def teardown(self, current: Round) -> None:
        pass


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
#: Session count, resident cap, and the requests one ``advance`` op streams.
SESSIONS = 8
MAX_LIVE = 6
ADVANCE_COUNT = 4
#: Commodities of the ``rand-omflp`` sessions.
COMMODITIES = 8
#: Sessions with the stock telemetry probes: one of each kind (a quarter).
TELEMETRY_SESSIONS = (1, 2)
#: Seed of the access schedule (which session each op touches, and the op).
#: The schedule is part of the workload's definition, not of its inputs: it
#: fixes how many reloads a round pays and how large the reloaded sessions
#: are, which otherwise swing the round's cost by half from seed to seed.
SCHEDULE_SEED = 0


def service_ops(
    seed: int, num_ops: int, num_points: int, scenario_backed: bool
) -> Dict[str, List[str]]:
    """The wire lines of one round: ``create``, timed ``ops``, ``finalize``.

    Even sessions run ``rand-omflp`` over |S| = 8 commodities; odd ones are
    client-driven ``meyerson-ofl`` sessions fed generated points by
    ``submit``.  With ``scenario_backed`` the ``rand-omflp`` sessions draw
    their requests from a ``zipf`` scenario and are driven by ``advance``;
    without it they are client-driven too, and ``submit`` feeds them
    generated points with zipf-skewed commodity sets of one to four.
    Session popularity is zipf-skewed by index, so low-index sessions stay
    resident and high-index ones bounce through disk.  ``seed`` makes the
    session seeds and the submitted requests; the access schedule comes
    from :data:`SCHEDULE_SEED`.
    """
    rng = np.random.default_rng(seed)
    names = [f"s{index}" for index in range(SESSIONS)]
    creates = []
    for index, name in enumerate(names):
        session_seed = int(rng.integers(2**31 - 1))
        if index % 2 == 0 and scenario_backed:
            spec = {
                "algorithm": "rand-omflp",
                "scenario": {
                    "kind": "zipf",
                    "num_commodities": COMMODITIES,
                    "num_points": num_points,
                },
                "seed": session_seed,
            }
        else:
            algorithm, commodities = (
                ("rand-omflp", COMMODITIES) if index % 2 == 0 else ("meyerson-ofl", 1)
            )
            spec = {
                "algorithm": algorithm,
                "metric": {"kind": "random-euclidean", "num_points": num_points},
                "cost": {"kind": "power", "num_commodities": commodities, "exponent_x": 1.0},
                "requests": [],
                "seed": session_seed,
            }
        message: Dict[str, Any] = {"op": "create", "name": name, "spec": spec}
        if index in TELEMETRY_SESSIONS:
            message["telemetry"] = True
        creates.append(message)
    weights = 1.0 / np.arange(1, SESSIONS + 1)
    schedule = np.random.default_rng(SCHEDULE_SEED)
    chosen = schedule.choice(SESSIONS, size=num_ops, p=weights / weights.sum())
    kind_draws = schedule.random(num_ops)
    points = rng.integers(num_points, size=num_ops)
    popularity = 1.0 / np.arange(1, COMMODITIES + 1) ** 1.2
    ops = []
    for index, draw, point in zip(chosen, kind_draws, points):
        name = names[index]
        if draw < 0.09:
            ops.append({"op": "status", "name": name})
        elif draw < 0.095:
            ops.append({"op": "metrics"})
        elif draw < 0.10:
            ops.append({"op": "snapshot", "name": name})
        elif index % 2 == 1:
            ops.append({"op": "submit", "name": name, "point": int(point), "commodities": [0]})
        elif scenario_backed:
            ops.append({"op": "advance", "name": name, "count": ADVANCE_COUNT})
        else:
            size = int(rng.integers(1, 5))
            subset = rng.choice(
                COMMODITIES, size=size, replace=False, p=popularity / popularity.sum()
            )
            ops.append({
                "op": "submit",
                "name": name,
                "point": int(point),
                "commodities": sorted(int(c) for c in subset),
            })
    finalizes = [{"op": "finalize", "name": name} for name in names]
    return {
        key: [json.dumps(message) for message in messages]
        for key, messages in (("create", creates), ("ops", ops), ("finalize", finalizes))
    }


def comparable(op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """The part of one response an evicting and a resident manager share.

    Events (``submit``/``advance``) and finalized records must match
    exactly, except ``runtime_seconds``, which is wall time.  ``status``,
    ``metrics`` and ``snapshot`` payloads differ with residency or carry wall
    time, so of every other op only the ``ok`` flag counts.
    """
    if op == "finalize" and payload.get("ok"):
        payload["record"].pop("runtime_seconds")
    elif op not in ("submit", "advance"):
        payload = {"ok": payload.get("ok")}
    return payload


def first_difference(got: Any, want: Any, path: str = "") -> str:
    """Where two JSON values first differ, as ``path: got != want``."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return first_difference(got.get(key), want.get(key), f"{path}.{key}")
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for index, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return first_difference(a, b, f"{path}[{index}]")
    return f"{path or '.'}: {got!r} != {want!r}"


class ServiceWorkload:
    """One closed-loop client driving ``ServiceProtocol.handle_line``."""

    def __init__(
        self, seed: int, num_ops: int, num_points: int, scratch: Path, scenario_backed: bool
    ):
        self.lines = service_ops(seed, num_ops, num_points, scenario_backed)
        self.ops_per_round = len(self.lines["ops"])
        self._all_lines = self.lines["create"] + self.lines["ops"] + self.lines["finalize"]
        self._all_ops = [json.loads(line)["op"] for line in self._all_lines]
        self.op_kinds = self._all_ops[len(self.lines["create"]):][: self.ops_per_round]
        self._scratch = scratch
        #: Comparable answers of the run's first round; every later round must
        #: repeat them (kept once, so memory does not grow with rounds).
        self._answers: Optional[List[Dict[str, Any]]] = None
        #: Disk reloads per round, read from the manager's own counters.
        self.reloads: List[int] = []

    def setup(self, evicting: bool = True) -> Round:
        from repro.service import ServiceProtocol, SessionManager

        if evicting:
            directory = tempfile.mkdtemp(prefix="snapshots-", dir=self._scratch)
            manager = SessionManager(snapshot_dir=directory, max_live_sessions=MAX_LIVE)
        else:
            directory = None
            manager = SessionManager()
        current = Round(ServiceProtocol(manager), manager, directory)
        current.by_op["create"] = self._timed(current, self.lines["create"])
        return current

    @staticmethod
    def _timed(current: Round, lines: List[str]) -> List[float]:
        """Send ``lines`` one by one; the latency of each."""
        handle = current.target.handle_line
        clock = time.perf_counter
        latencies = []
        for line in lines:
            start = clock()
            current.responses.append(handle(line))
            latencies.append(clock() - start)
        return latencies

    def run_ops(self, current: Round) -> None:
        current.latencies = self._timed(current, self.lines["ops"])

    def finalize(self, current: Round) -> None:
        current.by_op["finalize"] = self._timed(current, self.lines["finalize"])

    def check_round(self, current: Round) -> float:
        payloads = [json.loads(response) for response in current.responses]
        creates, finalizes = len(self.lines["create"]), len(self.lines["finalize"])
        for payload in payloads[:creates] + payloads[-finalizes:]:
            if not payload["ok"]:
                raise CheckFailed(f"a create or finalize op failed: {payload}")
        current.failed = sum(not payload["ok"] for payload in payloads[creates:-finalizes])
        for kind, latency in zip(self.op_kinds, current.latencies):
            current.by_op.setdefault(kind, []).append(latency)
        self.reloads.append(current.manager.metrics()["counters"]["reloads"])
        answers = self._comparable(payloads)
        if self._answers is None:
            self._answers = answers
        else:
            self._compare(answers, self._answers, "in the run's first round")
        return sum(payload["record"]["total_cost"] for payload in payloads[-finalizes:])

    def verify(self) -> None:
        resident = self.setup(evicting=False)
        self.run_ops(resident)
        self.finalize(resident)
        expected = self._comparable([json.loads(response) for response in resident.responses])
        self._compare(self._answers, expected, "on a manager that never evicts")

    def _comparable(self, payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return [comparable(op, payload) for op, payload in zip(self._all_ops, payloads)]

    def _compare(self, got: List[Any], want: List[Any], where: str) -> None:
        for line, answer, expected in zip(self._all_lines, got, want):
            if answer != expected:
                raise CheckFailed(
                    f"{line} answers differently than {where}: "
                    f"{first_difference(answer, expected)}"
                )

    def teardown(self, current: Round) -> None:
        if current.directory is not None:
            shutil.rmtree(current.directory, ignore_errors=True)
