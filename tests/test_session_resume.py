"""Bit-identical equivalence of snapshot→restore→continue vs uninterrupted runs.

The durable-session layer (:mod:`repro.service.snapshot`) claims that a
session snapshotted after ``k`` requests and restored in a fresh
process-like context — new algorithm object, freshly rebuilt metric/cost,
snapshot round-tripped through its strict-JSON codec — continues the stream
**bit-identically** to the uninterrupted run: the same remaining-stream
events, the same final costs, the same facility-opening sequence and the
same assignment trace.

This harness pins that claim for every registered online algorithm over a
grid of metric/cost scenarios, seeds and both hot paths
(``use_accel=True``/``False``), mirroring the accel-equivalence harness of
``tests/test_accel_equivalence.py``.  It also pins the session's ledger: the
costs ``finalize`` reads off :class:`~repro.core.state.OnlineState`'s running
totals equal ``Solution.cost_breakdown`` recomputed from scratch, on the
uninterrupted run and across the snapshot.  Equality is asserted with ``==`` on
floats throughout — "close" is not good enough; resume is exact or broken.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Tuple

import pytest

from repro.algorithms.base import OnlineAlgorithm, OnlineResult
from repro.algorithms.online.always_large import AlwaysLargeGreedy
from repro.algorithms.online.fotakis_ofl import FotakisOFLAlgorithm
from repro.algorithms.online.meyerson_ofl import MeyersonOFLAlgorithm
from repro.algorithms.online.no_prediction import NoPredictionGreedy
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import PerCommodityAlgorithm
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.algorithms.online.threshold import ThresholdPDAlgorithm
from repro.api.components import ALGORITHMS as REGISTERED_ALGORITHMS
from repro.api.session import OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import PowerCost
from repro.costs.general import PerPointScaledCost
from repro.exceptions import SnapshotError
from repro.metric.factories import random_euclidean_metric, random_line_metric
from repro.metric.grid import GridMetric
from repro.service.snapshot import SessionSnapshot
from repro.utils.rng import ensure_rng
from tests.conftest import realize

SEEDS = [0, 1, 2]

#: Requests served before the snapshot is taken.
SPLIT = 7


# ---------------------------------------------------------------------------
# Scenario grid: (name, num_commodities, instance builder)
# ---------------------------------------------------------------------------
def _random_requests(metric, num_commodities: int, num_requests: int, rng) -> RequestSequence:
    requests = []
    for index in range(num_requests):
        point = int(rng.integers(0, metric.num_points))
        size = int(rng.integers(1, num_commodities + 1))
        commodities = rng.choice(num_commodities, size=size, replace=False)
        requests.append(
            Request(index=index, point=point, commodities=frozenset(int(e) for e in commodities))
        )
    return RequestSequence(requests)


def _instance_on(metric, num_commodities: int, seed: int, *, scaled_costs: bool = False):
    rng = ensure_rng(seed)
    cost = PowerCost(num_commodities, 1.0, scale=0.5)
    if scaled_costs:
        scales = rng.uniform(0.5, 8.0, size=metric.num_points)
        cost = PerPointScaledCost(cost, scales)
    requests = _random_requests(metric, num_commodities, 18, rng)
    return Instance(metric, cost, requests, commodities=CommodityUniverse(num_commodities))


def _line_single(seed: int) -> Instance:
    return _instance_on(random_line_metric(24, rng=seed), 1, seed, scaled_costs=True)


def _euclidean_single(seed: int) -> Instance:
    return _instance_on(random_euclidean_metric(30, rng=seed), 1, seed, scaled_costs=True)


def _clustered_multi(seed: int) -> Instance:
    return realize(
        "clustered", seed, num_requests=18, num_commodities=5, num_clusters=3
    ).instance


def _grid_multi(seed: int) -> Instance:
    return _instance_on(GridMetric.full_grid(5, 5), 4, seed, scaled_costs=True)


def _zipf(num_commodities: int) -> Callable[[int], Instance]:
    return lambda seed: realize(
        "zipf", seed, num_requests=18, num_commodities=num_commodities
    ).instance


def _service_network(num_services: int) -> Callable[[int], Instance]:
    return lambda seed: realize(
        "service-network",
        seed,
        num_requests=18,
        num_services=num_services,
        num_nodes=20,
        profile_size=min(num_services, 2),
    ).instance


#: Every algorithm meets four scenario kinds: single-commodity ones the
#: line/euclidean/zipf/service-network rows, the others the
#: clustered/grid/zipf/service-network rows.
SCENARIOS: List[Tuple[str, int, Callable[[int], Instance]]] = [
    ("line-single", 1, _line_single),
    ("euclidean-single", 1, _euclidean_single),
    ("zipf-single", 1, _zipf(1)),
    ("service-network-single", 1, _service_network(1)),
    ("clustered-euclidean", 5, _clustered_multi),
    ("grid-l1", 4, _grid_multi),
    ("zipf-multi", 4, _zipf(4)),
    ("service-network-multi", 4, _service_network(4)),
]

#: name -> (factory taking num_commodities, single_commodity_only); the accel
#: mode is the session's.
ALGORITHMS: Dict[str, Tuple[Callable[[int], OnlineAlgorithm], bool]] = {
    "meyerson-ofl": (lambda c: MeyersonOFLAlgorithm(), True),
    "fotakis-ofl": (lambda c: FotakisOFLAlgorithm(), True),
    "pd-omflp": (lambda c: PDOMFLPAlgorithm(), False),
    "rand-omflp": (lambda c: RandOMFLPAlgorithm(), False),
    "threshold-pd": (lambda c: ThresholdPDAlgorithm(c, excluded=(0,)), False),
    "per-commodity-fotakis": (lambda c: PerCommodityAlgorithm("fotakis"), False),
    "per-commodity-meyerson": (lambda c: PerCommodityAlgorithm("meyerson"), False),
    "no-prediction-greedy": (lambda c: NoPredictionGreedy(), False),
    "always-large-greedy": (lambda c: AlwaysLargeGreedy(), False),
}

CASES = [
    pytest.param(
        algorithm_name,
        scenario_name,
        seed,
        use_accel,
        id=f"{algorithm_name}-{scenario_name}-s{seed}-{'accel' if use_accel else 'ref'}",
    )
    for algorithm_name, (_, single_only) in ALGORITHMS.items()
    for scenario_name, num_commodities, _ in SCENARIOS
    if single_only == (num_commodities == 1)
    for seed in SEEDS
    for use_accel in (True, False)
]


# ---------------------------------------------------------------------------
# Fingerprinting one run
# ---------------------------------------------------------------------------
def _facility_sequence(result: OnlineResult) -> List[Tuple[int, int, Tuple[int, ...], float]]:
    return [
        (f.id, f.point, tuple(sorted(f.configuration)), f.opening_cost)
        for f in result.solution.facilities
    ]


def _assignment_trace(result: OnlineResult) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    return [
        (a.request_index, tuple(sorted(a.facility_of_commodity.items())))
        for a in result.solution.assignments
    ]


def _session_for(algorithm_name: str, scenario_name: str, seed: int, use_accel: bool):
    """A fresh (session, instance) pair — components rebuilt from scratch."""
    factory, _ = ALGORITHMS[algorithm_name]
    builder = next(b for name, _, b in SCENARIOS if name == scenario_name)
    num_commodities = next(c for name, c, _ in SCENARIOS if name == scenario_name)
    instance = builder(seed)
    session = OnlineSession(
        factory(num_commodities),
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=seed,
        trace=True,
        use_accel=use_accel,
    )
    return session, instance


# ---------------------------------------------------------------------------
# The harness
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm_name,scenario_name,seed,use_accel", CASES)
def test_resume_is_bit_identical_to_uninterrupted(
    algorithm_name, scenario_name, seed, use_accel
):
    # Uninterrupted reference run.
    full, instance = _session_for(algorithm_name, scenario_name, seed, use_accel)
    full_events = [full.submit(r.point, r.commodities) for r in instance.requests]
    full_record = full.finalize()

    # Interrupted run: serve SPLIT requests, snapshot, round-trip the codec.
    partial, instance2 = _session_for(algorithm_name, scenario_name, seed, use_accel)
    partial_events = [
        partial.submit(r.point, r.commodities) for r in instance2.requests[:SPLIT]
    ]
    snapshot = SessionSnapshot.from_json(partial.snapshot().to_json())

    # Restore against freshly rebuilt components (a fresh-process stand-in;
    # the partial session is never touched again).
    factory, _ = ALGORITHMS[algorithm_name]
    num_commodities = next(c for name, c, _ in SCENARIOS if name == scenario_name)
    builder = next(b for name, _, b in SCENARIOS if name == scenario_name)
    instance3 = builder(seed)
    resumed = OnlineSession.restore(
        snapshot,
        algorithm=factory(num_commodities),
        metric=instance3.metric,
        cost=instance3.cost_function,
        commodities=instance3.commodities,
    )
    assert resumed.num_requests == SPLIT
    assert resumed.total_cost == partial.total_cost
    assert resumed.state.cost_breakdown() == _recomputed_breakdown(resumed)

    resumed_events = [
        resumed.submit(r.point, r.commodities) for r in instance3.requests[SPLIT:]
    ]
    resumed_record = resumed.finalize()

    # The pre-snapshot prefix and the post-restore remainder must both equal
    # the uninterrupted stream, event for event (exact float equality —
    # AssignmentEvent equality compares every cost field).
    assert partial_events == full_events[:SPLIT]
    assert resumed_events == full_events[SPLIT:]

    # Exact cost equality on the finalized records.
    assert resumed_record.total_cost == full_record.total_cost
    assert resumed_record.opening_cost == full_record.opening_cost
    assert resumed_record.connection_cost == full_record.connection_cost

    # Identical facility-opening sequences and assignment traces.
    assert _facility_sequence(resumed_record.source) == _facility_sequence(full_record.source)
    assert _assignment_trace(resumed_record.source) == _assignment_trace(full_record.source)

    # Identical trace transcripts (openings, assignments, coin flips, duals).
    assert [e.to_dict() for e in resumed_record.trace.events] == [
        e.to_dict() for e in full_record.trace.events
    ]

    # Finalized costs are the state's running totals; they must equal a full
    # recomputation from the frozen solution, exactly.
    assert full_record.source.breakdown == _recomputed_breakdown(full)
    assert resumed_record.source.breakdown == _recomputed_breakdown(resumed)



def _recomputed_breakdown(session: OnlineSession):
    """Every cost re-derived from the frozen solution (the reference path)."""
    state = session.state
    return state.to_solution().cost_breakdown(RequestSequence(state.processed_requests))


def test_harness_covers_every_registered_online_algorithm():
    assert set(ALGORITHMS) == set(REGISTERED_ALGORITHMS.names())


def test_snapshot_restores_from_embedded_spec():
    """A spec-embedded snapshot restores without re-supplying components."""
    spec = {
        "algorithm": "rand-omflp",
        "scenario": {
            "kind": "uniform",
            "num_requests": 12,
            "num_commodities": 4,
            "num_points": 10,
        },
        "seed": 5,
    }
    from repro.api.spec import RunSpec
    from repro.service.snapshot import components_from_spec

    algorithm, instance, generator = components_from_spec(spec)
    requests = RunSpec.from_dict(spec).build_instance().requests
    session = OnlineSession(
        algorithm,
        instance.metric,
        instance.cost_function,
        commodities=instance.commodities,
        rng=generator,
    )
    for request in requests[:5]:
        session.submit(request.point, request.commodities)
    snapshot = SessionSnapshot.from_json(session.snapshot(spec=spec).to_json())

    resumed = OnlineSession.restore(snapshot)
    for request in requests[5:]:
        session.submit(request.point, request.commodities)
        resumed.submit(request.point, request.commodities)
    assert resumed.finalize().total_cost == session.finalize().total_cost


def test_restore_rejects_mismatched_codec_versions():
    session, _ = _session_for("pd-omflp", "grid-l1", 0, True)
    data = session.snapshot().to_dict()
    data["version"] = 999
    with pytest.raises(SnapshotError, match="version"):
        SessionSnapshot.from_dict(data)
    data["version"] = 1
    data["format"] = "something-else"
    with pytest.raises(SnapshotError, match="format"):
        SessionSnapshot.from_dict(data)


def test_restore_requires_components_or_spec():
    session, _ = _session_for("pd-omflp", "grid-l1", 0, True)
    snapshot = session.snapshot()
    with pytest.raises(SnapshotError, match="embedded spec"):
        OnlineSession.restore(snapshot)


def test_snapshot_refuses_finalized_sessions():
    session, instance = _session_for("no-prediction-greedy", "grid-l1", 0, True)
    session.submit(instance.requests[0].point, instance.requests[0].commodities)
    session.finalize()
    with pytest.raises(SnapshotError, match="finalized"):
        session.snapshot()


def test_streaming_scenario_session_resumes_bit_identically():
    """A scenario-backed session snapshot resumes stream *and* algorithm.

    The scenario engine case of this harness: a nested combinator stream
    (mixture of burst + zipf) feeding rand-omflp is snapshotted mid-stream,
    round-tripped through the strict-JSON codec, and the restored
    ScenarioSession must replay the remaining arrivals and costs exactly.
    """
    from repro.scenarios import ScenarioSession

    spec = {
        "algorithm": "rand-omflp",
        "scenario": {
            "kind": "mixture",
            "weights": [2.0, 1.0],
            "children": [
                {"kind": "burst", "num_requests": 24, "num_commodities": 5,
                 "num_points": 16, "num_hotspots": 2, "burst_size_mean": 4.0},
                {"kind": "zipf", "num_requests": 12, "num_commodities": 5,
                 "num_points": 16},
            ],
        },
        "seed": 9,
    }
    reference = ScenarioSession(spec)
    reference_events = reference.advance()
    reference_record = reference.finalize()

    session = ScenarioSession(spec)
    head = session.advance(SPLIT)
    snapshot = SessionSnapshot.from_json(session.snapshot().to_json())
    resumed = ScenarioSession.restore(snapshot)
    assert resumed.position == SPLIT
    tail = resumed.advance()
    assert head + tail == reference_events
    record = resumed.finalize()
    assert record.total_cost == reference_record.total_cost
    assert record.opening_cost == reference_record.opening_cost
    assert record.connection_cost == reference_record.connection_cost
    assert _facility_sequence(record.source) == _facility_sequence(
        reference_record.source
    )
    assert _assignment_trace(record.source) == _assignment_trace(
        reference_record.source
    )


def test_pd_snapshot_refuses_cross_accel_restore():
    """A PD snapshot records which hot path produced it and rejects the other."""
    session, instance = _session_for("pd-omflp", "clustered-euclidean", 0, True)
    for request in instance.requests[:4]:
        session.submit(request.point, request.commodities)
    snapshot = session.snapshot()
    algorithm = PDOMFLPAlgorithm()
    instance2 = _clustered_multi(0)
    algorithm.prepare(instance2, OnlineState(instance2, use_accel=False), None)
    with pytest.raises(SnapshotError, match=r"hot path \(use_accel=True\)"):
        algorithm.load_state_dict(snapshot.algorithm_state)


def test_version_1_snapshot_file_is_rejected(tmp_path):
    """Version-1 files carried the OFL helpers' own facility lists; the codec
    refuses them instead of guessing at the old algorithm-state shapes."""
    session, instance = _session_for("fotakis-ofl", "line-single", 0, True)
    for request in instance.requests[:4]:
        session.submit(request.point, request.commodities)
    path = session.snapshot().save(tmp_path / "old.session.json")
    data = json.loads(path.read_text())
    data["version"] = 1
    path.write_text(json.dumps(data))
    with pytest.raises(SnapshotError, match="unsupported snapshot version 1"):
        SessionSnapshot.load(path)
