#!/usr/bin/env python3
"""Declarative runs and streaming sessions with the ``repro.api`` facade.

Three escalating uses of the unified API layer:

1. a scenario defined purely as a dict (no ``repro`` class imports needed for
   the scenario itself) executed via ``run``;
2. the same environment served as an *online stream* through
   ``OnlineSession`` — requests arrive one at a time, each answered with an
   irrevocable assignment and its incremental cost;
3. a seeded comparison grid over algorithms and workload sizes via
   ``run_grid``, tabulated with the experiment machinery.

Run with::

    python examples/declarative_run.py
"""

from __future__ import annotations

from repro import OnlineSession, RunSpec, run, run_grid
from repro.analysis.runner import ExperimentResult
from repro.analysis.sweep import ParameterGrid
from repro.api.components import ALGORITHMS, COSTS, METRICS


SCENARIO = {
    "algorithm": "pd-omflp",
    "metric": {"kind": "uniform-line", "num_points": 8, "length": 4.0},
    "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
    "requests": [
        [1, [0, 1]],        # a client near the left asks for services 0 and 1
        [6, [2]],           # a client near the right asks for service 2
        [2, [0, 3]],
        [1, [0, 1, 2, 3]],  # a client wants everything
        [7, [1]],
        [5, [2, 3]],
    ],
    "seed": 0,
    "name": "declarative-quickstart",
}


def declarative_run() -> None:
    print("=== 1. scenario as a plain dict ===")
    record = run(RunSpec.from_dict(SCENARIO))
    print(f"algorithm: {record.algorithm}   instance: {record.instance_name}")
    print(
        f"total cost {record.total_cost:.4f} "
        f"(opening {record.opening_cost:.4f} + connection {record.connection_cost:.4f}), "
        f"{record.num_facilities} facilities"
    )
    print()


def streaming_session() -> None:
    print("=== 2. the same environment as an online stream ===")
    metric = METRICS.build("uniform-line", num_points=8, length=4.0)
    cost = COSTS.build("power", num_commodities=4, exponent_x=1.0)
    session = OnlineSession(ALGORITHMS.build("pd-omflp"), metric, cost)
    for point, commodities in [(1, {0, 1}), (6, {2}), (2, {0, 3}), (1, {0, 1, 2, 3})]:
        event = session.submit(point, commodities)
        print(
            f"request {event.request_index} at point {event.point} "
            f"-> facilities {list(event.facility_ids)}, "
            f"+{event.cost_delta:.4f} (running total {event.total_cost_so_far:.4f})"
        )
    record = session.finalize()
    print(f"finalized: total cost {record.total_cost:.4f} over {record.num_requests} requests")
    print()


def comparison_grid() -> None:
    print("=== 3. seeded comparison grid ===")
    base = {
        "algorithm": "pd-omflp",
        "scenario": {"kind": "uniform", "num_requests": 40, "num_commodities": 8},
        "seed": 0,
    }
    records = run_grid(
        base,
        ParameterGrid(
            {
                "algorithm.kind": ["pd-omflp", "rand-omflp", "per-commodity-fotakis"],
                "seed": [0, 1, 2],
            }
        ),
    )
    result = ExperimentResult.from_records(
        "api-demo-grid", "uniform workload, three algorithms x three seeds", records
    )
    print(result.to_table(columns=["algorithm", "seed", "total_cost", "num_facilities"]))


def main() -> None:
    declarative_run()
    streaming_session()
    comparison_grid()


if __name__ == "__main__":
    main()
