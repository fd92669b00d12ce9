#!/usr/bin/env python3
"""The introduction's scenario: online service placement in a network.

A provider operates a network (a random connected graph); clients appear over
time at network nodes and request bundles of services ("profiles" such as a
web stack or an analytics stack).  Instantiating several services in one
virtual machine is cheaper than instantiating them separately (a concave
cost of the bundled size, scaled per node), and a client served several
services by one nearby node pays the network path only once — exactly the
OMFLP model of the paper.

The example compares, on the same online request sequence:

* PD-OMFLP (the paper's deterministic algorithm),
* RAND-OMFLP (the paper's randomized algorithm),
* the per-commodity decomposition baseline (one independent online facility
  location per service, Section 1.3), and
* the no-prediction greedy,

against the best offline reference the library can compute, and prints where
each algorithm instantiated which services.

Run with::

    python examples/service_placement.py
"""

from __future__ import annotations

from repro import (
    NoPredictionGreedy,
    PDOMFLPAlgorithm,
    PerCommodityAlgorithm,
    RandOMFLPAlgorithm,
    run_online,
)
from repro.analysis import format_table, measure_competitive_ratio, reference_cost
from repro.scenarios import scenario_from_dict


def main() -> None:
    workload = scenario_from_dict(
        {
            "kind": "service-network",
            "num_requests": 80,
            "num_services": 10,
            "num_nodes": 30,
            "num_profiles": 4,
            "profile_size": 3,
            "zipf_alpha": 1.2,
        }
    ).realize(42)
    instance = workload.instance
    print(f"workload: {workload.describe()}")
    print()

    reference = reference_cost(workload, local_search_iterations=3)
    print(f"offline reference ({reference.solver}, {reference.kind}): {reference.value:.4f}")
    print()

    algorithms = [
        PDOMFLPAlgorithm(),
        RandOMFLPAlgorithm(),
        PerCommodityAlgorithm("fotakis"),
        NoPredictionGreedy(),
    ]
    rows = []
    placements = {}
    for algorithm in algorithms:
        measurement = measure_competitive_ratio(
            algorithm, workload, reference=reference, rng=7
        )
        result = run_online(algorithm, instance, rng=7)
        rows.append(
            {
                "algorithm": algorithm.name,
                "total_cost": measurement.mean_cost,
                "ratio_vs_reference": measurement.ratio,
                "facilities": result.solution.num_facilities(),
                "full_service_vms": result.solution.num_large_facilities(),
            }
        )
        placements[algorithm.name] = result.solution

    print(format_table(rows, title="online service placement on a 30-node network"))
    print()

    pd_solution = placements["pd-omflp"]
    print("PD-OMFLP placement (which services were instantiated where):")
    for facility in pd_solution.facilities:
        services = (
            "ALL services"
            if len(facility.configuration) == instance.num_commodities
            else ", ".join(instance.commodities.name_of(s) for s in sorted(facility.configuration))
        )
        print(f"  node {facility.point:>3}: {services}  (set-up cost {facility.opening_cost:.3f})")
    print()
    print("Takeaway: the per-commodity baseline instantiates every service separately and")
    print("pays for it; PD-OMFLP and RAND-OMFLP consolidate popular bundles into shared")
    print("(sometimes full-service) VMs close to the demand, as the paper's analysis promises.")


if __name__ == "__main__":
    main()
