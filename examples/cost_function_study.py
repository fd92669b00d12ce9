#!/usr/bin/env python3
"""Study how the construction-cost function shapes the problem (Theorem 18).

Section 3.3 of the paper parametrizes the facility cost as
``g_x(|σ|) = |σ|^{x/2}`` for ``x ∈ [0, 2]``:

* ``x = 0`` — constant cost: one facility can serve everything, prediction is
  trivial, the problem behaves like classical online facility location;
* ``x = 2`` — linear cost: bundling buys nothing, the problem decomposes per
  commodity;
* in between (worst around ``x = 1``) the algorithm must balance small and
  large facilities, and the competitive ratio picks up a ``|S|``-dependent
  factor that peaks at ``|S|^{1/4}`` (Figure 2).

This example sweeps ``x`` on a clustered workload and on the single-point
adversary, reporting for each algorithm the measured ratio, how many large
facilities it opened, and the predicted upper/lower bound factors.

Run with::

    python examples/cost_function_study.py
"""

from __future__ import annotations

import math

from repro import PDOMFLPAlgorithm, PowerCost, RandOMFLPAlgorithm, run_online
from repro.analysis import format_table, measure_competitive_ratio, reference_cost
from repro.lowerbound import predicted_adaptive_ratio, run_single_point_game
from repro.scenarios import scenario_from_dict


def main() -> None:
    num_commodities = 16
    exponents = [0.0, 0.5, 1.0, 1.5, 2.0]

    # ----- single-point adversary side (lower bound of Theorem 18) ------------
    adversary_rows = []
    for x in exponents:
        cost = PowerCost(num_commodities, x)
        for factory in (PDOMFLPAlgorithm, RandOMFLPAlgorithm):
            game = run_single_point_game(
                factory(), num_commodities, cost_function=cost, repeats=5, rng=0
            )
            adversary_rows.append(
                {
                    "x": x,
                    "algorithm": game.algorithm,
                    "ratio": game.ratio,
                    "predicted lower bound": predicted_adaptive_ratio(num_commodities, x),
                    "predicted upper factor": math.sqrt(num_commodities)
                    ** cost.predicted_upper_exponent(),
                }
            )
    print(
        format_table(
            adversary_rows,
            title=f"Theorem 18, adversary side (single point, |S| = {num_commodities})",
        )
    )
    print()

    # ----- workload side (how behaviour changes with x) -----------------------
    workload_rows = []
    for x in exponents:
        workload = scenario_from_dict(
            {
                "kind": "clustered",
                "num_requests": 60,
                "num_commodities": num_commodities,
                "num_clusters": 4,
                "cost_exponent_x": x,
            }
        ).realize(1)
        reference = reference_cost(workload, local_search_iterations=2)
        for factory in (PDOMFLPAlgorithm, RandOMFLPAlgorithm):
            algorithm = factory()
            measurement = measure_competitive_ratio(
                algorithm, workload, reference=reference, rng=2
            )
            result = run_online(factory(), workload.instance, rng=2)
            workload_rows.append(
                {
                    "x": x,
                    "algorithm": algorithm.name,
                    "ratio vs reference": measurement.ratio,
                    "facilities": result.solution.num_facilities(),
                    "large facilities": result.solution.num_large_facilities(),
                }
            )
    print(format_table(workload_rows, title="Theorem 18, workload side (clustered requests)"))
    print()
    print("Reading the tables: as x grows towards 2 the algorithms stop opening large")
    print("facilities (bundling buys nothing under linear costs); as x shrinks towards 0")
    print("a single large facility per cluster dominates.  The adversary's power — and the")
    print("gap between the predicted lower and upper factors — is largest around x = 1,")
    print("exactly the shape Figure 2 of the paper plots.")


if __name__ == "__main__":
    main()
