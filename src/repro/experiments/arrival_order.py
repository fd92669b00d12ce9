"""Experiment ``arrival-order`` — adversarial vs random arrival order.

Section 1.2 of the paper recalls that Meyerson's algorithm performs much
better when the adversary does not fully control the arrival order (constant
competitive for random order), and that gradually weakening the adversary
interpolates between the regimes (Lang 2018).  This experiment takes fixed
request multisets (realized ``clustered`` scenarios), presents them to
PD-OMFLP and RAND-OMFLP in (a) the heuristic adversarial order of the
``arrival-order`` scenario's ``sparse-first`` (sparse demands first, far
locations first) and (b) uniformly random order, and reports the cost ratio
between the two orders per algorithm.

Expected shape: the random order is never worse on average and usually
cheaper, with the randomized algorithm benefiting at least as much as the
deterministic one.  One engine case per ``(workload, algorithm)`` pair; the
shuffled-order replicas use fixed order seeds so the request multiset
comparison stays paired across algorithms.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.algorithms.base import run_online
from repro.analysis.runner import ExperimentResult
from repro.api.components import ALGORITHMS
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.scenarios import scenario_from_dict
from repro.scenarios.combinators import sparse_first_order
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["run", "build_plan", "EXPERIMENT_ID"]

EXPERIMENT_ID = "arrival-order"
TITLE = "Section 1.2: adversarial vs random arrival order on identical request multisets"

ALGORITHM_NAMES = ("pd-omflp", "rand-omflp")


@engine_task("arrival-order/comparison")
def order_comparison_case(case: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """Adversarial-order vs random-order mean cost for one algorithm."""
    base_instance = scenario_from_dict(
        {
            "kind": "clustered",
            "num_requests": case["num_requests"],
            "num_commodities": case["num_commodities"],
            "num_clusters": max(2, case["num_commodities"] // 4),
        }
    ).realize(case["seed"]).instance
    adversarial = base_instance.reordered(
        sparse_first_order(
            base_instance.metric,
            [(r.point, r.commodities) for r in base_instance.requests],
        )
    )
    algorithm_name = case["algorithm"]
    repeats = case["repeats"]
    randomized = ALGORITHMS.build(algorithm_name).randomized
    runs = repeats if randomized else 1
    adversarial_costs = [
        run_online(ALGORITHMS.build(algorithm_name), adversarial, rng=rng).total_cost
        for _ in range(runs)
    ]
    random_costs = []
    # Fixed shuffle seed: every algorithm sees the same random orders.
    shuffles = ensure_rng(1000)
    for _ in range(max(runs, repeats)):
        shuffled = base_instance.reordered(shuffles.permutation(base_instance.num_requests))
        random_costs.append(
            run_online(ALGORITHMS.build(algorithm_name), shuffled, rng=rng).total_cost
        )
    adversarial_mean = float(np.mean(adversarial_costs))
    random_mean = float(np.mean(random_costs))
    return {
        "num_requests": case["num_requests"],
        "num_commodities": case["num_commodities"],
        "seed": case["seed"],
        "algorithm": algorithm_name,
        "adversarial_order_cost": adversarial_mean,
        "random_order_cost": random_mean,
        "adversarial_over_random": adversarial_mean / random_mean
        if random_mean > 0
        else float("inf"),
    }


def _profile(profile: str) -> Dict[str, Any]:
    if profile == "quick":
        return {"cases": [(40, 8, 0), (40, 8, 1)], "repeats": 3}
    return {
        "cases": [
            (n, s, seed) for (n, s) in [(100, 8), (200, 16), (400, 16)] for seed in range(3)
        ],
        "repeats": 7,
    }


def build_plan(profile: str = "quick", seed: RandomState = 0) -> ExperimentPlan:
    settings = _profile(profile)
    cases: List[Dict[str, Any]] = [
        {
            "num_requests": num_requests,
            "num_commodities": num_commodities,
            "seed": workload_seed,
            "algorithm": name,
            "repeats": settings["repeats"],
        }
        for (num_requests, num_commodities, workload_seed) in settings["cases"]
        for name in ALGORITHM_NAMES
    ]
    return ExperimentPlan(EXPERIMENT_ID, "arrival-order/comparison", cases, seed=seed)


def run(
    profile: str = "quick",
    rng: RandomState = None,
    workers: int = 1,
    store: Optional[ResultStore] = None,
) -> ExperimentResult:
    settings = _profile(profile)
    plan = build_plan(profile, seed=rng)
    outcome = run_plan(plan, workers=workers, store=store)
    result = ExperimentResult.from_plan_result(
        EXPERIMENT_ID,
        TITLE,
        outcome,
        parameters={"cases": settings["cases"], "repeats": settings["repeats"], "profile": profile},
    )
    for name in ALGORITHM_NAMES:
        factors = [
            r["adversarial_over_random"] for r in result.rows if r["algorithm"] == name
        ]
        result.notes.append(
            f"{name}: adversarial-order cost / random-order cost = {float(np.mean(factors)):.3f} "
            "on average (>= 1 means the random order helps, matching the weakened-adversary "
            "results cited in Section 1.2)"
        )
    result.require_rows()
    return result
