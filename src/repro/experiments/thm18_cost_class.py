"""Experiment ``thm18-cost-class`` — bounds under the cost class C (Theorem 18).

For ``g_x(|σ|) = |σ|^{x/2}`` the paper proves

* upper bound for PD-OMFLP: ``O(sqrt(|S|)^{(2x - x^2)/2} · log n)``,
* lower bound for every algorithm: ``Ω(min{sqrt(|S|)^{(2-x)/2}, sqrt(|S|)^{x/2}})``,

with the two coinciding (in the |S|-dependent part) at ``x ∈ {0, 1, 2}``.  The
experiment sweeps ``x``, runs the single-point adversary with ``g_x`` (the
Theorem-18 lower-bound instance) against PD-OMFLP, RAND-OMFLP and the
no-prediction baseline, and tabulates measured ratios next to the predicted
lower- and upper-bound values; a second set of rows measures the same
algorithms on clustered workloads with ``g_x`` costs (the upper-bound side).

Two engine task kinds share one plan: ``adversary`` cases (one per
``(x, algorithm)``) and ``workload`` cases (one per ``(x, seed)``, emitting
one row per algorithm so the offline reference is computed once per
workload).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.competitive import measure_competitive_ratio, reference_cost
from repro.analysis.runner import ExperimentResult
from repro.api.components import ALGORITHMS
from repro.costs.count_based import PowerCost
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.lowerbound.adaptive import predicted_adaptive_ratio
from repro.lowerbound.single_point import run_single_point_game
from repro.scenarios import scenario_from_dict
from repro.utils.rng import RandomState

__all__ = ["run", "build_plan", "EXPERIMENT_ID"]

EXPERIMENT_ID = "thm18-cost-class"
TITLE = "Theorem 18: competitive ratios under g_x(|sigma|) = |sigma|^(x/2)"

ALGORITHM_NAMES = ("pd-omflp", "rand-omflp", "no-prediction-greedy")


@engine_task("thm18-cost-class/adversary")
def adversary_case(case: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """The single-point adversary with the ``g_x`` cost, one algorithm."""
    x = float(case["x"])
    num_commodities = case["num_commodities"]
    cost = PowerCost(num_commodities, x)
    root = math.sqrt(num_commodities)
    game = run_single_point_game(
        ALGORITHMS.build(case["algorithm"]),
        num_commodities,
        cost_function=cost,
        repeats=case["repeats"],
        rng=rng,
    )
    return {
        "side": "adversary",
        "x": x,
        "num_commodities": num_commodities,
        "algorithm": case["algorithm"],
        "ratio": game.ratio,
        "predicted_lower": predicted_adaptive_ratio(num_commodities, x),
        "predicted_upper_x_logn": root ** cost.predicted_upper_exponent(),
        "tuned_threshold": cost.tuned_threshold(),
    }


@engine_task("thm18-cost-class/workload")
def workload_case(case: Dict[str, Any], rng: np.random.Generator) -> List[Dict[str, Any]]:
    """Clustered ``g_x``-cost workload; one row per algorithm, shared reference."""
    x = float(case["x"])
    num_commodities = case["num_commodities"]
    workload = scenario_from_dict(
        {
            "kind": "clustered",
            "num_requests": case["num_requests"],
            "num_commodities": num_commodities,
            "num_clusters": 4,
            "cost_exponent_x": x,
        }
    ).realize(case["workload_seed"])
    reference = reference_cost(workload, local_search_iterations=0)
    predicted_upper = math.sqrt(num_commodities) ** PowerCost(
        num_commodities, x
    ).predicted_upper_exponent()
    rows: List[Dict[str, Any]] = []
    for name in case["algorithms"]:
        measurement = measure_competitive_ratio(
            ALGORITHMS.build(name), workload, reference=reference, rng=rng
        )
        rows.append(
            {
                "side": "workload",
                "x": x,
                "num_commodities": num_commodities,
                "algorithm": name,
                "ratio": measurement.ratio,
                "predicted_lower": predicted_adaptive_ratio(num_commodities, x),
                "predicted_upper_x_logn": predicted_upper,
                "tuned_threshold": PowerCost(num_commodities, x).tuned_threshold(),
            }
        )
    return rows


def _profile(profile: str) -> Dict[str, Any]:
    if profile == "quick":
        return {
            "exponents": [0.0, 1.0, 2.0],
            "num_commodities": 64,
            "repeats": 3,
            "upper_n": 40,
            "upper_seeds": [0],
        }
    return {
        "exponents": [0.0, 0.5, 1.0, 1.5, 2.0],
        "num_commodities": 1024,
        "repeats": 10,
        "upper_n": 200,
        "upper_seeds": [0, 1, 2],
    }


def build_plan(profile: str = "quick", seed: RandomState = 0) -> ExperimentPlan:
    settings = _profile(profile)
    workload_commodities = min(settings["num_commodities"], 16)
    cases: List[Dict[str, Any]] = []
    for x in settings["exponents"]:
        for name in ALGORITHM_NAMES:
            cases.append(
                {
                    "task": "thm18-cost-class/adversary",
                    "x": x,
                    "num_commodities": settings["num_commodities"],
                    "algorithm": name,
                    "repeats": settings["repeats"],
                }
            )
        for workload_seed in settings["upper_seeds"]:
            cases.append(
                {
                    "task": "thm18-cost-class/workload",
                    "x": x,
                    "num_commodities": workload_commodities,
                    "num_requests": settings["upper_n"],
                    "workload_seed": workload_seed,
                    "algorithms": list(ALGORITHM_NAMES),
                }
            )
    return ExperimentPlan(EXPERIMENT_ID, "thm18-cost-class/adversary", cases, seed=seed)


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
        parameters={
            "exponents": settings["exponents"],
            "num_commodities": settings["num_commodities"],
            "repeats": settings["repeats"],
            "profile": profile,
        },
    )
    result.notes.append(
        "at x = 2 (linear costs) prediction is useless and all algorithms should be close to the "
        "per-commodity behaviour (|S|-independent ratio); at x = 0 (constant costs) a single large "
        "facility dominates; the adversary ratios should peak around x = 1 as in Figure 2"
    )
    result.require_rows()
    return result
