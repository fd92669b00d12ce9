"""Experiment ``duality-certificates`` — the primal–dual analysis machinery, measured.

Section 3.2 of the paper rests on two executable facts about PD-OMFLP:

* **Corollary 8** — the algorithm's total (primal) cost is at most three times
  the sum of the dual variables it raised;
* **Corollary 17** — scaling the duals by ``γ = 1/(5 √|S|  H_n)`` yields a
  feasible dual solution, so by weak duality ``Σ a_{re} ≤ 5 √|S| H_n · OPT``
  and PD-OMFLP is ``15 √|S| H_n``-competitive (Theorem 4).

This experiment runs PD-OMFLP on random instances, verifies both facts,
reports the *empirically* largest feasible dual scaling (how loose the paper's
γ is in practice) and compares the resulting weak-duality lower bound on OPT
with the LP-relaxation bound and the exact optimum where affordable.  Each
instance is one engine case, executed and certified independently.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.algorithms.base import run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.analysis.runner import ExperimentResult
from repro.dual.bounds import paper_scaling_factor
from repro.dual.feasibility import check_dual_feasibility, max_feasible_scale
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.exceptions import AlgorithmError
from repro.scenarios import scenario_from_dict
from repro.utils.rng import RandomState

__all__ = ["run", "build_plan", "EXPERIMENT_ID"]

EXPERIMENT_ID = "duality-certificates"
TITLE = "Corollaries 8 & 17: primal <= 3*duals and gamma-scaled dual feasibility"


@engine_task("duality-certificates/instance")
def certificate_case(case: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """Run PD-OMFLP on one random instance and verify both corollaries."""
    instance = scenario_from_dict(
        {
            "kind": "uniform",
            "num_requests": case["num_requests"],
            "num_commodities": case["num_commodities"],
            "num_points": case["num_points"],
            "max_demand": min(case["num_commodities"], 3),
        }
    ).realize(case["seed"]).instance
    result = run_online(PDOMFLPAlgorithm(), instance, rng=rng)
    duals = result.duals
    dual_sum = duals.total()
    gamma = paper_scaling_factor(instance.num_commodities, instance.num_requests)
    report = check_dual_feasibility(instance, duals, scale=gamma, rng=rng)
    empirical_scale = max_feasible_scale(instance, duals, rng=rng)
    weak_duality_bound = empirical_scale * dual_sum

    try:
        opt = BruteForceSolver(max_combinations=40_000).solve(instance).total_cost
    except AlgorithmError:
        opt = float("nan")

    return {
        "num_requests": instance.num_requests,
        "num_commodities": instance.num_commodities,
        "num_points": instance.num_points,
        "primal_cost": result.total_cost,
        "dual_sum": dual_sum,
        "primal_over_duals": result.total_cost / dual_sum if dual_sum > 0 else 0.0,
        "gamma": gamma,
        "gamma_feasible": report.feasible,
        "max_feasible_scale": empirical_scale,
        "weak_duality_lower_bound": weak_duality_bound,
        "exact_opt": opt,
    }


def _cases(profile: str) -> List[Dict[str, Any]]:
    if profile == "quick":
        return [
            {"num_requests": 12, "num_commodities": 3, "num_points": 5, "seed": 0},
            {"num_requests": 16, "num_commodities": 4, "num_points": 6, "seed": 1},
            {"num_requests": 24, "num_commodities": 5, "num_points": 8, "seed": 2},
        ]
    return (
        [
            {"num_requests": 20, "num_commodities": 4, "num_points": 6, "seed": s}
            for s in range(3)
        ]
        + [
            {"num_requests": 60, "num_commodities": 8, "num_points": 16, "seed": s}
            for s in range(3)
        ]
        + [
            {"num_requests": 150, "num_commodities": 10, "num_points": 32, "seed": s}
            for s in range(2)
        ]
    )


def build_plan(profile: str = "quick", seed: RandomState = 0) -> ExperimentPlan:
    return ExperimentPlan(
        EXPERIMENT_ID, "duality-certificates/instance", _cases(profile), seed=seed
    )


def run(
    profile: str = "quick",
    rng: RandomState = None,
    workers: int = 1,
    store: Optional[ResultStore] = None,
) -> ExperimentResult:
    plan = build_plan(profile, seed=rng)
    outcome = run_plan(plan, workers=workers, store=store)
    result = ExperimentResult.from_plan_result(
        EXPERIMENT_ID,
        TITLE,
        outcome,
        parameters={"cases": _cases(profile), "profile": profile},
    )
    rows = result.rows
    worst_primal_ratio = max(row["primal_over_duals"] for row in rows)
    result.notes.append(
        f"Corollary 8 check: max primal/duals over all cases = {worst_primal_ratio:.3f} (bound: 3)"
    )
    all_feasible = all(row["gamma_feasible"] for row in rows)
    result.notes.append(
        f"Corollary 17 check: gamma-scaled duals feasible in all cases: {all_feasible}"
    )
    slack = [row["max_feasible_scale"] / row["gamma"] for row in rows if row["gamma"] > 0]
    if slack:
        result.notes.append(
            "empirical max feasible scale exceeds the paper's gamma by factors "
            f"{min(slack):.1f}x – {max(slack):.1f}x (the analysis is conservative, as expected)"
        )
    result.require_rows()
    return result
