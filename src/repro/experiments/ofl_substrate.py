"""Experiment ``fotakis-ofl-regression`` — sanity of the single-commodity substrates.

The paper's algorithms are built on Fotakis' deterministic primal–dual OFL and
Meyerson's randomized OFL (Section 1.2).  Before trusting the multi-commodity
results, this experiment checks that the two substrates behave as their own
theory predicts on classical single-commodity workloads: the ratio against an
offline reference stays small and grows at most logarithmically with ``n``
(O(log n) for Fotakis' simple algorithm, O(log n / log log n) for Meyerson
against adversarial order and O(1) for random order).

One engine case per ``(n, seed)`` workload; both substrates run inside the
task against a single shared offline reference.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.competitive import measure_competitive_ratio, reference_cost
from repro.analysis.regression import fit_log_growth
from repro.analysis.runner import ExperimentResult
from repro.api.components import ALGORITHMS
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.scenarios import scenario_from_dict
from repro.utils.rng import RandomState

__all__ = ["run", "build_plan", "EXPERIMENT_ID"]

EXPERIMENT_ID = "fotakis-ofl-regression"
TITLE = "Substrate sanity: Fotakis / Meyerson online facility location (|S| = 1)"

ALGORITHM_NAMES = ("fotakis-ofl", "meyerson-ofl")


@engine_task("fotakis-ofl-regression/workload")
def substrate_case(case: Dict[str, Any], rng: np.random.Generator) -> List[Dict[str, Any]]:
    """Both substrates on one single-commodity workload, shared reference."""
    workload = scenario_from_dict(
        {
            "kind": "uniform",
            "num_requests": case["num_requests"],
            "num_commodities": 1,
            "num_points": 32,
            "metric_kind": "line",
            "max_demand": 1,
            "cost_exponent_x": 0.0,
            "cost_scale": 0.25,
        }
    ).realize(case["seed"])
    reference = reference_cost(workload, local_search_iterations=5)
    rows: List[Dict[str, Any]] = []
    for name in case["algorithms"]:
        repeat_count = case["repeats"] if name == "meyerson-ofl" else 1
        measurement = measure_competitive_ratio(
            ALGORITHMS.build(name),
            workload,
            reference=reference,
            repeats=repeat_count,
            rng=rng,
        )
        rows.append(
            {
                "num_requests": case["num_requests"],
                "seed": case["seed"],
                "algorithm": name,
                "cost": measurement.mean_cost,
                "reference_cost": reference.value,
                "reference_kind": reference.kind,
                "ratio": measurement.ratio,
            }
        )
    return rows


def _profile(profile: str) -> Dict[str, Any]:
    if profile == "quick":
        return {"n_sweep": [20, 40, 80], "seeds": [0, 1], "repeats": 3}
    return {"n_sweep": [50, 100, 200, 400, 800, 1600], "seeds": [0, 1, 2, 3], "repeats": 7}


def build_plan(profile: str = "quick", seed: RandomState = 0) -> ExperimentPlan:
    settings = _profile(profile)
    cases: List[Dict[str, Any]] = [
        {
            "num_requests": n,
            "seed": workload_seed,
            "algorithms": list(ALGORITHM_NAMES),
            "repeats": settings["repeats"],
        }
        for n in settings["n_sweep"]
        for workload_seed in settings["seeds"]
    ]
    return ExperimentPlan(EXPERIMENT_ID, "fotakis-ofl-regression/workload", cases, seed=seed)


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
        parameters={**settings, "profile": profile},
    )
    ratios: Dict[str, Dict[int, List[float]]] = {name: {} for name in ALGORITHM_NAMES}
    for row in result.rows:
        ratios[row["algorithm"]].setdefault(row["num_requests"], []).append(row["ratio"])
    for name, series in ratios.items():
        ns = sorted(series)
        means = [sum(series[n]) / len(series[n]) for n in ns]
        fit = fit_log_growth(ns, means)
        result.notes.append(
            f"{name}: ratio vs n fits {fit.intercept:.2f} + {fit.slope:.3f} log n "
            f"(R^2 = {fit.r_squared:.2f}); both substrates admit O(log n)-type guarantees"
        )
    result.require_rows()
    return result
