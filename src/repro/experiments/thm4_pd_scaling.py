"""Experiment ``thm4-pd-scaling`` — PD-OMFLP is O(√|S| · log n)-competitive.

Two sweeps on clustered workloads (the structure OPT exploits):

* **n-sweep** — fix ``|S|`` and grow the number of requests; Theorem 4
  predicts the ratio to grow at most logarithmically in ``n``.  The experiment
  fits ``ratio = a + b log n`` and reports the slope and fit quality.
* **S-sweep** — fix ``n`` and grow ``|S|``; Theorem 4 predicts growth at most
  like ``sqrt(|S|)``.  The experiment fits a power law ``ratio ∝ |S|^b`` and
  reports the exponent (expected ≲ 0.5; on benign workloads it is typically
  much smaller, the bound being a worst-case guarantee).

Offline reference: exact brute force where affordable, otherwise the best of
the planted, greedy and local-search solutions (an upper bound on OPT, so the
reported ratios are conservative over-estimates — see DESIGN.md §1).

The sweep cells are declared through :func:`scaling_cases` (shared with the
Theorem-19 experiment) and executed as one engine plan — one
``(sweep, size, workload seed)`` cell per task.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.competitive import measure_competitive_ratio, reference_cost
from repro.analysis.regression import fit_log_growth, fit_power_law
from repro.analysis.runner import ExperimentResult
from repro.api.components import ALGORITHMS
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.scenarios import scenario_from_dict
from repro.utils.rng import RandomState

__all__ = ["run", "build_plan", "EXPERIMENT_ID", "scaling_cases", "append_scaling_notes"]

EXPERIMENT_ID = "thm4-pd-scaling"
TITLE = "Theorem 4: PD-OMFLP competitive-ratio scaling in n and |S|"


@engine_task("omflp/scaling-cell")
def scaling_cell(case: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """Measure one sweep cell: a clustered workload against one algorithm.

    Shared by the Theorem-4 (PD) and Theorem-19 (RAND) experiments; the case
    names the algorithm by registry key, so the cell is plain data.
    """
    num_requests = case["num_requests"]
    num_commodities = case["num_commodities"]
    workload = scenario_from_dict(
        {
            "kind": "clustered",
            "num_requests": num_requests,
            "num_commodities": num_commodities,
            "num_clusters": max(2, num_commodities // 4),
        }
    ).realize(case["workload_seed"])
    reference = reference_cost(workload, local_search_iterations=0)
    measurement = measure_competitive_ratio(
        ALGORITHMS.build(case["algorithm"]),
        workload,
        reference=reference,
        repeats=case.get("repeats", 1),
        rng=rng,
    )
    return {
        "sweep": case["sweep"],
        "num_requests": num_requests,
        "num_commodities": num_commodities,
        "seed": case["seed"],
        "algorithm": measurement.algorithm,
        "cost": measurement.mean_cost,
        "reference_cost": reference.value,
        "reference_kind": reference.kind,
        "ratio": measurement.ratio,
    }


def scaling_cases(
    algorithm: str,
    *,
    n_sweep: List[int],
    s_sweep: List[int],
    fixed_s: int,
    fixed_n: int,
    seeds: List[int],
    repeats: int = 1,
) -> List[Dict[str, Any]]:
    """The declarative n-sweep + S-sweep case grid (also used by Theorem 19).

    The S-sweep offsets its workload seeds by 1000 so the two sweeps never
    share instances (the convention of the original hand-rolled loops).
    """
    cases: List[Dict[str, Any]] = []
    for n in n_sweep:
        for seed in seeds:
            cases.append(
                {
                    "sweep": "n",
                    "num_requests": n,
                    "num_commodities": fixed_s,
                    "seed": seed,
                    "workload_seed": seed,
                    "algorithm": algorithm,
                    "repeats": repeats,
                }
            )
    for s in s_sweep:
        for seed in seeds:
            cases.append(
                {
                    "sweep": "S",
                    "num_requests": fixed_n,
                    "num_commodities": s,
                    "seed": seed,
                    "workload_seed": seed + 1000,
                    "algorithm": algorithm,
                    "repeats": repeats,
                }
            )
    return cases


def _mean_ratio_by(rows: List[dict], sweep: str, key: str) -> Dict[int, float]:
    grouped: Dict[int, List[float]] = {}
    for row in rows:
        if row["sweep"] != sweep:
            continue
        grouped.setdefault(row[key], []).append(row["ratio"])
    return {value: sum(r) / len(r) for value, r in sorted(grouped.items())}


def append_scaling_notes(result: ExperimentResult, rows: List[dict], algorithm: str) -> None:
    """Fit and record the n-growth slope and the |S|-growth exponent."""
    n_means = _mean_ratio_by(rows, "n", "num_requests")
    s_means = _mean_ratio_by(rows, "S", "num_commodities")
    if len(n_means) >= 2:
        fit = fit_log_growth(list(n_means.keys()), list(n_means.values()))
        result.notes.append(
            f"{algorithm}: ratio vs n fits {fit.intercept:.2f} + {fit.slope:.3f} log n "
            f"(R^2 = {fit.r_squared:.2f}); Theorem 4/19 allow at most logarithmic growth"
        )
    if len(s_means) >= 2 and all(v > 0 for v in s_means.values()):
        fit = fit_power_law(list(s_means.keys()), list(s_means.values()))
        result.notes.append(
            f"{algorithm}: ratio vs |S| grows like |S|^{fit.exponent:.3f} "
            f"(R^2 = {fit.r_squared:.2f}); the upper bound allows exponent 0.5"
        )


def _profile(profile: str) -> Dict[str, Any]:
    if profile == "quick":
        return {
            "n_sweep": [20, 40, 80],
            "s_sweep": [4, 8, 16],
            "fixed_s": 8,
            "fixed_n": 40,
            "seeds": [0, 1],
        }
    return {
        "n_sweep": [50, 100, 200, 400, 800],
        "s_sweep": [4, 8, 16, 32, 64],
        "fixed_s": 16,
        "fixed_n": 200,
        "seeds": [0, 1, 2, 3, 4],
    }


def build_plan(profile: str = "quick", seed: RandomState = 0) -> ExperimentPlan:
    sizes = _profile(profile)
    cases = scaling_cases("pd-omflp", **sizes)
    return ExperimentPlan(EXPERIMENT_ID, "omflp/scaling-cell", cases, seed=seed)


def run(
    profile: str = "quick",
    rng: RandomState = None,
    workers: int = 1,
    store: Optional[ResultStore] = None,
) -> ExperimentResult:
    sizes = _profile(profile)
    plan = build_plan(profile, seed=rng)
    outcome = run_plan(plan, workers=workers, store=store)
    result = ExperimentResult.from_plan_result(
        EXPERIMENT_ID,
        TITLE,
        outcome,
        parameters={**sizes, "profile": profile},
    )
    append_scaling_notes(result, result.rows, "pd-omflp")
    result.require_rows()
    return result
