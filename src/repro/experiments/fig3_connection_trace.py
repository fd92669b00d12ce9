"""Experiment ``fig3-connection-trace`` — the RAND-OMFLP connection choice (Figure 3).

Figure 3 of the paper illustrates the two ways RAND-OMFLP may connect a
request: to several small facilities (left) or to a single nearby large
facility (right), with each commodity charged a share ``X(r, e)/X(r)`` of the
budget.  This experiment runs RAND-OMFLP with tracing enabled on a small
clustered instance and renders the realized decision per request: how many
distinct facilities it connected to, whether it used a large facility, its
connection cost, and the coin flips that led there.

The traced run is a single engine task returning the per-request rows, the
transcript lines and the cost split in one structured payload; the reduce
step below unpacks it into the experiment table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.algorithms.base import run_online
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.analysis.runner import ExperimentResult
from repro.core.trace import CoinFlipEvent, RequestAssignedEvent
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.scenarios import scenario_from_dict
from repro.utils.rng import RandomState

__all__ = ["run", "build_plan", "EXPERIMENT_ID"]

EXPERIMENT_ID = "fig3-connection-trace"
TITLE = "Figure 3: small-vs-large connection decisions of RAND-OMFLP"


@engine_task("fig3-connection-trace/trace")
def traced_run_case(case: Dict[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """One traced RAND-OMFLP run: per-request decisions plus the transcript."""
    instance = scenario_from_dict(
        {
            "kind": "clustered",
            "num_requests": case["num_requests"],
            "num_commodities": case["num_commodities"],
            "num_clusters": case["num_clusters"],
        }
    ).realize(case["workload_seed"]).instance
    result = run_online(RandOMFLPAlgorithm(), instance, rng=rng, trace=True)

    requests: List[Dict[str, Any]] = []
    lines: List[str] = [
        "Figure 3 (executable): per-request connection decisions of rand-omflp"
    ]
    for request in instance.requests:
        events = result.trace.events_for_request(request.index)
        assigned = [e for e in events if isinstance(e, RequestAssignedEvent)]
        flips = [e for e in events if isinstance(e, CoinFlipEvent)]
        successes = [e for e in flips if e.success]
        if not assigned:
            continue
        assignment_event = assigned[-1]
        requests.append(
            {
                "request": request.index,
                "num_commodities": len(request.commodities),
                "distinct_facilities": len(assignment_event.facility_ids),
                "via_large": assignment_event.via_large,
                "connection_cost": assignment_event.connection_cost,
                "coin_flips": len(flips),
                "facilities_opened": len(successes),
            }
        )
        mode = "single large facility" if assignment_event.via_large else (
            f"{len(assignment_event.facility_ids)} small facility(ies)"
        )
        lines.append(
            f"  request {request.index} ({len(request.commodities)} commodities): "
            f"connected via {mode}, connection cost {assignment_event.connection_cost:.4f}, "
            f"{len(successes)}/{len(flips)} opening coins succeeded"
        )
    return {
        "requests": requests,
        "lines": lines,
        "total_cost": result.total_cost,
        "opening_cost": result.opening_cost,
        "connection_cost": result.connection_cost,
    }


def build_plan(profile: str = "quick", seed: RandomState = 0) -> ExperimentPlan:
    if profile == "quick":
        num_requests, num_commodities, num_clusters = 20, 6, 2
    else:
        num_requests, num_commodities, num_clusters = 80, 12, 4
    case = {
        "num_requests": num_requests,
        "num_commodities": num_commodities,
        "num_clusters": num_clusters,
        "workload_seed": 7,
    }
    return ExperimentPlan(EXPERIMENT_ID, "fig3-connection-trace/trace", [case], seed=seed)


def run(
    profile: str = "quick",
    rng: RandomState = None,
    workers: int = 1,
    store: Optional[ResultStore] = None,
) -> ExperimentResult:
    plan = build_plan(profile, seed=rng)
    outcome = run_plan(plan, workers=workers, store=store)
    payload = outcome.results[0].row
    rows = payload["requests"]

    via_large = sum(1 for row in rows if row["via_large"])
    via_small = len(rows) - via_large
    case = plan.cases[0]
    result_obj = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        parameters={
            "num_requests": case["num_requests"],
            "num_commodities": case["num_commodities"],
            "num_clusters": case["num_clusters"],
            "profile": profile,
        },
        extra_text="\n".join(payload["lines"]),
    )
    both = "both situations of Figure 3 occur" if via_large and via_small else (
        "this run realized the right-hand (large facility) situation of Figure 3"
        if via_large
        else "this run realized the left-hand (small facilities) situation of Figure 3"
    )
    result_obj.notes.append(
        f"{via_large}/{len(rows)} requests connected through a single large facility, "
        f"{via_small}/{len(rows)} through per-commodity small facilities — {both}"
    )
    result_obj.notes.append(
        f"rand-omflp total cost {payload['total_cost']:.4f} "
        f"(opening {payload['opening_cost']:.4f}, connection {payload['connection_cost']:.4f})"
    )
    result_obj.require_rows()
    return result_obj
