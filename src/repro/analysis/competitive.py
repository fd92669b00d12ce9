"""Competitive-ratio measurement (Definition 1 of the paper).

The competitive ratio compares the online algorithm's cost against the
optimal offline cost.  Exact OPT is only available for tiny instances, so
:func:`reference_cost` assembles the best available reference from the
offline-solver portfolio and records *which* reference was used and whether it
is an upper bound, a lower bound or exact — the experiments propagate that
label into their tables (see DESIGN.md, substitution notes).

For *streaming* sessions, where re-solving an offline reference per arrival is
out of the question, :class:`IncrementalOfflineBound` maintains an LP-free
**lower** bound on the offline optimum of the request prefix in O(1) amortized
work per arrival; :func:`streaming_lower_bound` is the batch entry point, a
thin shim that feeds a whole instance through the incremental update (pinned
exactly equal by ``tests/test_telemetry.py``).  The telemetry layer's rolling
competitive-ratio probe (:mod:`repro.telemetry`) is built on this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from repro.algorithms.base import OfflineResult, OnlineAlgorithm, run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.offline.local_search import LocalSearchSolver
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.costs.base import FacilityCostFunction
from repro.exceptions import AlgorithmError, ExperimentError
from repro.metric.base import MetricSpace
from repro.utils.rng import RandomState, ensure_rng

if TYPE_CHECKING:
    from repro.scenarios.base import GeneratedWorkload

__all__ = [
    "CompetitiveMeasurement",
    "IncrementalOfflineBound",
    "measure_competitive_ratio",
    "reference_cost",
    "streaming_lower_bound",
    "ReferenceCost",
]


@dataclass(frozen=True)
class ReferenceCost:
    """An offline reference cost plus its provenance."""

    value: float
    kind: str  # "exact", "upper-bound", "lower-bound", "analytic"
    solver: str

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ExperimentError(f"reference cost must be non-negative, got {self.value}")


@dataclass
class CompetitiveMeasurement:
    """Measured cost of one algorithm on one instance against one reference."""

    algorithm: str
    instance: str
    reference: ReferenceCost
    costs: List[float] = field(default_factory=list)
    runtimes: List[float] = field(default_factory=list)

    @property
    def mean_cost(self) -> float:
        return float(np.mean(self.costs)) if self.costs else float("nan")

    @property
    def std_cost(self) -> float:
        return float(np.std(self.costs)) if self.costs else float("nan")

    @property
    def ratio(self) -> float:
        if self.reference.value <= 0:
            return float("inf")
        return self.mean_cost / self.reference.value

    @property
    def mean_runtime(self) -> float:
        return float(np.mean(self.runtimes)) if self.runtimes else float("nan")

    def as_row(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "instance": self.instance,
            "cost": self.mean_cost,
            "cost_std": self.std_cost,
            "reference_cost": self.reference.value,
            "reference_kind": self.reference.kind,
            "ratio": self.ratio,
            "runtime_s": self.mean_runtime,
        }


def reference_cost(
    workload_or_instance: Union["GeneratedWorkload", Instance],
    *,
    exact_limit_combinations: int = 50_000,
    local_search_iterations: int = 15,
    known_opt: Optional[float] = None,
) -> ReferenceCost:
    """Best available offline reference for an instance.

    Preference order: an analytically known OPT (``known_opt``), exact brute
    force when the search space is small enough, otherwise the cheaper of the
    planted solution (when the workload provides one), offline greedy and
    local search — all upper bounds on OPT, so ratios computed against them
    over-estimate the competitive ratio.
    """
    if known_opt is not None:
        return ReferenceCost(value=float(known_opt), kind="analytic", solver="known")
    if isinstance(workload_or_instance, Instance):
        workload: Optional["GeneratedWorkload"] = None
        instance = workload_or_instance
    else:
        workload = workload_or_instance
        instance = workload_or_instance.instance

    # Exact brute force when affordable.
    try:
        exact = BruteForceSolver(max_combinations=exact_limit_combinations).solve(instance)
        return ReferenceCost(value=exact.total_cost, kind="exact", solver=exact.solver)
    except AlgorithmError:
        pass

    candidates: List[OfflineResult] = []
    if workload is not None:
        planted = workload.planted_solver()
        if planted is not None:
            candidates.append(planted.solve(instance))
    candidates.append(GreedyOfflineSolver().solve(instance))
    if local_search_iterations > 0:
        initial = None
        if candidates:
            best_so_far = min(candidates, key=lambda r: r.total_cost)
            initial = [(f.point, f.configuration) for f in best_so_far.solution.facilities]
        candidates.append(
            LocalSearchSolver(
                max_iterations=local_search_iterations, initial_specs=initial
            ).solve(instance)
        )
    best = min(candidates, key=lambda r: r.total_cost)
    return ReferenceCost(value=best.total_cost, kind="upper-bound", solver=best.solver)


BOUND_STATE_FORMAT = "repro.analysis.offline-bound"
BOUND_STATE_VERSION = 1


class IncrementalOfflineBound:
    """LP-free lower bound on offline OPT of a request prefix, updated per arrival.

    The bound is a streaming form of the classic ball-packing argument.  For
    each commodity ``e`` it lazily computes the cheapest singleton opening
    cost ``f_e = min_m f^{{e}}_m`` (one vectorized scan on first sight of
    ``e``) and maintains a greedy set of *anchors*: request points demanding
    ``e`` that are pairwise more than ``2·f_e`` apart.  The balls of radius
    ``f_e`` around anchors are then disjoint, so any offline solution pays at
    least ``f_e`` per anchor — either a connection of length ≥ ``f_e`` or an
    opening of a facility whose configuration contains ``e`` (cost ≥ ``f_e``
    whenever the cost function is monotone in the configuration, which every
    stock cost satisfies) inside the anchor's exclusive ball.  The overall
    bound is ``max_e k_e·f_e`` with ``k_e`` the anchor count: a *max*, not a
    sum, because one facility opening can be charged by several commodities.

    Updates are O(1) amortized: the accept/reject decision for a
    ``(commodity, point)`` pair is *time-invariant* (anchors only grow, so a
    rejected point stays rejected; an accepted point becomes an anchor and
    rejects its own repeats), which lets a per-commodity memo of already-seen
    points short-circuit repeat arrivals to one set lookup.  The memo is a
    pure cache — bounded by the metric's point count, not the stream length,
    and deliberately excluded from :meth:`state_dict` (a resumed bound
    re-derives the same rejections).  This is what makes the telemetry
    layer's rolling competitive-ratio probe affordable per arrival.  The
    bound is monotone non-decreasing in the prefix and deterministic
    (commodities are processed in sorted order; no RNG involved).

    State round-trips losslessly through :meth:`state_dict` /
    :meth:`load_state_dict` (strict JSON), so snapshots carry it
    bit-identically.
    """

    def __init__(
        self,
        metric: MetricSpace,
        cost: FacilityCostFunction,
        *,
        anchor_cap: int = 256,
    ) -> None:
        if anchor_cap < 1:
            raise ExperimentError(f"anchor_cap must be at least 1, got {anchor_cap}")
        self._metric = metric
        self._cost = cost
        self._anchor_cap = int(anchor_cap)
        self._singleton_costs: Dict[int, float] = {}
        self._anchors: Dict[int, List[int]] = {}
        # Pure cache of points already decided per commodity (see class
        # docstring); never serialized, rebuilt implicitly after a restore.
        self._seen_points: Dict[int, set] = {}
        self._num_requests = 0
        self._bound = 0.0

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Current lower bound on offline OPT of the requests seen so far."""
        return self._bound

    @property
    def num_requests(self) -> int:
        return self._num_requests

    @property
    def anchor_cap(self) -> int:
        return self._anchor_cap

    def _singleton_cost(self, commodity: int) -> float:
        cached = self._singleton_costs.get(commodity)
        if cached is None:
            cached = float(
                np.min(
                    self._cost.costs_over_points(
                        (commodity,), range(self._metric.num_points)
                    )
                )
            )
            self._singleton_costs[commodity] = cached
            self._anchors[commodity] = []
        return cached

    def update(self, request: Request) -> float:
        """Fold one arrival into the bound and return the new bound value."""
        return self.update_arrival(request.point, request.commodities)

    def update_arrival(self, point: int, commodities: Iterable[int]) -> float:
        """:meth:`update` on a raw ``(point, commodities)`` pair.

        The telemetry hot path: skips :class:`Request` construction (and its
        validation) for arrivals that already exist as events.
        """
        self._num_requests += 1
        # Each commodity owns its own anchor set and singleton cost, so the
        # per-commodity decisions are independent and processing order cannot
        # change the bound (state dicts sort on the way out regardless).
        seen_map = self._seen_points
        for commodity in commodities:
            seen = seen_map.get(commodity)
            if seen is None:
                seen = seen_map[commodity] = set()
            elif point in seen:
                continue  # time-invariant decision, already made for this pair
            seen.add(point)
            f_e = self._singleton_cost(commodity)
            if f_e <= 0.0:
                continue  # zero-cost openings make the ball argument vacuous
            anchors = self._anchors[commodity]
            if len(anchors) >= self._anchor_cap:
                continue
            if anchors:
                separation = float(
                    np.min(self._metric.distances_between(point, anchors))
                )
                if separation <= 2.0 * f_e:
                    continue
            anchors.append(int(point))
            candidate = len(anchors) * f_e
            if candidate > self._bound:
                self._bound = candidate
        return self._bound

    # ------------------------------------------------------------------
    # Strict-JSON state round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        return {
            "format": BOUND_STATE_FORMAT,
            "version": BOUND_STATE_VERSION,
            "anchor_cap": self._anchor_cap,
            "num_requests": self._num_requests,
            "bound": self._bound,
            "singleton_costs": {
                str(e): self._singleton_costs[e] for e in sorted(self._singleton_costs)
            },
            "anchors": {
                str(e): list(self._anchors[e]) for e in sorted(self._anchors)
            },
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if state.get("format") != BOUND_STATE_FORMAT:
            raise ExperimentError(
                f"not an offline-bound state dict: format={state.get('format')!r}"
            )
        if state.get("version") != BOUND_STATE_VERSION:
            raise ExperimentError(
                f"unsupported offline-bound state version {state.get('version')!r}"
            )
        self._anchor_cap = int(state["anchor_cap"])
        self._num_requests = int(state["num_requests"])
        self._bound = float(state["bound"])
        self._singleton_costs = {
            int(e): float(v) for e, v in state["singleton_costs"].items()
        }
        self._anchors = {
            int(e): [int(p) for p in points] for e, points in state["anchors"].items()
        }
        self._seen_points = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalOfflineBound(bound={self._bound:.4f}, "
            f"num_requests={self._num_requests})"
        )


def streaming_lower_bound(
    instance: Instance, *, anchor_cap: int = 256
) -> ReferenceCost:
    """Batch entry point for the streaming lower bound.

    A thin shim over :class:`IncrementalOfflineBound` — it feeds the whole
    request sequence through :meth:`~IncrementalOfflineBound.update` and wraps
    the final value.  By construction the result is *exactly* equal to the
    rolling bound a streaming session reports at finalize (pinned with ``==``
    in ``tests/test_telemetry.py``).
    """
    bound = IncrementalOfflineBound(
        instance.metric, instance.cost_function, anchor_cap=anchor_cap
    )
    value = 0.0
    for request in instance.requests:
        value = bound.update(request)
    return ReferenceCost(value=value, kind="lower-bound", solver="streaming-anchors")


def measure_competitive_ratio(
    algorithm: OnlineAlgorithm,
    workload_or_instance: Union["GeneratedWorkload", Instance],
    *,
    reference: Optional[ReferenceCost] = None,
    repeats: Optional[int] = None,
    rng: RandomState = None,
    known_opt: Optional[float] = None,
) -> CompetitiveMeasurement:
    """Run ``algorithm`` (repeatedly if randomized) and compare to the reference."""
    instance = (
        workload_or_instance
        if isinstance(workload_or_instance, Instance)
        else workload_or_instance.instance
    )
    generator = ensure_rng(rng)
    if reference is None:
        reference = reference_cost(workload_or_instance, known_opt=known_opt)
    runs = repeats if repeats is not None else (5 if algorithm.randomized else 1)
    if runs < 1:
        raise ExperimentError("repeats must be at least 1")
    measurement = CompetitiveMeasurement(
        algorithm=algorithm.name, instance=instance.name, reference=reference
    )
    for _ in range(runs):
        result = run_online(algorithm, instance, rng=generator)
        measurement.costs.append(result.total_cost)
        measurement.runtimes.append(result.runtime_seconds)
    return measurement
