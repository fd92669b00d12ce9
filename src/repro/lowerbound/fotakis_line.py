"""Adaptive line adversary in the spirit of Fotakis' Ω(log n / log log n) bound.

Fotakis (2008) proved that no online facility location algorithm can beat
Θ(log n / log log n), already on the line.  His adversary is *adaptive*: it
repeatedly concentrates new demands inside the part of the current interval
that is farthest from the facilities the algorithm has opened so far, so the
algorithm keeps paying either a fresh opening cost or a long connection per
phase while the optimum serves everything from one facility placed at the
final accumulation point.

The reproduction implements that interaction as a *game runner* (the instance
cannot be materialized up front because it depends on the algorithm's
choices).  The candidate points form a dyadic grid on ``[0, 1]``; each phase
places a batch of identical single-commodity requests at the centre of the
current interval and then recurses into the half whose centre is farther from
the algorithm's nearest open facility.  Phase batch sizes grow geometrically
so that the total number of requests is ``n`` and the number of phases is
Θ(log n / log log n).

Scope note (also recorded in EXPERIMENTS.md): this is an adaptive *stress
family in the spirit of* Fotakis' adversary, not a re-derivation of his tight
amortized argument — the full proof charges OPT across a tree of scenarios
that a single realized sequence cannot reproduce.  The game therefore yields
qualitative measured ratios (with OPT replaced by an upper-bound estimate,
making the measured ratio a conservative under-estimate), while the analytic
``log n / log log n`` term of Corollary 3 is reported alongside as the
theoretical reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import OnlineAlgorithm
from repro.api.session import OnlineSession
from repro.core.commodities import CommodityUniverse
from repro.costs.count_based import ConstantCost
from repro.exceptions import InvalidInstanceError
from repro.metric.line import LineMetric
from repro.utils.maths import log_over_loglog
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["run_adaptive_line_game", "AdaptiveLineGameResult", "line_game_parameters"]


@dataclass
class AdaptiveLineGameResult:
    """Outcome of the adaptive line game."""

    algorithm: str
    num_requests: int
    num_phases: int
    facility_cost: float
    algorithm_cost: float
    opt_estimate: float
    phase_points: List[float] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        return self.algorithm_cost / self.opt_estimate if self.opt_estimate > 0 else float("inf")

    @property
    def predicted_ratio(self) -> float:
        """The Fotakis-shape prediction ``log n / log log n``."""
        return log_over_loglog(self.num_requests)


def line_game_parameters(num_requests: int) -> Tuple[int, int]:
    """Phases and per-phase batch growth for a target number of requests.

    The batch of phase ``i`` has ``growth^i`` requests with
    ``growth ≈ log n``, giving Θ(log n / log log n) phases — the same scaling
    as Fotakis' bound.
    """
    if num_requests < 2:
        raise InvalidInstanceError("the line game needs at least 2 requests")
    growth = max(2, int(round(math.log(max(num_requests, 3)))))
    phases = 1
    total = 1
    while total + growth**phases <= num_requests:
        total += growth**phases
        phases += 1
    return phases, growth


def run_adaptive_line_game(
    algorithm: OnlineAlgorithm,
    num_requests: int,
    *,
    facility_cost: float = 1.0,
    grid_resolution: Optional[int] = None,
    rng: RandomState = None,
) -> AdaptiveLineGameResult:
    """Play the adaptive nested-interval game against ``algorithm``.

    The game is single-commodity (``|S| = 1``) with uniform facility cost; the
    optimum estimate is the best single-facility solution on the realized
    request sequence (which is how the adversary's analysis charges OPT).
    """
    if facility_cost <= 0:
        raise InvalidInstanceError("facility_cost must be positive")
    generator = ensure_rng(rng)
    phases, growth = line_game_parameters(num_requests)
    resolution = grid_resolution if grid_resolution is not None else 2 ** (phases + 2)
    coordinates = np.linspace(0.0, 1.0, resolution + 1)
    metric = LineMetric(coordinates)
    cost = ConstantCost(1, scale=facility_cost)

    def nearest_grid_point(x: float) -> int:
        return int(np.argmin(np.abs(coordinates - x)))

    # The request sequence is built adaptively, one streamed request at a time.
    session = OnlineSession(
        algorithm,
        metric,
        cost,
        commodities=CommodityUniverse(1),
        rng=generator,
        name=f"fotakis-line(n={num_requests})",
    )

    realized: List[Tuple[int, float]] = []  # (point index, coordinate)
    lo, hi = 0.0, 1.0
    for phase in range(phases):
        centre = 0.5 * (lo + hi)
        point = nearest_grid_point(centre)
        batch = min(growth**phase, max(num_requests - len(realized), 1))
        for _ in range(batch):
            session.submit(point, (0,))
            realized.append((point, float(coordinates[point])))
            if len(realized) >= num_requests:
                break
        if len(realized) >= num_requests:
            break
        # Recurse into the half whose centre is farther from the algorithm's
        # nearest open facility (the adaptive step of the lower bound).
        left_centre = 0.5 * (lo + centre)
        right_centre = 0.5 * (centre + hi)
        left_distance = session.state.distance_to_nearest(0, nearest_grid_point(left_centre))
        right_distance = session.state.distance_to_nearest(0, nearest_grid_point(right_centre))
        if left_distance >= right_distance:
            hi = centre
        else:
            lo = centre

    algorithm_cost = session.total_cost

    # OPT estimate: the best single facility for the realized sequence.
    realized_points = np.array([p for p, _ in realized], dtype=np.intp)
    best_single = float("inf")
    for candidate in range(metric.num_points):
        row = metric.distances_from(candidate)
        best_single = min(best_single, facility_cost + float(row[realized_points].sum()))
    return AdaptiveLineGameResult(
        algorithm=algorithm.name,
        num_requests=len(realized),
        num_phases=phases,
        facility_cost=facility_cost,
        algorithm_cost=float(algorithm_cost),
        opt_estimate=best_single,
        phase_points=[float(coordinates[p]) for p in sorted(set(realized_points.tolist()))],
    )
