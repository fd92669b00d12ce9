"""Meyerson's randomized algorithm for online facility location.

Meyerson (FOCS 2001) opens, when a demand arrives, a facility with probability
proportional to the connection cost the demand would otherwise pay; for
non-uniform facility costs the decision is spread over power-of-two cost
classes.  The algorithm is O(log n / log log n)-competitive against adversarial
sequences and constant-competitive for random order; it is the basis of the
paper's RAND-OMFLP (Section 4).

As with the deterministic substrate, the reusable logic lives in a helper
(:class:`SingleCommodityMeyerson`) so that the per-commodity decomposition
baseline can instantiate one per commodity, and a thin
:class:`MeyersonOFLAlgorithm` exposes the classical single-commodity
algorithm.  The helper holds only its commodity's static cost classes: the
facility set it decides against is the run's ``F(e)``, read from and opened
into the shared :class:`~repro.core.state.OnlineState`.

Acceleration (the run's ``OnlineState.use_accel``, default on): the helper
precomputes the per-class distance tables once
(:class:`~repro.accel.classes.ClassDistanceIndex`), turning the per-demand
class scans from O(classes x n) into O(classes).  The per-class coin
probabilities are then computed in one vectorized pass instead of a Python
loop of scalar ``distance_to_class`` calls; the coins themselves are still
flipped one class at a time so the RNG consumption — and hence every decision
— is bit-identical to the reference path (``use_accel=False``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.accel.classes import ClassDistanceIndex
from repro.algorithms.base import OnlineAlgorithm
from repro.core.facility import Facility
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.exceptions import AlgorithmError
from repro.metric.base import MetricSpace
from repro.utils.maths import round_down_power_of_two

__all__ = ["SingleCommodityMeyerson", "MeyersonOFLAlgorithm"]


class SingleCommodityMeyerson:
    """Meyerson's randomized online facility location for one commodity.

    ``accel`` is the owning algorithm's ``state.use_accel``; the helper keeps
    no facility set of its own (see :meth:`decide`).
    """

    def __init__(self, metric: MetricSpace, opening_costs: Sequence[float], accel: bool) -> None:
        costs = np.asarray(opening_costs, dtype=np.float64)
        if costs.shape != (metric.num_points,):
            raise AlgorithmError(
                f"opening_costs must have one entry per point, got shape {costs.shape}"
            )
        self._metric = metric
        rounded = np.array([round_down_power_of_two(float(c)) for c in costs])
        values = sorted(set(float(v) for v in rounded))
        self._class_values: List[float] = values
        self._values_array = np.asarray(values, dtype=np.float64)
        # cumulative point sets: points whose rounded cost is <= class value
        # (kept as intp arrays so distances_between never re-converts them).
        self._class_points: List[np.ndarray] = [
            np.where(rounded <= value)[0].astype(np.intp) for value in values
        ]
        self._class_index: Optional[ClassDistanceIndex] = None
        if accel:
            exact = [np.where(rounded == value)[0].astype(np.intp) for value in values]
            # The cumulative sets are handed over in this helper's reference
            # enumeration order (ascending point index) so lazy nearest-point
            # scans tie-break exactly as the reference path does.
            self._class_index = ClassDistanceIndex(metric, values, exact, self._class_points)

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return len(self._class_values)

    def class_value(self, index: int) -> float:
        """``C_i`` for the 1-based class index."""
        return self._class_values[index - 1]

    def distance_to_class(self, index: int, point: int) -> float:
        """Distance to the nearest point of rounded cost at most ``C_i``."""
        if self._class_index is not None:
            return self._class_index.distance_to_class(index, point)
        points = self._class_points[index - 1]
        return float(np.min(self._metric.distances_between(point, points)))

    def nearest_point_of_class(self, index: int, point: int) -> int:
        if self._class_index is not None:
            return self._class_index.nearest_point_of_class(index, point)[0]
        points = self._class_points[index - 1]
        nearest, _ = self._metric.nearest(point, points)
        return int(nearest)

    def _cheapest_open_option(self, point: int) -> Tuple[int, float]:
        """``(i, C_i + d(C_i, r))`` minimizing the opening option over classes."""
        if self._class_index is not None:
            return self._class_index.cheapest_open_option(point)
        return min(
            (
                (i, self.class_value(i) + self.distance_to_class(i, point))
                for i in range(1, self.num_classes + 1)
            ),
            key=lambda option: option[1],
        )

    def connection_budget(self, state: OnlineState, commodity: int, point: int) -> float:
        """``X(r) = min{d(F(e), r), min_i (C_i + d(C_i, r))}`` for a demand at ``point``."""
        return min(
            state.distance_to_nearest(commodity, point), self._cheapest_open_option(point)[1]
        )

    def _class_probabilities(self, point: int, effective_budget: float) -> np.ndarray:
        """Vectorized per-class opening probabilities (fast path only)."""
        distances = self._class_index.class_distances(point)
        previous = np.empty_like(distances)
        previous[0] = effective_budget
        previous[1:] = distances[:-1]
        increments = previous - distances
        values = self._values_array
        probabilities = np.zeros_like(distances)
        free = values <= 0.0
        probabilities[free] = (increments[free] > 0.0).astype(np.float64)
        paid = ~free
        probabilities[paid] = np.minimum(
            np.maximum(increments[paid] / values[paid], 0.0), 1.0
        )
        return probabilities

    # ------------------------------------------------------------------
    def decide(self, state: OnlineState, request: Request, commodity: int, rng) -> Facility:
        """Serve ``commodity`` of ``request`` and return the facility to connect to.

        The class coins are flipped against the demand's connection budget
        ``X(r)``; every success opens a facility for ``commodity`` at the
        nearest point of that class through ``state``.  The demand connects
        to the nearest facility of ``F(e)`` afterwards.
        """
        point = request.point
        previous_distance = self.connection_budget(state, commodity, point)
        opened: List[int] = []
        if self._class_index is not None:
            probabilities = self._class_probabilities(point, previous_distance)
            for i in range(1, self.num_classes + 1):
                probability = float(probabilities[i - 1])
                if probability > 0 and rng.uniform() < probability:
                    opened.append(self.nearest_point_of_class(i, point))
        else:
            for i in range(1, self.num_classes + 1):
                value = self.class_value(i)
                distance_i = self.distance_to_class(i, point)
                increment = previous_distance - distance_i
                previous_distance = distance_i
                if value <= 0:
                    probability = 1.0 if increment > 0 else 0.0
                else:
                    probability = min(max(increment / value, 0.0), 1.0)
                if probability > 0 and rng.uniform() < probability:
                    opened.append(self.nearest_point_of_class(i, point))
        for new_point in opened:
            state.open_facility(request, new_point, (commodity,))
        if not state.store.has_facility_for(commodity):
            # Feasibility fallback: open the cheapest opening option
            # deterministically (changes constants only, see DESIGN.md §4.2).
            best_i, _ = self._cheapest_open_option(point)
            state.open_facility(request, self.nearest_point_of_class(best_i, point), (commodity,))
        facility, _ = state.nearest_offering(commodity, point)
        return facility


class MeyersonOFLAlgorithm(OnlineAlgorithm):
    """Classical randomized online facility location (single commodity)."""

    randomized = True

    def __init__(self) -> None:
        self.name = "meyerson-ofl"
        self._helper: Optional[SingleCommodityMeyerson] = None

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        if instance.num_commodities != 1:
            raise AlgorithmError(
                "MeyersonOFLAlgorithm requires |S| = 1; got "
                f"|S| = {instance.num_commodities}"
            )
        costs = instance.cost_function.costs_over_points((0,), list(range(instance.num_points)))
        self._helper = SingleCommodityMeyerson(instance.metric, costs, state.use_accel)

    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before process()")
        state.assign_to_single_facility(request, self._helper.decide(state, request, 0, rng))
