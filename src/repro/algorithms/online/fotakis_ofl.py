"""Fotakis' deterministic primal–dual algorithm for online facility location.

Fotakis (2007) gave a simple primal–dual online algorithm for the classical
(single-commodity) Online Facility Location Problem that is O(log n)
competitive; it is the basis of the paper's deterministic algorithm
(Section 3.1: "It is inspired by the primal dual formulation of Fotakis'
deterministic algorithm [5] for the OFLP presented in [14]").

Two artifacts live here:

* :class:`SingleCommodityPrimalDual` — a helper that runs the primal–dual
  logic for *one* commodity ``e`` against the run's facility set ``F(e)``,
  read from and opened into the shared
  :class:`~repro.core.state.OnlineState`; it keeps only the duals and bid
  history of its commodity.  It is reused by the per-commodity
  decomposition baseline
  (:class:`~repro.algorithms.online.per_commodity.PerCommodityAlgorithm`).
* :class:`FotakisOFLAlgorithm` — the classical OFL algorithm as an
  :class:`~repro.algorithms.base.OnlineAlgorithm` for instances with
  ``|S| = 1`` (used by the substrate sanity experiment).

Acceleration (the run's ``OnlineState.use_accel``, default on): the bid sum
over earlier demands is the running vector of a
:class:`~repro.accel.history.BidHistoryBuffer` (O(n) per demand; the history
is re-reduced only after an opening changed some bid), bit-identical to the
reference path (``use_accel=False``), which is retained for the equivalence
harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.accel.history import BidHistoryBuffer
from repro.algorithms.base import OnlineAlgorithm
from repro.core.facility import Facility
from repro.core.instance import Instance
from repro.core.requests import Request
from repro.core.state import OnlineState
from repro.exceptions import AlgorithmError, SnapshotError
from repro.metric.base import MetricSpace
from repro.utils.encoding import decode_float, encode_float

__all__ = ["SingleCommodityPrimalDual", "FotakisOFLAlgorithm"]


@dataclass
class _HistoryEntry:
    """One earlier demand seen by the single-commodity primal–dual helper."""

    point: int
    dual: float
    nearest_distance: float  # d(F(e), point) after the demand was served


class SingleCommodityPrimalDual:
    """Primal–dual online facility location for a single commodity.

    Parameters
    ----------
    metric:
        The underlying metric space.
    opening_costs:
        Vector of facility opening costs per point for this commodity.
    accel:
        The owning algorithm's ``state.use_accel``: bid sums from a
        :class:`~repro.accel.history.BidHistoryBuffer` or the reference scan.
    """

    def __init__(self, metric: MetricSpace, opening_costs: Sequence[float], accel: bool) -> None:
        costs = np.asarray(opening_costs, dtype=np.float64)
        if costs.shape != (metric.num_points,):
            raise AlgorithmError(
                f"opening_costs must have one entry per point, got shape {costs.shape}"
            )
        self._metric = metric
        self._costs = costs
        self._history: List[_HistoryEntry] = []  # reference-path bid state only
        self._dual_values: List[float] = []
        self._row_cache: Dict[int, np.ndarray] = {}
        self._buffer: Optional[BidHistoryBuffer] = BidHistoryBuffer(metric) if accel else None

    # ------------------------------------------------------------------
    @property
    def duals(self) -> List[float]:
        """Dual value raised for each processed demand, in arrival order."""
        return list(self._dual_values)

    def _row(self, point: int) -> np.ndarray:
        row = self._row_cache.get(point)
        if row is None:
            row = np.asarray(self._metric.distances_from(point), dtype=np.float64)
            self._row_cache[point] = row
        return row

    def _bid_base(self) -> np.ndarray:
        """Bid sum of earlier demands towards every point (constraint (3))."""
        if self._buffer is not None:
            return self._buffer.base()
        if not self._history:
            return np.zeros(self._metric.num_points, dtype=np.float64)
        bids = np.array(
            [min(entry.dual, entry.nearest_distance) for entry in self._history],
            dtype=np.float64,
        )
        rows = np.vstack([self._row(entry.point) for entry in self._history])
        return np.maximum(bids[:, None] - rows, 0.0).sum(axis=0)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Dual values and the bid history of the helper.

        The shape of ``history`` is the same for both hot paths — per-entry
        ``(point, dual, nearest)`` triples — so the snapshot is agnostic to
        which path produced it; distance rows are refetched on restore.
        """
        if self._buffer is not None:
            history = self._buffer.state_dict()
        else:
            history = {
                "points": [entry.point for entry in self._history],
                "duals": [entry.dual for entry in self._history],
                "nearest": [encode_float(entry.nearest_distance) for entry in self._history],
            }
        return {
            "dual_values": [float(v) for v in self._dual_values],
            "history": history,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Reload the dual values and the bid history (fresh helper only)."""
        if self._dual_values:
            raise SnapshotError(
                "SingleCommodityPrimalDual.load_state_dict requires a fresh helper"
            )
        self._dual_values = [float(v) for v in state["dual_values"]]
        history = state["history"]
        if self._buffer is not None:
            self._buffer.load_state_dict(history)
        else:
            for point, dual, nearest in zip(
                history["points"], history["duals"], history["nearest"]
            ):
                self._history.append(
                    _HistoryEntry(
                        point=int(point),
                        dual=float(dual),
                        nearest_distance=decode_float(nearest),
                    )
                )

    # ------------------------------------------------------------------
    def decide(self, state: OnlineState, request: Request, commodity: int) -> Facility:
        """Serve ``commodity`` of ``request`` and return the facility to connect to.

        The demand either connects to the nearest facility of ``F(e)`` or —
        when constraint (3) becomes tight first — opens a new facility for
        ``commodity`` through ``state`` and connects to it.
        """
        point = request.point
        row = self._row(point)
        nearest_distance = state.distance_to_nearest(commodity, point)

        base = self._bid_base()
        slack = np.maximum(self._costs - base, 0.0)
        open_trigger = row + slack
        open_point = int(np.argmin(open_trigger))
        open_level = float(open_trigger[open_point])

        opened = nearest_distance > open_level + 1e-12
        if opened:
            dual = open_level
            facility = state.open_facility(request, open_point, (commodity,))
        else:
            dual = nearest_distance
            facility, _ = state.nearest_offering(commodity, point)

        # Update the bid history (the new demand's nearest distance reflects
        # the facility set after its own processing).  The _HistoryEntry list
        # backs only the reference bid sums, so the accel path does not grow
        # it — stale entries would otherwise linger for anyone inspecting it.
        new_nearest = state.distance_to_nearest(commodity, point)
        if self._buffer is not None:
            if opened:
                self._buffer.update_nearest(self._row(open_point))
            self._buffer.append(point, dual, new_nearest, row=row)
        else:
            if opened:
                for entry in self._history:
                    entry.nearest_distance = min(
                        entry.nearest_distance, float(self._row(open_point)[entry.point])
                    )
            self._history.append(
                _HistoryEntry(point=point, dual=dual, nearest_distance=new_nearest)
            )
        self._dual_values.append(dual)
        return facility


class FotakisOFLAlgorithm(OnlineAlgorithm):
    """Classical online facility location (single commodity, deterministic).

    Only valid on instances with ``|S| = 1`` where every request demands the
    unique commodity; use
    :class:`~repro.algorithms.online.per_commodity.PerCommodityAlgorithm` for
    the multi-commodity decomposition baseline.
    """

    randomized = False

    def __init__(self) -> None:
        self.name = "fotakis-ofl"
        self._helper: Optional[SingleCommodityPrimalDual] = None

    def prepare(self, instance: Instance, state: OnlineState, rng) -> None:
        if instance.num_commodities != 1:
            raise AlgorithmError(
                "FotakisOFLAlgorithm requires |S| = 1; got "
                f"|S| = {instance.num_commodities}"
            )
        costs = instance.cost_function.costs_over_points((0,), list(range(instance.num_points)))
        self._helper = SingleCommodityPrimalDual(instance.metric, costs, state.use_accel)

    def state_dict(self) -> Dict[str, Any]:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before state_dict()")
        return {"helper": self._helper.state_dict()}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before load_state_dict()")
        self._helper.load_state_dict(state["helper"])

    def process(self, request: Request, state: OnlineState, rng) -> None:
        if self._helper is None:
            raise AlgorithmError("prepare() was not called before process()")
        state.assign_to_single_facility(request, self._helper.decide(state, request, 0))
