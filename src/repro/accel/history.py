"""Preallocated bid-history buffers for the primal–dual algorithms.

The primal–dual algorithms (Fotakis OFL, PD-OMFLP) evaluate, per request, the
bid sum of all earlier demands towards every candidate point:

    base(m) = sum_j ( min{a_j, d(F, j)} - d(m, j) )_+

The reference implementations rebuild this from scratch each time — a Python
list comprehension over the history for the bids, an O(h x n) ``vstack`` copy
of the history distance rows and an O(h x n) reduction.
:class:`BidHistoryBuffer` keeps the running ``(n,)`` sum itself:

* ``append`` adds the new entry's term ``(min{a_j, d(F, j)} - d(m, j))_+`` to
  the running vector in place — O(n) per entry;
* ``update_nearest`` folds a newly opened facility into the per-entry nearest
  distances and marks the buffer *dirty* only when some bid
  ``min{a_j, d(F, j)}`` actually changed (an opening that is farther than every
  affected entry's bid changes no term);
* ``base()`` redoes the full ``(h, n)`` reduction only when the buffer is
  dirty, and otherwise returns the running vector as a read-only view.

The running vector is bit-for-bit identical to the reference, not an
approximation.  For a C-contiguous ``(h, n)`` float64 block with ``n > 1``,
numpy's ``sum(axis=0)`` adds the rows one after another in index order (the
reduction axis is the outer loop, so no pairwise blocking applies), and the
per-entry terms are the same floats the reference computes.  A ``(h, 1)``
block collapses to a 1-D reduction that numpy sums pairwise, so a buffer over
a one-point metric recomputes on every ``base()``.  ``tests/test_bid_history.py``
pins the reduction-order fact directly, so a numpy upgrade that changes it
fails loudly instead of silently shifting decisions.

Memory: a dirty ``base()`` re-reduces the whole history, so the buffer keeps
every entry's distance row, but only once per distinct point: each entry
stores a slot into a ``(distinct points, n)`` row table, and a recompute
gathers the rows in chunks of ``_REDUCE_ROWS`` entries, where the reference
builds a whole ``(h, n)`` block per request.  A buffer thus holds
O(h + n x min(h, n)) floats rather than O(h x n).  PD-OMFLP keeps one buffer
per commodity plus one for the large constraint, each with its own table.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.exceptions import SnapshotError
from repro.metric.base import MetricSpace
from repro.utils.encoding import decode_floats, encode_floats

__all__ = ["BidHistoryBuffer"]

_INITIAL_CAPACITY = 8
#: Entries per chunk of a dirty ``base()`` recompute.
_REDUCE_ROWS = 512


class BidHistoryBuffer:
    """History of ``(point, dual, nearest-facility distance)`` bid entries."""

    def __init__(self, metric: MetricSpace) -> None:
        self._metric = metric
        n = metric.num_points
        # One distance row per distinct point; entry j's row is
        # ``_table[_slots[j]]``.
        self._table = np.empty((min(_INITIAL_CAPACITY, n), n), dtype=np.float64)
        self._slot_of: Dict[int, int] = {}
        self._slots = np.empty(_INITIAL_CAPACITY, dtype=np.intp)
        self._points = np.empty(_INITIAL_CAPACITY, dtype=np.intp)
        self._duals = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._nearest = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0
        # Running bid sum over the first ``_size`` entries, exact unless dirty.
        self._base = np.zeros(n, dtype=np.float64)
        # numpy sums an (h, 1) block pairwise, not row by row, so one-point
        # buffers keep no running sum and recompute every base() in one piece.
        self._row_order = n > 1
        self._dirty = not self._row_order

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def _grow(self) -> None:
        capacity = self._points.shape[0] * 2
        for name in ("_slots", "_points", "_duals", "_nearest"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    def _store_row(self, point: int, row: Optional[np.ndarray]) -> int:
        slot = len(self._slot_of)
        if slot == self._table.shape[0]:
            n = self._metric.num_points
            table = np.empty((min(2 * slot, n), n), dtype=np.float64)
            table[:slot] = self._table
            self._table = table
        self._table[slot] = self._metric.distances_from(point) if row is None else row
        self._slot_of[point] = slot
        return slot

    def append(
        self, point: int, dual: float, nearest: float, *, row: Optional[np.ndarray] = None
    ) -> None:
        """Record a processed demand (its dual is frozen and never changes).

        ``row`` may pass the caller's cached ``distances_from(point)`` to
        avoid recomputing it; otherwise it is fetched from the metric.  Only
        the first entry at a point stores its row.
        """
        if self._size == self._points.shape[0]:
            self._grow()
        h = self._size
        point = int(point)
        slot = self._slot_of.get(point)
        if slot is None:
            slot = self._store_row(point, row)
        self._slots[h] = slot
        self._points[h] = point
        self._duals[h] = float(dual)
        self._nearest[h] = float(nearest)
        self._size = h + 1
        if not self._dirty:
            # numpy's sum(axis=0) starts from row 0 itself, so the first term
            # is copied rather than added to zeros (keeps signed zeros too).
            term = np.maximum(min(float(dual), float(nearest)) - self._table[slot], 0.0)
            if h:
                self._base += term
            else:
                self._base[:] = term

    def update_nearest(self, opened_row: np.ndarray) -> None:
        """Fold a newly opened facility into every entry's nearest distance.

        ``opened_row`` is ``distances_from(opened_point)``; entry ``j``'s
        nearest distance becomes ``min(old, opened_row[point_j])`` — exactly
        the reference's per-entry update, vectorized.  Entry ``j``'s bid
        ``min(dual_j, nearest_j)`` changes only if the opened facility is
        strictly closer than that bid; only then is the running sum stale.
        """
        h = self._size
        if h:
            nearest = self._nearest[:h]
            opened = opened_row[self._points[:h]]
            if not self._dirty and bool(
                np.any(opened < np.minimum(self._duals[:h], nearest))
            ):
                self._dirty = True
            np.minimum(nearest, opened, out=nearest)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-compatible snapshot: per-entry point, dual and nearest distance.

        The distance rows and the running sum are *not* stored — the rows
        are pure metric rows, refetched bit-identically by
        :meth:`load_state_dict`, whose replayed appends rebuild the sum.
        Nearest distances may be ``inf`` and are string-encoded for strict
        JSON (see :mod:`repro.utils.encoding`).
        """
        h = self._size
        return {
            "points": [int(p) for p in self._points[:h]],
            "duals": [float(d) for d in self._duals[:h]],
            "nearest": encode_floats(self._nearest[:h]),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Rebuild the buffer by replaying ``append`` (requires a fresh buffer)."""
        if self._size:
            raise SnapshotError(
                f"BidHistoryBuffer.load_state_dict requires an empty buffer; "
                f"this one already holds {self._size} entries"
            )
        nearest = decode_floats(state["nearest"])
        for point, dual, near in zip(state["points"], state["duals"], nearest):
            self.append(int(point), float(dual), near)

    # ------------------------------------------------------------------
    def base(self) -> np.ndarray:
        """``sum_j (min{dual_j, nearest_j} - d(m, j))_+`` over all points ``m``.

        Returns a read-only view of the running vector: it is the bid sum as
        of this call, and a later :meth:`append` updates it in place.
        """
        if self._dirty and self._size:
            self._base = self._reduce()
            self._dirty = not self._row_order
        view = self._base.view()
        view.flags.writeable = False
        return view

    def _reduce(self) -> np.ndarray:
        """The full reduction over all ``h`` entries, bit for bit the reference's.

        The terms are gathered ``_REDUCE_ROWS`` entries at a time into a
        C-contiguous block whose row 0 carries the total so far, so the
        block sums continue the reference's row-by-row order while only one
        chunk is resident.  A one-point metric reduces its ``(h, 1)`` block
        in one piece, as the reference does, because numpy sums it pairwise.
        """
        h = self._size
        bids = np.minimum(self._duals[:h], self._nearest[:h])
        step = _REDUCE_ROWS if self._row_order else h
        block = np.empty((min(h, step) + 1, self._metric.num_points), dtype=np.float64)
        total = None
        for start in range(0, h, step):
            stop = min(start + step, h)
            terms = block[1 : 1 + stop - start]
            # Slots are always in range; mode="clip" spares the buffered copy
            # numpy makes for ``out=`` under the default mode="raise".
            np.take(self._table, self._slots[start:stop], axis=0, out=terms, mode="clip")
            np.subtract(bids[start:stop, None], terms, out=terms)
            np.maximum(terms, 0.0, out=terms)
            if total is None:
                total = terms.sum(axis=0)
            else:
                block[0] = total
                total = block[: 1 + stop - start].sum(axis=0)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BidHistoryBuffer(entries={self._size})"
