"""Incremental distance-cache acceleration for the online hot paths.

Every online algorithm in this reproduction repeatedly answers the same two
families of distance queries per arriving request:

* ``d(r, F)`` against a *growing* facility set (and per-commodity /
  large-facility subsets of it) — accelerated by
  :class:`~repro.accel.tracker.NearestSetTracker`: O(n) fold per facility
  opening, O(1) per query, instead of a fresh O(|F|)-point scan per query;
* ``d(C_i, r)`` against the *static* facility cost classes — accelerated by
  :class:`~repro.accel.classes.ClassDistanceIndex`: one precomputed
  ``(classes, n)`` table, O(1) per query, instead of an O(n) scan per class
  per request.

The primal–dual algorithms additionally need, each arrival, the bid sum over
their whole request history, which the reference path rebuilds in O(h x n);
:class:`~repro.accel.history.BidHistoryBuffer` keeps that sum as a running
vector, O(n) per new entry, and re-reduces the history only after an opening
changed some bid.

All three structures are **bit-identical** to the reference scans they
replace (same floats, same tie-breaks, same numpy reduction orders); the
equivalence harness ``tests/test_accel_equivalence.py`` pins this for every
algorithm x metric x workload x seed combination.  The reference path is
reachable through one per-run switch, the session's ``use_accel=False``
(``run_online``, ``OnlineSession``, ``ScenarioSession``, the service's
``create``, ``repro serve --no-accel``): :class:`~repro.core.state.OnlineState`
owns the flag, and the facility store and every algorithm read it there.
"""

from repro.accel.classes import ClassDistanceIndex
from repro.accel.history import BidHistoryBuffer
from repro.accel.tracker import NearestSetTracker

__all__ = ["NearestSetTracker", "ClassDistanceIndex", "BidHistoryBuffer"]
