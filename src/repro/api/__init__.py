"""The unified facade of the OMFLP reproduction.

This subpackage is the canonical way to construct and run anything in the
library:

* **Registries** (:mod:`repro.api.components`) — string-keyed factories for
  metrics, cost functions, online algorithms and offline solvers,
  so that scenarios are describable as plain dicts/JSON.
* **Declarative runs** (:mod:`repro.api.spec`, :mod:`repro.api.run`) — a
  :class:`RunSpec` names every component; :func:`run` executes it and
  :func:`run_many` / :func:`run_grid` scatter batches over the process pool.
  All runs return a unified :class:`RunRecord`.
* **Streaming sessions** (:mod:`repro.api.session`) — :class:`OnlineSession`
  feeds requests to an online algorithm one at a time (unknown-length
  streams, the paper's true online model) with O(1) incremental cost
  accounting per request.  Sessions are durable: ``snapshot()`` captures a
  restorable JSON codec form and ``OnlineSession.restore`` continues the
  stream bit-identically; :mod:`repro.service` hosts many named sessions
  behind the ``repro serve`` wire protocol.

Quickstart
----------
>>> from repro.api import RunSpec, run
>>> record = run(RunSpec.from_dict({
...     "algorithm": "pd-omflp",
...     "metric": {"kind": "uniform-line", "num_points": 8},
...     "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
...     "requests": [[1, [0, 1]], [6, [2]], [2, [0, 3]]],
... }))
>>> record.total_cost > 0
True
"""

from repro.api.components import ALGORITHMS, COSTS, METRICS, SOLVERS
from repro.api.record import RunRecord, records_to_csv
from repro.api.registry import Registry
from repro.api.run import run, run_grid, run_many
from repro.api.session import AssignmentEvent, OnlineSession
from repro.api.spec import ComponentSpec, RunSpec

__all__ = [
    "Registry",
    "METRICS",
    "COSTS",
    "ALGORITHMS",
    "SOLVERS",
    "ComponentSpec",
    "RunSpec",
    "RunRecord",
    "records_to_csv",
    "run",
    "run_many",
    "run_grid",
    "AssignmentEvent",
    "OnlineSession",
]
