"""Unified run entry points: one spec in, one :class:`RunRecord` out.

:func:`run` executes a single :class:`~repro.api.spec.RunSpec` (or its dict
form); :func:`run_many` scatters a batch of specs over the process pool of
:mod:`repro.parallel.pool`; :func:`run_grid` expands a
:class:`~repro.analysis.sweep.ParameterGrid` against a base spec, using dotted
keys (``"scenario.num_requests"``, ``"cost.exponent_x"``, ``"seed"``) to
target nested component parameters.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.algorithms.base import run_online
from repro.api.record import RunRecord
from repro.api.spec import RunSpec
from repro.exceptions import ExperimentError
from repro.parallel.pool import ParallelConfig, parallel_map
from repro.utils.rng import ensure_rng

__all__ = ["run", "run_many", "run_grid"]

SpecLike = Union[RunSpec, Mapping[str, Any]]


def _coerce_spec(spec: SpecLike) -> RunSpec:
    if isinstance(spec, RunSpec):
        return spec
    if isinstance(spec, Mapping):
        return RunSpec.from_dict(spec)
    raise ExperimentError(
        f"run() takes a RunSpec or its dictionary form, got {type(spec).__name__}"
    )


def run(spec: SpecLike) -> RunRecord:
    """Execute one run described by ``spec``.

    The spec's ``algorithm`` key decides the mode: online algorithm names run
    through the streaming online loop, offline solver names call ``solve`` on
    the materialized instance.  The originating spec (when declarative) is
    recorded on the result for provenance.
    """
    spec = _coerce_spec(spec)
    if spec.scenario is not None:
        # Scenario specs stream: online runs feed an OnlineSession in
        # bounded-memory batches (never materializing the instance), offline
        # runs realize the bit-identical eager form.  Imported lazily to keep
        # plain runs free of the scenario stack.
        from repro.scenarios.run import run_spec_streamed

        return run_spec_streamed(spec)
    generator = ensure_rng(spec.seed)
    instance = spec.build_instance(generator)
    component = spec.build_algorithm()
    spec_dict = spec.to_dict() if spec.is_declarative() else None
    if spec.mode() == "online":
        result = run_online(
            component, instance, rng=generator, trace=spec.trace, validate=spec.validate
        )
        return RunRecord.from_online_result(
            result, num_requests=instance.num_requests, seed=spec.seed, spec=spec_dict
        )
    result = component.solve(instance)
    return RunRecord.from_offline_result(
        result, num_requests=instance.num_requests, seed=spec.seed, spec=spec_dict
    )


def run_many(
    specs: Iterable[SpecLike],
    *,
    workers: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[RunRecord]:
    """Execute many specs, optionally scattered over a process pool.

    With ``workers > 1`` the specs must be declarative (plain data crosses
    process boundaries; live algorithm or metric objects may not pickle).
    Results come back in input order regardless of scheduling.
    """
    spec_list = [_coerce_spec(spec) for spec in specs]
    return parallel_map(
        run, spec_list, config=ParallelConfig(workers=workers, chunk_size=chunk_size)
    )


def _set_dotted(data: Dict[str, Any], key: str, value: Any) -> None:
    """Set ``"a.b.c"`` in nested dicts, creating intermediate levels.

    A leading ``workload`` part addresses ``scenario``, the key a
    ``workload`` spec is stored under.
    """
    parts = key.split(".")
    if parts[0] == "workload":
        parts[0] = "scenario"
    target = data
    for part in parts[:-1]:
        node = target.setdefault(part, {})
        if not isinstance(node, dict):
            raise ExperimentError(
                f"grid key {key!r} descends into non-mapping spec entry {part!r}"
            )
        target = node
    target[parts[-1]] = value


def run_grid(
    base: SpecLike,
    grid: "Iterable[Mapping[str, Any]]",
    *,
    workers: Optional[int] = 1,
    chunk_size: Optional[int] = None,
) -> List[RunRecord]:
    """Run ``base`` once per grid point, overriding spec entries per point.

    ``grid`` is any iterable of parameter dictionaries — typically a
    :class:`~repro.analysis.sweep.ParameterGrid`.  Keys address spec entries,
    with dots descending into component specs::

        run_grid(
            {"algorithm": "pd-omflp",
             "scenario": {"kind": "uniform", "num_requests": 30, "num_commodities": 8}},
            ParameterGrid({"scenario.num_commodities": [4, 8, 16], "seed": [0, 1]}),
        )

    The base spec must be declarative (grid overrides rewrite its dict form).
    """
    base_dict = _coerce_spec(base).to_dict()
    specs: List[RunSpec] = []
    for point in grid:
        spec_dict = copy.deepcopy(base_dict)
        for key, value in point.items():
            _set_dotted(spec_dict, key, value)
        specs.append(RunSpec.from_dict(spec_dict))
    return run_many(specs, workers=workers, chunk_size=chunk_size)
