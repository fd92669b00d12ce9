"""Declarative run specifications.

A :class:`RunSpec` describes one run — online algorithm or offline solve —
as plain data: every component is named by its registry key plus keyword
parameters, so a complete scenario fits in a JSON file::

    {
        "algorithm": "pd-omflp",
        "metric": {"kind": "uniform-line", "num_points": 8},
        "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
        "requests": [[1, [0, 1]], [6, [2]], [2, [0, 3]]],
        "seed": 0
    }

and runs end to end through :func:`repro.api.run.run` without importing a
single ``repro`` class.  Alternatively a ``scenario`` spec generates the whole
instance (``workload`` is accepted as another spelling of ``scenario``)::

    {"algorithm": "rand-omflp",
     "scenario": {"kind": "uniform", "num_requests": 50, "num_commodities": 8},
     "seed": 7}

For interactive use, live objects (an already-built metric, cost function or
algorithm) are accepted in place of declarative specs; such a ``RunSpec``
still runs but no longer serializes (``to_dict`` raises).
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms.base import OfflineSolver, OnlineAlgorithm
from repro.api.components import ALGORITHMS, COSTS, METRICS, SOLVERS
from repro.api.registry import Registry, did_you_mean
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.costs.base import FacilityCostFunction
from repro.exceptions import ExperimentError, UnknownComponentError
from repro.metric.base import MetricSpace
from repro.utils.rng import ensure_rng

__all__ = ["RunSpec", "ComponentSpec"]

#: A component reference: a registry key, a ``{"kind": key, **params}``
#: mapping, or a live object.
ComponentSpec = Union[str, Mapping[str, Any], object]


def _normalize(spec: ComponentSpec, label: str) -> ComponentSpec:
    """Canonicalize a declarative component spec to a ``{"kind": ...}`` dict."""
    if isinstance(spec, str):
        return {"kind": spec}
    if isinstance(spec, Mapping):
        if "kind" not in spec:
            raise ExperimentError(f"{label} spec mappings need a 'kind' key, got {dict(spec)!r}")
        return {str(key): value for key, value in spec.items()}
    return spec  # a live object, used as-is


def _is_declarative(spec: Optional[ComponentSpec]) -> bool:
    return spec is None or isinstance(spec, dict)


def _build_component(spec: ComponentSpec, registry: Registry, rng) -> Any:
    """Instantiate a component from its normalized spec (or pass objects through)."""
    if not isinstance(spec, dict):
        return spec
    params = {key: value for key, value in spec.items() if key != "kind"}
    kind = spec["kind"]
    if rng is not None and "rng" not in params and registry.accepts(kind, "rng"):
        params["rng"] = rng
    return registry.build(kind, **params)


@dataclass
class RunSpec:
    """A declarative description of one run.

    Attributes
    ----------
    algorithm:
        Registry key (with optional params) of an online algorithm
        (:data:`~repro.api.components.ALGORITHMS`) or an offline solver
        (:data:`~repro.api.components.SOLVERS`); which registry matches
        decides whether the run is online or offline.
    metric, cost, requests:
        Explicit instance ingredients; ``requests`` is a list of
        ``(point, commodities)`` pairs in arrival order.
    workload:
        Init-only alias of ``scenario``: a spec given as ``workload`` is
        stored, run and serialized as ``scenario`` (passing both is an
        error).
    scenario:
        Alternatively, a (possibly nested) streaming scenario spec resolved
        through :data:`repro.scenarios.SCENARIOS` that generates the whole
        instance (mutually exclusive with explicit
        ``metric``/``cost``/``requests``).  Online runs stream it through an
        :class:`~repro.api.session.OnlineSession` in bounded-memory batches;
        offline runs realize it eagerly (bit-identical by construction).
    seed:
        Seed for scenario generation and randomized algorithms.
    trace:
        Record structured trace events during online runs.
    validate:
        Validate final-solution feasibility.
    name:
        Instance name override used in result rows.
    """

    algorithm: ComponentSpec
    metric: Optional[ComponentSpec] = None
    cost: Optional[ComponentSpec] = None
    requests: Optional[Sequence[Tuple[int, Sequence[int]]]] = None
    workload: InitVar[Optional[ComponentSpec]] = None
    scenario: Optional[ComponentSpec] = None
    seed: Optional[int] = None
    trace: bool = False
    validate: bool = True
    name: Optional[str] = None

    def __post_init__(self, workload: Optional[ComponentSpec]) -> None:
        if workload is not None:
            if self.scenario is not None:
                raise ExperimentError(
                    "a RunSpec takes either a workload or a scenario, not both "
                    "('workload' is another spelling of 'scenario')"
                )
            self.scenario = workload
        self.algorithm = _normalize(self.algorithm, "algorithm")
        if self.metric is not None:
            self.metric = _normalize(self.metric, "metric")
        if self.cost is not None:
            self.cost = _normalize(self.cost, "cost")
        if self.scenario is not None:
            self.scenario = _normalize(self.scenario, "scenario")
        if self.requests is not None:
            self.requests = [
                (int(point), tuple(sorted(int(e) for e in commodities)))
                for point, commodities in self.requests
            ]
        if self.scenario is not None:
            if self.metric is not None or self.cost is not None or self.requests is not None:
                raise ExperimentError(
                    "a RunSpec takes either a scenario or explicit "
                    "metric/cost/requests, not both"
                )
        else:
            missing = [
                label
                for label, value in (
                    ("metric", self.metric),
                    ("cost", self.cost),
                    ("requests", self.requests),
                )
                if value is None
            ]
            if missing:
                raise ExperimentError(
                    "a RunSpec without a scenario needs explicit metric, cost and "
                    f"requests; missing: {', '.join(missing)}"
                )
        if self.seed is not None:
            self.seed = int(self.seed)

    # ------------------------------------------------------------------
    # Dict round-tripping
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Build a spec from its dictionary form (inverse of :meth:`to_dict`).

        A ``workload`` key is read as ``scenario``, so spec files written
        with the old spelling keep resolving.
        """
        known = {
            "algorithm",
            "metric",
            "cost",
            "requests",
            "workload",
            "scenario",
            "seed",
            "trace",
            "validate",
            "name",
        }
        unknown = set(data) - known
        if unknown:
            raise ExperimentError(
                f"unknown RunSpec keys {sorted(unknown)}; known: {sorted(known)}"
            )
        if "algorithm" not in data:
            raise ExperimentError("a RunSpec dictionary needs an 'algorithm' key")
        return cls(**{key: data[key] for key in known if key in data})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dictionary form (inverse of :meth:`from_dict`).

        Raises :class:`~repro.exceptions.ExperimentError` when the spec holds
        live objects instead of declarative component specs.
        """
        for label, value in (
            ("algorithm", self.algorithm),
            ("metric", self.metric),
            ("cost", self.cost),
            ("scenario", self.scenario),
        ):
            if not _is_declarative(value):
                raise ExperimentError(
                    f"RunSpec.{label} holds a live {type(value).__name__} object; "
                    "only declarative specs serialize to dictionaries"
                )
        data: Dict[str, Any] = {"algorithm": dict(self.algorithm)}
        if self.scenario is not None:
            data["scenario"] = copy.deepcopy(dict(self.scenario))
        else:
            data["metric"] = dict(self.metric)
            data["cost"] = dict(self.cost)
            data["requests"] = [
                [point, list(commodities)] for point, commodities in self.requests
            ]
        if self.seed is not None:
            data["seed"] = self.seed
        if self.trace:
            data["trace"] = True
        if not self.validate:
            data["validate"] = False
        if self.name is not None:
            data["name"] = self.name
        return data

    def is_declarative(self) -> bool:
        """Whether every component is named declaratively (spec serializes)."""
        return all(
            _is_declarative(value)
            for value in (
                self.algorithm,
                self.metric,
                self.cost,
                self.scenario,
            )
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def mode(self) -> str:
        """``"online"`` or ``"offline"``, from where the algorithm key resolves."""
        if isinstance(self.algorithm, dict):
            kind = self.algorithm["kind"]
            if kind in ALGORITHMS:
                return "online"
            if kind in SOLVERS:
                return "offline"
            hint = did_you_mean(str(kind), ALGORITHMS.names() + SOLVERS.names())
            raise UnknownComponentError(
                f"unknown algorithm {kind!r}{hint}; online algorithms: "
                f"{', '.join(ALGORITHMS.names())}; offline solvers: "
                f"{', '.join(SOLVERS.names())}"
            )
        if isinstance(self.algorithm, OnlineAlgorithm):
            return "online"
        if isinstance(self.algorithm, OfflineSolver):
            return "offline"
        raise ExperimentError(
            f"RunSpec.algorithm must be a registry spec, an OnlineAlgorithm or an "
            f"OfflineSolver; got {type(self.algorithm).__name__}"
        )

    def build_algorithm(self) -> Union[OnlineAlgorithm, OfflineSolver]:
        """Instantiate the named online algorithm or offline solver."""
        if not isinstance(self.algorithm, dict):
            self.mode()  # type-check live objects
            return self.algorithm
        registry = ALGORITHMS if self.mode() == "online" else SOLVERS
        return _build_component(self.algorithm, registry, None)

    def build_scenario(self):
        """Resolve the nested scenario spec into a live Scenario object."""
        if self.scenario is None:
            raise ExperimentError("this RunSpec names no scenario")
        # Imported lazily: the scenario engine pulls in generator/metric
        # stacks that plain metric/cost specs never need.
        from repro.scenarios.base import Scenario, scenario_from_dict

        if isinstance(self.scenario, Scenario):
            return self.scenario
        return scenario_from_dict(self.scenario)

    def build_instance(self, rng=None) -> Instance:
        """Materialize the instance (realizing the scenario when named).

        ``rng`` (defaulting to a generator seeded with ``seed``) is threaded
        into random metric factories.  Scenario specs realize eagerly here
        (streaming callers use :mod:`repro.scenarios.run` instead); their seed
        derivation depends only on ``self.seed``, matching the streamed path
        exactly.
        """
        if self.scenario is not None:
            from repro.scenarios.run import derive_session_seeds

            scenario_seed, _ = derive_session_seeds(self.seed)
            workload = self.build_scenario().realize(scenario_seed)
            instance = workload.instance
            if self.name is not None:
                instance.name = self.name
            return instance
        generator = ensure_rng(self.seed if rng is None else rng)
        metric = _build_component(self.metric, METRICS, generator)
        if not isinstance(metric, MetricSpace):
            raise ExperimentError(f"metric spec built a {type(metric).__name__}")
        cost = _build_component(self.cost, COSTS, generator)
        if not isinstance(cost, FacilityCostFunction):
            raise ExperimentError(f"cost spec built a {type(cost).__name__}")
        instance = Instance(
            metric, cost, RequestSequence.from_tuples(self.requests), name="spec"
        )
        if self.name is not None:
            instance.name = self.name
        return instance

    def normalized(self) -> Dict[str, Any]:
        """Resolve every component *without running* and return the canonical dict.

        This is the ``repro spec --validate-only`` backend: the algorithm key
        is resolved (deciding the mode, with did-you-mean on typos) and its
        parameters signature-checked, metric/cost specs are checked against
        their registries, and scenario specs are fully constructed —
        which validates nested children and parameter ranges — then
        re-serialized with all defaults materialized.
        """
        if not self.is_declarative():
            raise ExperimentError(
                "only fully declarative specs can be validated and normalized"
            )
        data = self.to_dict()
        mode = self.mode()
        registry = ALGORITHMS if mode == "online" else SOLVERS
        registry.check_params(
            self.algorithm["kind"],
            {key: value for key, value in self.algorithm.items() if key != "kind"},
        )
        for label, spec, component_registry in (
            ("metric", self.metric, METRICS),
            ("cost", self.cost, COSTS),
        ):
            if isinstance(spec, dict):
                component_registry.check_params(
                    spec["kind"],
                    {key: value for key, value in spec.items() if key != "kind"},
                )
        if self.scenario is not None:
            data["scenario"] = self.build_scenario().to_dict()
        return data
