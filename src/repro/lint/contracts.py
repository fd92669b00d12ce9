"""Contract rules: registry introspection over the live component catalog.

Where the determinism rules read *source*, these rules read the *registries*:
they import the real component catalog (ALGORITHMS, SCENARIOS, SOLVERS, …)
and verify that every registered component honors the cross-cutting contracts
the rest of the system is built on:

``con-state-dict-pair``
    Every online algorithm must define ``state_dict``/``load_state_dict`` as
    a *pair* (inheriting both stateless defaults is fine; overriding one
    without the other silently breaks snapshot/resume — a snapshot captured
    by the inherited half cannot restore the overridden half).

``con-scenario-hooks``
    Every scenario must expose the streaming surface
    (:meth:`~repro.scenarios.base.Scenario.shape`, ``to_dict``, an ``open``-ed
    stream with ``take``/``observe``/``state_dict``/``load_state_dict``, and
    an ``observe`` hook accepting one feedback event) — the combinator,
    session and service layers call all of these unconditionally.

``con-strict-params``
    Registries that promise strict kwarg validation must be able to deliver
    it: ``strict_params`` must be on, and no registered builder may hide its
    signature behind ``**kwargs`` (which would turn a typo'd spec key into a
    silent no-op instead of a named error).

``con-strict-json``
    Everything that serializes — scenario ``to_dict``/stream ``state_dict``,
    and each online algorithm's ``state_dict`` after a short smoke run — must
    emit only strict-JSON literal types.  NumPy scalars compare equal to
    Python floats but serialize differently (or not at all), so one leaked
    ``np.float64`` means a snapshot that either crashes ``json.dumps`` or
    changes a content hash.

Findings anchor at the defining source line of the offending class (via
:mod:`inspect`), so a ``# repro: noqa[...] -- reason`` on the ``class``
statement can waive them like any AST finding.
"""

from __future__ import annotations

import inspect
import os
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.api.registry import Registry
from repro.lint.findings import Finding
from repro.lint.rules import project_rule

__all__ = ["ContractContext"]

#: JSON literal types, matched *exactly* (``np.float64`` subclasses ``float``
#: and ``bool`` subclasses ``int``, so ``isinstance`` checks would let NumPy
#: scalars through).
_JSON_SCALARS = (str, int, float, bool, type(None))


def _strict_json_violations(value: Any, where: str = "$") -> Iterator[str]:
    """Paths inside ``value`` holding non-strict-JSON types."""
    if type(value) in (dict,):
        for key, entry in value.items():
            if type(key) is not str:
                yield f"{where}: non-string key {key!r} ({type(key).__name__})"
            yield from _strict_json_violations(entry, f"{where}.{key}")
    elif type(value) in (list,):
        for index, entry in enumerate(value):
            yield from _strict_json_violations(entry, f"{where}[{index}]")
    elif type(value) not in _JSON_SCALARS:
        yield f"{where}: {type(value).__name__} is not a strict-JSON literal"


class ContractContext:
    """The registries a contract pass introspects.

    Defaults to the library's real catalog (imported lazily, so pure-AST lint
    runs never pay the import); tests inject small fake registries to pin
    each rule's positive and negative cases.
    """

    def __init__(
        self,
        *,
        algorithms: Optional[Registry] = None,
        scenarios: Optional[Registry] = None,
        scenario_examples: Optional[Mapping[str, Mapping[str, Any]]] = None,
        strict_registries: Optional[Mapping[str, Registry]] = None,
        param_registries: Optional[Mapping[str, Registry]] = None,
        smoke_run: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self._algorithms = algorithms
        self._scenarios = scenarios
        self._scenario_examples = scenario_examples
        self._strict_registries = strict_registries
        self._param_registries = param_registries
        self._smoke_run = smoke_run

    # ------------------------------------------------------------------
    # Lazy catalog access
    # ------------------------------------------------------------------
    @property
    def algorithms(self) -> Registry:
        if self._algorithms is None:
            from repro.api.components import ALGORITHMS

            self._algorithms = ALGORITHMS
        return self._algorithms

    @property
    def scenarios(self) -> Registry:
        if self._scenarios is None:
            from repro.scenarios import SCENARIOS

            self._scenarios = SCENARIOS
        return self._scenarios

    @property
    def scenario_examples(self) -> Mapping[str, Mapping[str, Any]]:
        if self._scenario_examples is None:
            from repro.scenarios import EXAMPLE_SPECS

            self._scenario_examples = EXAMPLE_SPECS
        return self._scenario_examples

    @property
    def strict_registries(self) -> Mapping[str, Registry]:
        """Registries that *must* enforce strict kwarg validation."""
        if self._strict_registries is None:
            from repro.scenarios import SCENARIOS

            self._strict_registries = {"scenario": SCENARIOS}
        return self._strict_registries

    @property
    def param_registries(self) -> Mapping[str, Registry]:
        """Registries whose builders must expose introspectable signatures."""
        if self._param_registries is None:
            from repro.api.components import ALGORITHMS, COSTS, METRICS, SOLVERS
            from repro.engine.tasks import TASKS
            from repro.scenarios import SCENARIOS

            self._param_registries = {
                "metric": METRICS,
                "cost": COSTS,
                "algorithm": ALGORITHMS,
                "solver": SOLVERS,
                "scenario": SCENARIOS,
                "engine-task": TASKS,
            }
        return self._param_registries

    # ------------------------------------------------------------------
    def build_algorithm(self, name: str) -> Any:
        """Instantiate a registered algorithm for the dynamic checks.

        Builders whose constructor requires parameters (e.g. ``threshold-pd``
        needs ``num_commodities``) get them filled from the smoke
        environment's dimensions, the same values a RunSpec would pass.
        """
        builder = self.algorithms.get(name)
        accepted = self.algorithms.accepted_params(name) or []
        params = {key: value for key, value in _SMOKE_PARAMS.items() if key in accepted}
        try:
            return builder(**params)
        except TypeError:
            return builder()

    def smoke_run(self, algorithm: Any) -> None:
        """Drive ``algorithm`` through a tiny deterministic instance.

        Tries the multi-commodity environment first, then a single-commodity
        one, so ``|S| = 1`` substrates (Meyerson/Fotakis OFL) pass their
        precondition while the OMFLP algorithms see a real commodity mix.
        """
        if self._smoke_run is not None:
            self._smoke_run(algorithm)
            return
        from repro.algorithms.base import run_online
        from repro.core.instance import Instance
        from repro.core.requests import RequestSequence
        from repro.costs.count_based import PowerCost
        from repro.metric.factories import uniform_line_metric

        candidates = [
            (_SMOKE_PARAMS["num_commodities"], [(0, {0}), (2, {1}), (4, {2}), (1, {1})]),
            (1, [(0, {0}), (2, {0}), (4, {0}), (1, {0})]),
        ]
        last_error: Optional[Exception] = None
        for num_commodities, tuples in candidates:
            instance = Instance(
                uniform_line_metric(_SMOKE_PARAMS["num_points"]),
                PowerCost(num_commodities=num_commodities, exponent_x=1.0),
                RequestSequence.from_tuples(tuples),
                name="lint-smoke",
            )
            try:
                run_online(algorithm, instance, rng=0)
                return
            except Exception as error:
                last_error = error
        assert last_error is not None
        raise last_error


#: Environment dimensions of the contract smoke run; doubles as the pool of
#: constructor parameters for algorithms whose builders require them.
_SMOKE_PARAMS: Dict[str, int] = {"num_points": 5, "num_commodities": 3}


# ----------------------------------------------------------------------
# Anchoring
# ----------------------------------------------------------------------
def _anchor(obj: Any) -> Tuple[str, int]:
    """``(path, line)`` of the definition of ``obj`` (class preferred).

    Paths are relativized to the working directory when possible so contract
    findings format like AST findings (``src/repro/...``) and line up with
    the suppression maps the runner loads by path.
    """
    target = obj if inspect.isclass(obj) or inspect.isfunction(obj) else type(obj)
    try:
        path = inspect.getsourcefile(target) or "<unknown>"
        line = inspect.getsourcelines(target)[1]
    except (OSError, TypeError):
        return "<unknown>", 1
    try:
        relative = os.path.relpath(path)
        if not relative.startswith(".."):
            path = relative
    except ValueError:  # different drive on win32
        pass
    return path, line


def _contract_finding(rule_id: str, obj: Any, message: str, hint: str) -> Finding:
    path, line = _anchor(obj)
    return Finding(
        rule_id=rule_id, path=path, line=line, column=1, message=message, hint=hint
    )


def _definers(cls: type, method: str, stop: Optional[type]) -> List[type]:
    """Classes in ``cls``'s MRO (strictly below ``stop``) defining ``method``."""
    below: List[type] = []
    for klass in cls.__mro__:
        if klass is stop or klass is object:
            break
        if method in vars(klass):
            below.append(klass)
    return below


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@project_rule(
    "con-state-dict-pair",
    summary="online algorithm overrides state_dict xor load_state_dict",
    threat="a snapshot captured by one half cannot be restored by the inherited "
    "other half, so resume silently diverges from the uninterrupted run",
    hint="override both hooks (or neither, for stateless algorithms)",
)
def check_state_dict_pair(ctx: ContractContext) -> Iterator[Finding]:
    from repro.algorithms.base import OnlineAlgorithm

    for name in ctx.algorithms.names():
        builder = ctx.algorithms.get(name)
        if inspect.isclass(builder):
            cls = builder
        else:
            try:
                cls = type(ctx.build_algorithm(name))
            except Exception as error:  # registry misuse is itself a finding
                yield _contract_finding(
                    "con-state-dict-pair",
                    builder,
                    f"algorithm {name!r} could not be instantiated for contract "
                    f"checks: {error}",
                    "ALGORITHMS factories must work from smoke-run parameters",
                )
                continue
        if not (isinstance(cls, type) and issubclass(cls, OnlineAlgorithm)):
            continue
        has_state = bool(_definers(cls, "state_dict", OnlineAlgorithm))
        has_load = bool(_definers(cls, "load_state_dict", OnlineAlgorithm))
        if has_state != has_load:
            defined, missing = (
                ("state_dict", "load_state_dict")
                if has_state
                else ("load_state_dict", "state_dict")
            )
            yield _contract_finding(
                "con-state-dict-pair",
                cls,
                f"algorithm {name!r} ({cls.__name__}) overrides {defined} "
                f"without {missing}",
                f"implement {missing} so snapshot and restore stay paired",
            )


@project_rule(
    "con-scenario-hooks",
    summary="scenario missing part of the streaming surface",
    threat="combinators, sessions and the service layer call shape/to_dict/"
    "take/observe/state_dict unconditionally; a missing hook fails only at "
    "stream time, deep inside a run",
    hint="subclass repro.scenarios.base.Scenario/ScenarioStream rather than "
    "duck-typing the surface",
)
def check_scenario_hooks(ctx: ContractContext) -> Iterator[Finding]:
    for kind in ctx.scenarios.names():
        example = ctx.scenario_examples.get(kind)
        if example is None:
            continue  # third-party kind without a catalog example
        try:
            scenario = ctx.scenarios.build(kind, **{
                key: value for key, value in example.items() if key != "kind"
            })
        except Exception as error:
            yield _contract_finding(
                "con-scenario-hooks",
                ctx.scenarios.get(kind),
                f"scenario {kind!r} could not be built from its catalog "
                f"example: {error}",
                "keep EXAMPLE_SPECS in sync with the scenario's parameters",
            )
            continue
        for method in ("shape", "to_dict", "open"):
            if not callable(getattr(scenario, method, None)):
                yield _contract_finding(
                    "con-scenario-hooks",
                    scenario,
                    f"scenario {kind!r} has no callable {method}()",
                    "inherit the hook from repro.scenarios.base.Scenario",
                )
                break
        else:
            shape = scenario.shape()
            if shape is not None and (
                not isinstance(shape, tuple)
                or len(shape) != 2
                or not all(type(item) is int for item in shape)
            ):
                yield _contract_finding(
                    "con-scenario-hooks",
                    scenario,
                    f"scenario {kind!r} shape() returned {shape!r}; the contract "
                    "is None or a (num_points, num_commodities) int pair",
                    "return None when the shape is unknown before opening",
                )
            try:
                stream = scenario.open(0)
            except Exception as error:
                yield _contract_finding(
                    "con-scenario-hooks",
                    scenario,
                    f"scenario {kind!r} failed to open a stream: {error}",
                    "open(seed) must bind any valid scenario to a stream",
                )
                continue
            for method in ("take", "observe", "state_dict", "load_state_dict"):
                if not callable(getattr(stream, method, None)):
                    yield _contract_finding(
                        "con-scenario-hooks",
                        scenario,
                        f"stream of scenario {kind!r} has no callable {method}()",
                        "inherit from repro.scenarios.base.ScenarioStream",
                    )
            observe = getattr(stream, "observe", None)
            if callable(observe):
                try:
                    inspect.signature(observe).bind(object())
                except TypeError:
                    yield _contract_finding(
                        "con-scenario-hooks",
                        scenario,
                        f"stream of scenario {kind!r} has an observe() that does "
                        "not accept one feedback event",
                        "match the ScenarioStream.observe(event) signature",
                    )


@project_rule(
    "con-strict-params",
    summary="registry cannot enforce strict kwarg validation",
    threat="a typo'd spec key silently becomes a default-valued run instead of "
    "a named error, so two differently spelled specs collide on one result",
    hint="enable strict_params on the registry and avoid **kwargs builders",
)
def check_strict_params(ctx: ContractContext) -> Iterator[Finding]:
    for kind, registry in ctx.strict_registries.items():
        if not registry.strict_params:
            yield _contract_finding(
                "con-strict-params",
                type(registry),
                f"{kind} registry does not enforce strict_params",
                f'construct it as Registry("{kind}", strict_params=True)',
            )
    for kind, registry in ctx.param_registries.items():
        for name in registry.names():
            if registry.accepted_params(name) is None:
                yield _contract_finding(
                    "con-strict-params",
                    registry.get(name),
                    f"{kind} {name!r} hides its parameters behind **kwargs, so "
                    "spec keys cannot be validated against it",
                    "declare explicit keyword parameters on the builder",
                )


@project_rule(
    "con-strict-json",
    summary="to_dict/state_dict leaks non-strict-JSON types (NumPy scalars, tuples)",
    threat="a leaked np.float64 either crashes json.dumps or changes the "
    "serialized form, breaking snapshots and content-addressed store keys",
    hint="convert with int()/float()/list() at the serialization boundary",
)
def check_strict_json(ctx: ContractContext) -> Iterator[Finding]:
    from repro.algorithms.base import OnlineAlgorithm

    # Scenario declarative forms and stream snapshots.
    for kind in ctx.scenarios.names():
        example = ctx.scenario_examples.get(kind)
        if example is None:
            continue
        try:
            scenario = ctx.scenarios.build(kind, **{
                key: value for key, value in example.items() if key != "kind"
            })
            declared = scenario.to_dict()
        except Exception:
            continue  # con-scenario-hooks already reports build failures
        for violation in _strict_json_violations(declared):
            yield _contract_finding(
                "con-strict-json",
                scenario,
                f"scenario {kind!r} to_dict() leaks a non-JSON type ({violation})",
                "normalize params to str/int/float/bool/None/list/dict",
            )
        try:
            stream = scenario.open(0)
            stream.take(3)
            state = stream.state_dict()
        except Exception:
            continue
        for violation in _strict_json_violations(state):
            yield _contract_finding(
                "con-strict-json",
                scenario,
                f"stream state_dict() of scenario {kind!r} leaks a non-JSON "
                f"type ({violation})",
                "encode arrays/scalars like repro.utils.rng.rng_state does",
            )

    # Algorithm snapshots after a short real run.
    for name in ctx.algorithms.names():
        try:
            algorithm = ctx.build_algorithm(name)
        except Exception:
            continue  # con-state-dict-pair already reports this
        if not isinstance(algorithm, OnlineAlgorithm):
            continue
        try:
            ctx.smoke_run(algorithm)
            state = algorithm.state_dict()
        except Exception as error:
            yield _contract_finding(
                "con-strict-json",
                type(algorithm),
                f"algorithm {name!r} failed the state_dict smoke run: {error}",
                "state_dict() must be callable after any prefix of a run",
            )
            continue
        for violation in _strict_json_violations(state):
            yield _contract_finding(
                "con-strict-json",
                type(algorithm),
                f"algorithm {name!r} state_dict() leaks a non-JSON type "
                f"({violation})",
                "convert NumPy scalars with int()/float() before returning",
            )
