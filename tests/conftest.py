"""Shared fixtures and helpers for the OMFLP reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.costs.count_based import AdversaryCost, ConstantCost, LinearCost, PowerCost
from repro.metric.line import LineMetric
from repro.metric.matrix import ExplicitMetric
from repro.metric.single_point import SinglePointMetric
from repro.metric.factories import uniform_line_metric
from repro.scenarios import GeneratedWorkload, scenario_from_dict


@pytest.fixture
def line_metric() -> LineMetric:
    """Five equally spaced points on [0, 1]."""
    return uniform_line_metric(5)


@pytest.fixture
def square_metric() -> ExplicitMetric:
    """A 4-point metric given explicitly (unit square under L1)."""
    matrix = [
        [0.0, 1.0, 1.0, 2.0],
        [1.0, 0.0, 2.0, 1.0],
        [1.0, 2.0, 0.0, 1.0],
        [2.0, 1.0, 1.0, 0.0],
    ]
    return ExplicitMetric(matrix)


@pytest.fixture
def sqrt_cost() -> PowerCost:
    """Class-C cost with x = 1 (square root) over 4 commodities."""
    return PowerCost(num_commodities=4, exponent_x=1.0)


@pytest.fixture
def small_instance(line_metric, sqrt_cost) -> Instance:
    """A 5-request instance over 4 commodities on the line."""
    requests = RequestSequence.from_tuples(
        [
            (0, {0, 1}),
            (4, {2}),
            (2, {0, 3}),
            (1, {0, 1, 2, 3}),
            (3, {1}),
        ]
    )
    return Instance(line_metric, sqrt_cost, requests, name="small-line")


@pytest.fixture
def tiny_instance() -> Instance:
    """A 4-request, 3-commodity, 4-point instance small enough for brute force."""
    metric = uniform_line_metric(4)
    cost = PowerCost(num_commodities=3, exponent_x=1.0)
    requests = RequestSequence.from_tuples(
        [(1, {0, 1}), (3, {2}), (2, {0, 2}), (1, {0, 1, 2})]
    )
    return Instance(metric, cost, requests, name="tiny-line")


@pytest.fixture
def single_point_instance_constant() -> Instance:
    """All 6 commodities requested one at a time at a single point, constant cost."""
    requests = RequestSequence.from_tuples([(0, {e}) for e in range(6)])
    return Instance(SinglePointMetric(), ConstantCost(6), requests, name="single-point-constant")


def realize(kind: str, seed: int, **params) -> GeneratedWorkload:
    """Realize a bounded scenario of ``kind`` (e.g. ``"uniform"``) at ``seed``."""
    return scenario_from_dict({"kind": kind, **params}).realize(seed)


def random_small_instance(seed: int, *, num_requests: int = 10, num_commodities: int = 3,
                          num_points: int = 5) -> Instance:
    """Deterministic small random instance for cross-algorithm comparisons."""
    return realize(
        "uniform",
        seed,
        num_requests=num_requests,
        num_commodities=num_commodities,
        num_points=num_points,
        max_demand=min(num_commodities, 3),
    ).instance
