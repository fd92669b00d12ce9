"""Tests for JSON instance serialization."""

import json

import pytest

from repro.algorithms.base import run_online
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.core.serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from repro.costs.count_based import AdversaryCost, ConstantCost, LinearCost, PowerCost
from repro.costs.general import WeightedConcaveCost
from repro.costs.hierarchical import HierarchicalCost
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.exceptions import InvalidInstanceError
from repro.metric.factories import uniform_line_metric
from tests.conftest import realize


class TestRoundTrip:
    def test_costs_and_distances_preserved(self, small_instance):
        clone = instance_from_dict(instance_to_dict(small_instance))
        assert clone.num_requests == small_instance.num_requests
        assert clone.num_commodities == small_instance.num_commodities
        assert clone.num_points == small_instance.num_points
        # Distances and costs agree, so algorithm behaviour is identical.
        assert clone.metric.distance(0, 4) == pytest.approx(small_instance.metric.distance(0, 4))
        original = run_online(PDOMFLPAlgorithm(), small_instance)
        reloaded = run_online(PDOMFLPAlgorithm(), clone)
        assert reloaded.total_cost == pytest.approx(original.total_cost)

    @pytest.mark.parametrize(
        "cost",
        [
            PowerCost(3, 1.5, scale=2.0),
            LinearCost(3, scale=0.5),
            ConstantCost(3, scale=3.0),
            AdversaryCost(9),
            WeightedConcaveCost([1.0, 2.0, 3.0]),
            LinearCost(3, point_scales=[1.0, 2.0, 1.0, 4.0]),
        ],
    )
    def test_all_supported_cost_families(self, cost):
        metric = uniform_line_metric(4)
        requests = RequestSequence.from_tuples([(0, {0, 1}), (3, {2})])
        instance = Instance(metric, cost, requests, name="roundtrip")
        clone = instance_from_dict(instance_to_dict(instance))
        for point in range(4):
            assert clone.cost_function.cost(point, {0, 2}) == pytest.approx(
                cost.cost(point, {0, 2})
            )
            assert clone.cost_function.full_cost(point) == pytest.approx(cost.full_cost(point))

    def test_named_commodities_preserved(self):
        workload = realize("uniform", 0, num_requests=5, num_commodities=3, num_points=4)
        data = instance_to_dict(workload.instance)
        clone = instance_from_dict(data)
        assert clone.commodities.name_of(1) == workload.instance.commodities.name_of(1)

    def test_file_round_trip(self, small_instance, tmp_path):
        path = save_instance(small_instance, tmp_path / "nested" / "instance.json")
        assert path.exists()
        clone = load_instance(path)
        assert clone.name == small_instance.name
        assert clone.num_requests == small_instance.num_requests
        # The file is plain JSON.
        parsed = json.loads(path.read_text())
        assert parsed["format_version"] == 1


class TestErrors:
    def test_unsupported_cost_function(self):
        metric = uniform_line_metric(3)
        cost = HierarchicalCost.balanced(4)
        instance = Instance(metric, cost, RequestSequence.from_tuples([(0, {0})]))
        with pytest.raises(InvalidInstanceError):
            instance_to_dict(instance)

    def test_unknown_format_version(self, small_instance):
        data = instance_to_dict(small_instance)
        data["format_version"] = 99
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(data)

    def test_unknown_cost_kind(self, small_instance):
        data = instance_to_dict(small_instance)
        data["cost_function"] = {"kind": "mystery"}
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(data)

    def test_unknown_metric_kind(self, small_instance):
        data = instance_to_dict(small_instance)
        data["metric"]["kind"] = "implicit"
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(data)
