"""Tests for the closing-remarks heavy-commodity remedy and the arrival-order experiment."""

import numpy as np
import pytest

from repro.algorithms.base import run_online
from repro.algorithms.online.threshold import ThresholdPDAlgorithm
from repro.core.instance import Instance
from repro.costs.count_based import PowerCost
from repro.costs.general import WeightedConcaveCost
from repro.costs.heavy import (
    condition_one_holds_without,
    detect_heavy_commodities,
    heavy_aware_pd,
)
from repro.exceptions import InvalidCostFunctionError
from repro.experiments import run_experiment
from tests.conftest import realize


class TestHeavyDetection:
    def test_no_heavy_commodities_under_condition_one(self):
        cost = PowerCost(6, 1.0)
        assert detect_heavy_commodities(cost, [0]) == frozenset()

    def test_detects_the_skewed_commodity(self):
        cost = WeightedConcaveCost([1.0, 1.0, 1.0, 100.0])
        heavy = detect_heavy_commodities(cost, [0])
        assert 3 in heavy
        assert len(heavy) <= 2

    def test_condition_one_holds_without_detected_set(self):
        cost = WeightedConcaveCost([1.0, 1.0, 1.0, 1.0, 400.0])
        heavy = detect_heavy_commodities(cost, [0])
        assert condition_one_holds_without(cost, heavy, [0])
        assert not condition_one_holds_without(cost, frozenset(), [0])

    def test_max_excluded_caps_the_search(self):
        cost = WeightedConcaveCost([1.0, 50.0, 60.0, 70.0])
        heavy = detect_heavy_commodities(cost, [0], max_excluded=1)
        assert len(heavy) <= 1

    def test_requires_points(self):
        with pytest.raises(InvalidCostFunctionError):
            detect_heavy_commodities(PowerCost(3, 1.0), [])

    def test_heavy_aware_pd_builds_restricted_algorithm(self):
        cost = WeightedConcaveCost([1.0, 1.0, 1.0, 200.0])
        algorithm, excluded = heavy_aware_pd(cost, [0])
        assert isinstance(algorithm, ThresholdPDAlgorithm)
        assert excluded == algorithm.excluded
        assert 3 in excluded

    def test_heavy_aware_pd_runs_feasibly(self):
        cost = WeightedConcaveCost([1.0, 1.0, 1.0, 200.0])
        requests = realize(
            "uniform", 0, num_requests=12, num_commodities=4, num_points=6
        ).instance
        instance = Instance(requests.metric, cost, requests.requests)
        algorithm, excluded = heavy_aware_pd(cost, list(range(6)))
        result = run_online(algorithm, instance)
        result.solution.validate(instance.requests)
        # Heavy commodities never appear in multi-commodity facilities.
        for facility in result.solution.facilities:
            if len(facility.configuration) > 1:
                assert not (facility.configuration & excluded)


class TestExtensionExperiments:
    def test_heavy_commodities_experiment(self):
        result = run_experiment("heavy-commodities", profile="quick", rng=0)
        assert result.rows
        algorithms = {row["algorithm"] for row in result.rows}
        assert {"pd-omflp", "pd-omflp-heavy-excluded", "per-commodity-fotakis"} <= algorithms
        for row in result.rows:
            assert row["cost"] > 0
            assert row["reference_cost"] > 0

    def test_arrival_order_experiment(self):
        result = run_experiment("arrival-order", profile="quick", rng=0)
        assert result.rows
        for row in result.rows:
            assert row["adversarial_order_cost"] > 0
            assert row["random_order_cost"] > 0
            assert row["adversarial_over_random"] > 0.3
        assert any("adversarial-order cost" in note for note in result.notes)

    def test_new_experiments_registered(self):
        from repro.experiments import list_experiments

        ids = set(list_experiments())
        assert "heavy-commodities" in ids
        assert "arrival-order" in ids
