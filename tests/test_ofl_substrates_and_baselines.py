"""Tests for the single-commodity OFL substrates and the greedy baselines."""

import numpy as np
import pytest

from repro.algorithms.base import run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.online.always_large import AlwaysLargeGreedy
from repro.algorithms.online.fotakis_ofl import FotakisOFLAlgorithm, SingleCommodityPrimalDual
from repro.algorithms.online.meyerson_ofl import MeyersonOFLAlgorithm, SingleCommodityMeyerson
from repro.algorithms.online.no_prediction import NoPredictionGreedy
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.per_commodity import PerCommodityAlgorithm
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.core.state import OnlineState
from repro.costs.count_based import AdversaryCost, ConstantCost, LinearCost
from repro.costs.general import PerPointScaledCost
from repro.exceptions import AlgorithmError
from repro.metric.factories import uniform_line_metric
from repro.metric.single_point import SinglePointMetric
from tests.conftest import realize


def single_commodity_instance(num_requests: int = 10, seed: int = 0) -> Instance:
    return realize(
        "uniform",
        seed,
        num_requests=num_requests,
        num_commodities=1,
        num_points=16,
        metric_kind="line",
        max_demand=1,
        cost_exponent_x=0.0,
        cost_scale=0.3,
    ).instance


def ofl_state(costs, *, use_accel: bool = True) -> OnlineState:
    """A fresh |S| = 1 state on the uniform line whose point ``m`` opens at ``costs[m]``."""
    cost = PerPointScaledCost(ConstantCost(1), costs)
    instance = Instance(uniform_line_metric(len(costs)), cost, RequestSequence([]))
    return OnlineState(instance, use_accel=use_accel)


def demand(index: int, point: int) -> Request:
    return Request(index=index, point=point, commodities=frozenset({0}))


@pytest.mark.parametrize("use_accel", [True, False])
class TestSingleCommodityPrimalDualHelper:
    def test_opens_then_reuses(self, use_accel):
        state = ofl_state([1.0, 1.0, 1.0], use_accel=use_accel)
        helper = SingleCommodityPrimalDual(state.instance.metric, [1.0, 1.0, 1.0], use_accel)
        first = helper.decide(state, demand(0, 0), 0)
        assert first.point == 0
        second = helper.decide(state, demand(1, 0), 0)
        assert second == first
        assert state.store.facilities == [first]
        assert helper.duals == [1.0, 0.0]

    def test_costs_shape_checked(self, use_accel):
        metric = uniform_line_metric(3)
        with pytest.raises(AlgorithmError):
            SingleCommodityPrimalDual(metric, [1.0, 1.0], use_accel)

    def test_prefers_cheap_remote_point(self, use_accel):
        costs = [10.0, 0.1, 10.0]
        state = ofl_state(costs, use_accel=use_accel)
        helper = SingleCommodityPrimalDual(state.instance.metric, costs, use_accel)
        facility = helper.decide(state, demand(0, 0), 0)
        assert facility.point == 1
        assert facility.opening_cost == pytest.approx(0.1)
        assert helper.duals == [pytest.approx(0.6)]  # distance 0.5 + cost 0.1


@pytest.mark.parametrize("use_accel", [True, False])
class TestSingleCommodityMeyersonHelper:
    def test_classes_and_budget(self, use_accel):
        costs = [1.0, 2.0, 4.0, 8.0]
        state = ofl_state(costs, use_accel=use_accel)
        helper = SingleCommodityMeyerson(state.instance.metric, costs, use_accel)
        assert helper.num_classes == 4
        assert helper.class_value(1) == 1.0
        assert helper.distance_to_class(4, 0) == 0.0
        # Budget before any facility: cheapest open option.
        assert helper.connection_budget(state, 0, 0) == pytest.approx(1.0)

    def test_decide_always_yields_a_facility(self, use_accel):
        costs = [1.0, 1.0, 1.0, 1.0]
        state = ofl_state(costs, use_accel=use_accel)
        helper = SingleCommodityMeyerson(state.instance.metric, costs, use_accel)
        facility = helper.decide(state, demand(0, 2), 0, np.random.default_rng(0))
        assert facility in state.store.facilities
        assert state.distance_to_nearest(0, 2) < float("inf")

    def test_costs_shape_checked(self, use_accel):
        metric = uniform_line_metric(2)
        with pytest.raises(AlgorithmError):
            SingleCommodityMeyerson(metric, [1.0], use_accel)


class TestOFLAlgorithms:
    def test_fotakis_requires_single_commodity(self, small_instance):
        with pytest.raises(AlgorithmError):
            run_online(FotakisOFLAlgorithm(), small_instance)

    def test_meyerson_requires_single_commodity(self, small_instance):
        with pytest.raises(AlgorithmError):
            run_online(MeyersonOFLAlgorithm(), small_instance, rng=0)

    def test_fotakis_reasonable_on_single_commodity(self):
        instance = single_commodity_instance(12, seed=1)
        result = run_online(FotakisOFLAlgorithm(), instance)
        result.solution.validate(instance.requests)
        opt = BruteForceSolver(max_combinations=200_000,
                               configurations=[{0}]).solve(instance).total_cost
        assert opt - 1e-9 <= result.total_cost <= 10 * opt

    def test_meyerson_reasonable_on_single_commodity(self):
        instance = single_commodity_instance(12, seed=2)
        costs = []
        for seed in range(6):
            result = run_online(MeyersonOFLAlgorithm(), instance, rng=seed)
            result.solution.validate(instance.requests)
            costs.append(result.total_cost)
        opt = BruteForceSolver(max_combinations=200_000,
                               configurations=[{0}]).solve(instance).total_cost
        assert np.mean(costs) <= 10 * opt

    def test_fotakis_matches_pd_on_single_commodity(self):
        """With |S| = 1, PD-OMFLP and the Fotakis substrate implement the same rule."""
        instance = single_commodity_instance(10, seed=3)
        fotakis = run_online(FotakisOFLAlgorithm(), instance)
        pd = run_online(PDOMFLPAlgorithm(), instance)
        assert fotakis.total_cost == pytest.approx(pd.total_cost, rel=1e-6)


class TestPerCommodityBaseline:
    def test_feasible_and_ignores_bundling(self, single_point_instance_constant):
        result = run_online(PerCommodityAlgorithm("fotakis"), single_point_instance_constant)
        result.solution.validate(single_point_instance_constant.requests)
        # One facility per commodity: pays |S| while OPT pays 1.
        assert result.total_cost == pytest.approx(6.0)
        assert result.solution.num_facilities() == 6

    def test_meyerson_base_feasible(self, small_instance):
        result = run_online(PerCommodityAlgorithm("meyerson"), small_instance, rng=0)
        result.solution.validate(small_instance.requests)

    def test_unknown_base_rejected(self):
        with pytest.raises(AlgorithmError):
            PerCommodityAlgorithm("unknown")

    def test_facilities_are_singletons(self, small_instance):
        result = run_online(PerCommodityAlgorithm("fotakis"), small_instance)
        for facility in result.solution.facilities:
            assert len(facility.configuration) == 1


class TestGreedyBaselines:
    def test_no_prediction_never_predicts(self, small_instance):
        result = run_online(NoPredictionGreedy(), small_instance)
        result.solution.validate(small_instance.requests)
        for facility in result.solution.facilities:
            assert len(facility.configuration) == 1

    def test_no_prediction_pays_s_on_constant_cost(self, single_point_instance_constant):
        result = run_online(NoPredictionGreedy(), single_point_instance_constant)
        assert result.total_cost == pytest.approx(6.0)

    def test_always_large_only_opens_full_configurations(self, small_instance):
        result = run_online(AlwaysLargeGreedy(), small_instance)
        result.solution.validate(small_instance.requests)
        for facility in result.solution.facilities:
            assert facility.configuration == small_instance.cost_function.full_set

    def test_always_large_pays_once_on_single_point(self, single_point_instance_constant):
        result = run_online(AlwaysLargeGreedy(), single_point_instance_constant)
        assert result.total_cost == pytest.approx(1.0)
        assert result.solution.num_facilities() == 1

    def test_always_large_wasteful_under_linear_costs(self):
        """Linear costs: opening all of S for a single-commodity request is |S|x too much."""
        metric = SinglePointMetric()
        instance = Instance(metric, LinearCost(8), RequestSequence.from_tuples([(0, {0})]))
        large = run_online(AlwaysLargeGreedy(), instance)
        pd = run_online(PDOMFLPAlgorithm(), instance)
        assert large.total_cost == pytest.approx(8.0)
        assert pd.total_cost == pytest.approx(1.0)
