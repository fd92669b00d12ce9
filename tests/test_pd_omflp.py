"""Tests for the deterministic primal-dual algorithm PD-OMFLP (Algorithm 1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.threshold import ThresholdPDAlgorithm, tuned_pd_for_power_cost
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.costs.count_based import AdversaryCost, ConstantCost, LinearCost, PowerCost
from repro.dual import check_dual_feasibility, paper_scaling_factor
from repro.exceptions import AlgorithmError
from repro.metric.factories import uniform_line_metric
from repro.metric.single_point import SinglePointMetric
from tests.conftest import random_small_instance, realize


class TestPDOnMicroInstances:
    def test_single_request_opens_cheapest_small_facility(self):
        """One request, one commodity: PD pays exactly the cheapest opening option."""
        metric = uniform_line_metric(3)
        cost = ConstantCost(1, point_scales=[5.0, 1.0, 5.0])
        requests = RequestSequence.from_tuples([(0, {0})])
        instance = Instance(metric, cost, requests)
        result = run_online(PDOMFLPAlgorithm(), instance)
        # Cheapest option: open at point 1 (cost 1) and connect over distance 0.5,
        # rather than opening at point 0 for cost 5.
        assert result.total_cost == pytest.approx(1.5)
        assert result.solution.facilities[0].point == 1

    def test_second_request_at_same_point_connects_for_free(self):
        metric = SinglePointMetric()
        cost = ConstantCost(2)
        requests = RequestSequence.from_tuples([(0, {0}), (0, {0})])
        instance = Instance(metric, cost, requests)
        result = run_online(PDOMFLPAlgorithm(), instance)
        assert result.total_cost == pytest.approx(1.0)
        assert result.solution.num_facilities() == 1

    def test_switches_to_large_facility_under_constant_cost(
        self, single_point_instance_constant
    ):
        """With f(sigma) = 1, PD opens one small facility then one large facility."""
        result = run_online(PDOMFLPAlgorithm(), single_point_instance_constant)
        assert result.total_cost == pytest.approx(2.0)
        assert result.solution.num_large_facilities() == 1
        assert result.solution.num_facilities() == 2

    def test_adversary_cost_pays_about_sqrt_s(self):
        """On the Theorem-2 instance PD pays Θ(sqrt(|S|)) while OPT pays 1."""
        num_commodities = 25
        cost = AdversaryCost(num_commodities)
        requests = RequestSequence.from_tuples([(0, {e}) for e in range(5)])
        instance = Instance(SinglePointMetric(), cost, requests)
        result = run_online(PDOMFLPAlgorithm(), instance)
        assert result.total_cost == pytest.approx(5.0)  # sqrt(25) singleton facilities

    def test_far_requests_get_their_own_facilities(self):
        metric = uniform_line_metric(2, length=100.0)
        cost = ConstantCost(1)
        requests = RequestSequence.from_tuples([(0, {0}), (1, {0})])
        instance = Instance(metric, cost, requests)
        result = run_online(PDOMFLPAlgorithm(), instance)
        assert result.solution.num_facilities() == 2
        assert result.connection_cost == pytest.approx(0.0)

    def test_matches_optimum_on_tiny_instance(self, tiny_instance):
        result = run_online(PDOMFLPAlgorithm(), tiny_instance)
        opt = BruteForceSolver().solve(tiny_instance).total_cost
        assert result.total_cost >= opt - 1e-9
        assert result.total_cost <= 3 * math.sqrt(3) * opt  # far below the worst-case bound


class TestPDInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_and_corollary8_on_random_instances(self, seed):
        instance = random_small_instance(seed, num_requests=12, num_commodities=4, num_points=6)
        algorithm = PDOMFLPAlgorithm()
        result = run_online(algorithm, instance)
        result.solution.validate(instance.requests)
        duals = result.duals
        # Corollary 8: primal cost <= 3 * sum of duals.
        assert result.total_cost <= 3.0 * duals.total() + 1e-9
        # Every request has one dual value per demanded commodity.
        for request in instance.requests:
            for commodity in request.commodities:
                assert duals.get(request.index, commodity) >= 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_corollary17_gamma_feasibility(self, seed):
        instance = random_small_instance(seed, num_requests=10, num_commodities=3, num_points=5)
        result = run_online(PDOMFLPAlgorithm(), instance)
        gamma = paper_scaling_factor(instance.num_commodities, instance.num_requests)
        report = check_dual_feasibility(instance, result.duals, scale=gamma)
        assert report.feasible

    def test_deterministic_across_runs(self, small_instance):
        first = run_online(PDOMFLPAlgorithm(), small_instance)
        second = run_online(PDOMFLPAlgorithm(), small_instance)
        assert first.total_cost == pytest.approx(second.total_cost)
        assert [f.point for f in first.solution.facilities] == [
            f.point for f in second.solution.facilities
        ]

    def test_theorem4_bound_on_random_instances(self):
        """Cost <= 15 sqrt(|S|) H_n * OPT (Theorem 4), checked against exact OPT."""
        from repro.utils.maths import harmonic_number

        for seed in range(4):
            instance = random_small_instance(seed, num_requests=8, num_commodities=3, num_points=4)
            result = run_online(PDOMFLPAlgorithm(), instance)
            opt = BruteForceSolver().solve(instance).total_cost
            bound = 15.0 * math.sqrt(instance.num_commodities) * harmonic_number(
                instance.num_requests
            )
            assert result.total_cost <= bound * opt + 1e-9
            assert result.total_cost >= opt - 1e-9

    def test_trace_contains_dual_freezes(self, small_instance):
        result = run_online(PDOMFLPAlgorithm(), small_instance, trace=True)
        reasons = [e.reason for e in result.trace.events if hasattr(e, "reason")]
        assert any("constraint" in reason for reason in reasons)


class TestRestrictedLargeConfiguration:
    def test_excluded_commodities_never_in_large_facilities(self):
        requests = RequestSequence.from_tuples([(0, {e}) for e in range(6)] * 2)
        instance = Instance(SinglePointMetric(), ConstantCost(6), requests)
        algorithm = ThresholdPDAlgorithm(6, excluded=[5])
        result = run_online(algorithm, instance)
        result.solution.validate(instance.requests)
        for facility in result.solution.facilities:
            if len(facility.configuration) > 1:
                assert 5 not in facility.configuration

    def test_excluded_everything_rejected(self):
        with pytest.raises(AlgorithmError):
            ThresholdPDAlgorithm(2, excluded=[0, 1])

    def test_out_of_range_excluded_rejected(self):
        with pytest.raises(AlgorithmError):
            ThresholdPDAlgorithm(2, excluded=[5])

    def test_invalid_large_configuration_rejected_at_prepare(self, small_instance):
        algorithm = PDOMFLPAlgorithm(large_configuration=[99])
        with pytest.raises(AlgorithmError):
            run_online(algorithm, small_instance)

    def test_empty_large_configuration_rejected_at_prepare(self, small_instance):
        algorithm = PDOMFLPAlgorithm(large_configuration=[])
        with pytest.raises(AlgorithmError):
            run_online(algorithm, small_instance)

    def test_no_exclusions_matches_plain_pd(self, small_instance):
        plain = run_online(PDOMFLPAlgorithm(), small_instance)
        threshold = run_online(ThresholdPDAlgorithm(4, excluded=[]), small_instance)
        assert plain.total_cost == pytest.approx(threshold.total_cost)

    def test_tuned_pd_annotations(self):
        cost = PowerCost(16, 1.0)
        algorithm = tuned_pd_for_power_cost(cost)
        assert algorithm.tuned_threshold == pytest.approx(4.0)
        assert algorithm.predicted_upper_exponent == pytest.approx(0.5)
        assert algorithm.predicted_lower_exponent == pytest.approx(0.5)
        assert "x=1" in algorithm.name


class TestPDErrorHandling:
    def test_process_before_prepare_raises(self, small_instance):
        algorithm = PDOMFLPAlgorithm()
        with pytest.raises(AlgorithmError):
            algorithm.process(small_instance.requests[0], None, None)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_pd_feasibility_and_duality_property(seed):
    """Property: on random instances PD is feasible and primal <= 3 * duals."""
    workload = realize(
        "uniform", seed, num_requests=8, num_commodities=3, num_points=5, max_demand=3
    )
    result = run_online(PDOMFLPAlgorithm(), workload.instance)
    result.solution.validate(workload.instance.requests)
    assert result.total_cost <= 3.0 * result.duals.total() + 1e-9
