"""Tests for the randomized algorithm RAND-OMFLP (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.core.instance import Instance
from repro.core.requests import RequestSequence
from repro.core.trace import CoinFlipEvent
from repro.costs.count_based import ConstantCost
from repro.exceptions import AlgorithmError
from repro.metric.factories import uniform_line_metric
from repro.metric.single_point import SinglePointMetric
from tests.conftest import random_small_instance, realize


class TestRandBasics:
    def test_feasible_on_small_instance(self, small_instance):
        result = run_online(RandOMFLPAlgorithm(), small_instance, rng=0)
        result.solution.validate(small_instance.requests)
        assert result.total_cost > 0

    def test_deterministic_given_seed(self, small_instance):
        a = run_online(RandOMFLPAlgorithm(), small_instance, rng=123)
        b = run_online(RandOMFLPAlgorithm(), small_instance, rng=123)
        assert a.total_cost == pytest.approx(b.total_cost)
        assert [f.point for f in a.solution.facilities] == [f.point for f in b.solution.facilities]

    def test_different_seeds_may_differ(self, small_instance):
        costs = {round(run_online(RandOMFLPAlgorithm(), small_instance, rng=s).total_cost, 6)
                 for s in range(8)}
        assert len(costs) >= 1  # randomized, but never infeasible; often > 1 distinct value

    def test_first_request_always_served(self):
        metric = uniform_line_metric(3)
        instance = Instance(metric, ConstantCost(2), RequestSequence.from_tuples([(1, {0, 1})]))
        result = run_online(RandOMFLPAlgorithm(), instance, rng=5)
        result.solution.validate(instance.requests)
        assert result.solution.num_facilities() >= 1

    def test_coin_flip_probabilities_are_valid(self, small_instance):
        result = run_online(RandOMFLPAlgorithm(), small_instance, rng=1, trace=True)
        flips = [e for e in result.trace.events if isinstance(e, CoinFlipEvent)]
        assert flips, "RAND-OMFLP should record coin flips"
        for flip in flips:
            assert 0.0 <= flip.probability <= 1.0 + 1e-12

    def test_process_before_prepare_raises(self, small_instance):
        algorithm = RandOMFLPAlgorithm()
        with pytest.raises(AlgorithmError):
            algorithm.process(small_instance.requests[0], None, np.random.default_rng(0))


class TestRandBehaviour:
    def test_colocated_requests_reuse_facilities(self):
        """Requests at a single point with constant cost: expected cost stays O(1)·OPT."""
        requests = RequestSequence.from_tuples([(0, {e}) for e in range(6)])
        instance = Instance(SinglePointMetric(), ConstantCost(6), requests)
        costs = [run_online(RandOMFLPAlgorithm(), instance, rng=s).total_cost for s in range(10)]
        assert np.mean(costs) <= 6.0  # far below the per-commodity cost |S| = 6
        assert min(costs) >= 1.0

    def test_expected_cost_within_theorem19_bound_on_tiny(self, tiny_instance):
        from repro.utils.maths import log_over_loglog
        import math

        opt = BruteForceSolver().solve(tiny_instance).total_cost
        costs = [run_online(RandOMFLPAlgorithm(), tiny_instance, rng=s).total_cost for s in range(12)]
        mean_cost = float(np.mean(costs))
        assert mean_cost >= opt - 1e-9
        # A very generous constant; the point is the shape sqrt(|S|) log n / log log n.
        bound = 50.0 * math.sqrt(tiny_instance.num_commodities) * log_over_loglog(
            tiny_instance.num_requests
        )
        assert mean_cost <= bound * opt

    @pytest.mark.parametrize("seed", range(5))
    def test_feasible_on_random_instances(self, seed):
        instance = random_small_instance(seed, num_requests=15, num_commodities=4, num_points=8)
        result = run_online(RandOMFLPAlgorithm(), instance, rng=seed)
        result.solution.validate(instance.requests)

    def test_uses_large_facilities_when_worthwhile(self):
        """Many co-located multi-commodity requests should trigger large facilities."""
        requests = RequestSequence.from_tuples([(0, {0, 1, 2, 3})] * 10)
        instance = Instance(SinglePointMetric(), ConstantCost(4), requests)
        large_counts = [
            run_online(RandOMFLPAlgorithm(), instance, rng=s).solution.num_large_facilities()
            for s in range(10)
        ]
        assert max(large_counts) >= 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_rand_always_feasible_property(seed):
    """Property: RAND-OMFLP always produces a feasible solution."""
    workload = realize(
        "uniform", seed, num_requests=8, num_commodities=3, num_points=5, max_demand=3
    )
    result = run_online(RandOMFLPAlgorithm(), workload.instance, rng=seed)
    result.solution.validate(workload.instance.requests)
