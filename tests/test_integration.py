"""Cross-module integration and end-to-end property tests.

These tests exercise the public API the way a downstream user would: generate
a workload, run every online algorithm, compare against offline references,
and check the global invariants the paper's model imposes (feasibility, OPT
dominance, ratio >= 1, dual certificates).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AlwaysLargeGreedy,
    BruteForceSolver,
    GreedyOfflineSolver,
    Instance,
    NoPredictionGreedy,
    PDOMFLPAlgorithm,
    PerCommodityAlgorithm,
    PowerCost,
    RandOMFLPAlgorithm,
    RequestSequence,
    run_online,
    uniform_line_metric,
)
from repro.analysis.competitive import measure_competitive_ratio, reference_cost
from repro.dual import check_dual_feasibility, paper_scaling_factor
from repro.utils.maths import harmonic_number
from tests.conftest import random_small_instance, realize

ALL_ONLINE_ALGORITHMS = [
    PDOMFLPAlgorithm,
    RandOMFLPAlgorithm,
    NoPredictionGreedy,
    AlwaysLargeGreedy,
    lambda: PerCommodityAlgorithm("fotakis"),
    lambda: PerCommodityAlgorithm("meyerson"),
]


class TestEveryAlgorithmOnEveryWorkload:
    @pytest.mark.parametrize("factory", ALL_ONLINE_ALGORITHMS)
    def test_feasible_on_uniform_workload(self, factory):
        workload = realize("uniform", 0, num_requests=15, num_commodities=5, num_points=10)
        result = run_online(factory(), workload.instance, rng=1)
        result.solution.validate(workload.instance.requests)
        assert result.total_cost > 0
        assert result.opening_cost + result.connection_cost == pytest.approx(result.total_cost)

    @pytest.mark.parametrize("factory", ALL_ONLINE_ALGORITHMS)
    def test_feasible_on_clustered_workload(self, factory):
        workload = realize("clustered", 1, num_requests=15, num_commodities=6, num_clusters=2)
        result = run_online(factory(), workload.instance, rng=2)
        result.solution.validate(workload.instance.requests)

    @pytest.mark.parametrize("factory", ALL_ONLINE_ALGORITHMS)
    def test_feasible_on_service_network(self, factory):
        workload = realize("service-network", 2, num_requests=12, num_services=4, num_nodes=8)
        result = run_online(factory(), workload.instance, rng=3)
        result.solution.validate(workload.instance.requests)


class TestCompetitiveRatios:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_algorithms_at_least_opt_on_tiny_instances(self, seed):
        instance = random_small_instance(seed, num_requests=6, num_commodities=3, num_points=4)
        opt = BruteForceSolver().solve(instance).total_cost
        for factory in ALL_ONLINE_ALGORITHMS:
            result = run_online(factory(), instance, rng=seed)
            assert result.total_cost >= opt - 1e-9

    def test_pd_beats_per_commodity_on_bundled_demand(self):
        """Clustered demand with shared bundles: PD should not lose to the decomposition."""
        workload = realize(
            "clustered",
            3,
            num_requests=40,
            num_commodities=8,
            num_clusters=2,
            cluster_radius=0.01,
            demand_size=4,
            cost_exponent_x=0.5,
        )
        pd = run_online(PDOMFLPAlgorithm(), workload.instance)
        per_commodity = run_online(PerCommodityAlgorithm("fotakis"), workload.instance)
        assert pd.total_cost <= per_commodity.total_cost * 1.05

    def test_measured_ratio_via_reference_portfolio(self):
        workload = realize("clustered", 4, num_requests=20, num_commodities=6, num_clusters=2)
        reference = reference_cost(workload, local_search_iterations=2)
        measurement = measure_competitive_ratio(
            PDOMFLPAlgorithm(), workload, reference=reference
        )
        assert measurement.ratio >= 1.0 - 1e-6
        assert measurement.ratio <= 15.0


class TestPaperBoundsEndToEnd:
    def test_theorem4_bound_holds_against_exact_opt(self):
        for seed in range(3):
            instance = random_small_instance(
                seed, num_requests=8, num_commodities=4, num_points=4
            )
            result = run_online(PDOMFLPAlgorithm(), instance)
            opt = BruteForceSolver().solve(instance).total_cost
            bound = 15.0 * math.sqrt(instance.num_commodities) * harmonic_number(
                instance.num_requests
            )
            assert result.total_cost <= bound * opt + 1e-9

    def test_dual_certificate_pipeline(self):
        instance = random_small_instance(7, num_requests=10, num_commodities=4, num_points=6)
        result = run_online(PDOMFLPAlgorithm(), instance)
        gamma = paper_scaling_factor(instance.num_commodities, instance.num_requests)
        assert check_dual_feasibility(instance, result.duals, scale=gamma).feasible
        assert result.total_cost <= 3.0 * result.duals.total() + 1e-9

    def test_split_per_commodity_model_costs_more(self, small_instance):
        """The per-commodity connection-cost model (Section 1.1) never decreases cost."""
        split = small_instance.split_per_commodity()
        pd_joint = run_online(PDOMFLPAlgorithm(), small_instance)
        pd_split = run_online(PDOMFLPAlgorithm(), split)
        pd_split.solution.validate(split.requests)
        assert split.num_requests >= small_instance.num_requests
        assert pd_split.total_cost >= pd_joint.total_cost * 0.5  # sanity: same order of magnitude


class TestDocstringQuickstart:
    def test_readme_quickstart_snippet(self):
        metric = uniform_line_metric(8)
        cost = PowerCost(num_commodities=4, exponent_x=1.0)
        requests = RequestSequence.from_tuples([(1, {0, 1}), (6, {2}), (2, {0, 3})])
        instance = Instance(metric, cost, requests)
        result = run_online(PDOMFLPAlgorithm(), instance)
        result.solution.validate(instance.requests)
        assert result.total_cost > 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3000),
    num_commodities=st.integers(min_value=2, max_value=4),
    num_requests=st.integers(min_value=3, max_value=8),
)
def test_opt_dominance_property(seed, num_commodities, num_requests):
    """Property: OPT <= greedy offline <= max(online algorithms); all feasible."""
    instance = realize(
        "uniform",
        seed,
        num_requests=num_requests,
        num_commodities=num_commodities,
        num_points=4,
        max_demand=num_commodities,
    ).instance
    opt = BruteForceSolver().solve(instance).total_cost
    greedy = GreedyOfflineSolver().solve(instance).total_cost
    pd = run_online(PDOMFLPAlgorithm(), instance).total_cost
    rand = run_online(RandOMFLPAlgorithm(), instance, rng=seed).total_cost
    assert opt <= greedy + 1e-9
    assert opt <= pd + 1e-9
    assert opt <= rand + 1e-9
