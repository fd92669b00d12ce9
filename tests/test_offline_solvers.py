"""Tests for the offline reference solvers (brute force, greedy, local search, planted, LP)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import run_online
from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.offline.common import (
    candidate_configurations,
    evaluate_facility_specs,
    optimal_assignment,
    solution_from_specs,
)
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.offline.local_search import LocalSearchSolver
from repro.algorithms.offline.lp_bound import lp_relaxation_lower_bound
from repro.algorithms.offline.planted import PlantedSolver
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.core.facility import Facility
from repro.core.instance import Instance
from repro.core.requests import Request, RequestSequence
from repro.costs.count_based import ConstantCost, LinearCost, PowerCost
from repro.exceptions import AlgorithmError, InfeasibleSolutionError
from repro.metric.factories import uniform_line_metric
from tests.conftest import random_small_instance, realize


class TestOptimalAssignment:
    def _make_facilities(self, metric, cost, specs):
        return [
            Facility(id=i, point=p, configuration=frozenset(c), opening_cost=cost.cost(p, c))
            for i, (p, c) in enumerate(specs)
        ]

    def test_prefers_single_covering_facility_when_cheaper(self, line_metric, sqrt_cost):
        facilities = self._make_facilities(
            line_metric, sqrt_cost, [(0, {0}), (4, {1}), (1, {0, 1})]
        )
        request = Request(0, 1, frozenset({0, 1}))
        assignment, cost = optimal_assignment(line_metric, request, facilities)
        assert cost == pytest.approx(0.0)
        assert assignment.facility_ids() == frozenset({2})

    def test_combines_facilities_when_necessary(self, line_metric, sqrt_cost):
        facilities = self._make_facilities(line_metric, sqrt_cost, [(0, {0}), (4, {1})])
        request = Request(0, 2, frozenset({0, 1}))
        assignment, cost = optimal_assignment(line_metric, request, facilities)
        assert cost == pytest.approx(1.0)
        assert assignment.facility_ids() == frozenset({0, 1})

    def test_counts_each_distinct_facility_once(self, line_metric, sqrt_cost):
        facilities = self._make_facilities(line_metric, sqrt_cost, [(4, {0, 1, 2})])
        request = Request(0, 0, frozenset({0, 1, 2}))
        _, cost = optimal_assignment(line_metric, request, facilities)
        assert cost == pytest.approx(1.0)  # distance paid once, not three times

    def test_infeasible_when_commodity_missing(self, line_metric, sqrt_cost):
        facilities = self._make_facilities(line_metric, sqrt_cost, [(0, {0})])
        request = Request(0, 0, frozenset({0, 1}))
        with pytest.raises(InfeasibleSolutionError):
            optimal_assignment(line_metric, request, facilities)

    def test_solution_from_specs_totals(self, tiny_instance):
        specs = [(1, {0, 1, 2})]
        solution, total = solution_from_specs(tiny_instance, specs)
        solution.validate(tiny_instance.requests)
        assert total == pytest.approx(evaluate_facility_specs(tiny_instance, specs))
        expected_connection = sum(
            tiny_instance.metric.distance(r.point, 1) for r in tiny_instance.requests
        )
        assert total == pytest.approx(
            tiny_instance.cost_function.cost(1, {0, 1, 2}) + expected_connection
        )

    def test_candidate_configurations_include_singletons_and_full_set(self, tiny_instance):
        family = candidate_configurations(tiny_instance)
        assert frozenset({0}) in family
        assert tiny_instance.cost_function.full_set in family
        assert frozenset({0, 1}) in family  # a requested demand set


class TestBruteForce:
    def test_finds_known_optimum(self):
        """Two co-located requests, constant cost: OPT = one facility at their point."""
        metric = uniform_line_metric(3)
        cost = ConstantCost(2)
        requests = RequestSequence.from_tuples([(1, {0}), (1, {1})])
        instance = Instance(metric, cost, requests)
        result = BruteForceSolver().solve(instance)
        assert result.total_cost == pytest.approx(1.0)
        assert result.is_optimal

    def test_linear_cost_matches_hand_computation(self):
        metric = uniform_line_metric(2, length=1.0)
        cost = LinearCost(2, scale=0.1)
        requests = RequestSequence.from_tuples([(0, {0}), (1, {1})])
        instance = Instance(metric, cost, requests)
        result = BruteForceSolver().solve(instance)
        # Open {0} at point 0 and {1} at point 1: cost 0.2, no connections.
        assert result.total_cost == pytest.approx(0.2)

    def test_never_above_any_online_algorithm(self, tiny_instance):
        opt = BruteForceSolver().solve(tiny_instance).total_cost
        online = run_online(PDOMFLPAlgorithm(), tiny_instance).total_cost
        assert opt <= online + 1e-9

    def test_size_guard(self, small_instance):
        with pytest.raises(AlgorithmError):
            BruteForceSolver(max_combinations=10).solve(small_instance)

    def test_explicit_configuration_family(self, tiny_instance):
        restricted = BruteForceSolver(configurations=[{0}, {1}, {2}]).solve(tiny_instance)
        unrestricted = BruteForceSolver().solve(tiny_instance)
        assert restricted.total_cost >= unrestricted.total_cost - 1e-9


class TestHeuristicSolvers:
    def test_greedy_feasible_and_above_opt(self, tiny_instance):
        greedy = GreedyOfflineSolver().solve(tiny_instance)
        greedy.solution.validate(tiny_instance.requests)
        opt = BruteForceSolver().solve(tiny_instance).total_cost
        assert greedy.total_cost >= opt - 1e-9
        assert greedy.total_cost <= 4 * opt  # loose sanity bound

    def test_local_search_never_worse_than_greedy(self, tiny_instance):
        greedy = GreedyOfflineSolver().solve(tiny_instance)
        local = LocalSearchSolver(max_iterations=20).solve(tiny_instance)
        local.solution.validate(tiny_instance.requests)
        assert local.total_cost <= greedy.total_cost + 1e-9

    def test_local_search_accepts_initial_specs(self, tiny_instance):
        initial = [(1, {0, 1, 2})]
        result = LocalSearchSolver(max_iterations=5, initial_specs=initial).solve(tiny_instance)
        result.solution.validate(tiny_instance.requests)
        assert result.total_cost <= evaluate_facility_specs(tiny_instance, initial) + 1e-9

    def test_local_search_rejects_infeasible_start(self, tiny_instance):
        with pytest.raises(AlgorithmError):
            LocalSearchSolver(initial_specs=[(0, {0})], max_iterations=1).solve(tiny_instance)

    def test_greedy_on_clustered_workload_close_to_planted(self):
        workload = realize("clustered", 0, num_requests=20, num_commodities=6, num_clusters=2)
        greedy = GreedyOfflineSolver().solve(workload.instance)
        planted = PlantedSolver(workload.planted_specs).solve(workload.instance)
        assert greedy.total_cost <= 2.0 * planted.total_cost + 1e-9

    def test_empty_instance_rejected(self, line_metric, sqrt_cost):
        instance = Instance(line_metric, sqrt_cost, RequestSequence([]))
        with pytest.raises(AlgorithmError):
            GreedyOfflineSolver().solve(instance)


class TestPlantedSolver:
    def test_requires_specs(self):
        with pytest.raises(AlgorithmError):
            PlantedSolver([])

    def test_evaluates_given_facilities(self, tiny_instance):
        solver = PlantedSolver([(1, {0, 1, 2})])
        result = solver.solve(tiny_instance)
        result.solution.validate(tiny_instance.requests)
        assert result.total_cost == pytest.approx(
            evaluate_facility_specs(tiny_instance, [(1, {0, 1, 2})])
        )
        assert solver.facility_specs == [(1, frozenset({0, 1, 2}))]


class TestLPBound:
    def test_lp_below_opt_and_above_zero(self, tiny_instance):
        lp = lp_relaxation_lower_bound(tiny_instance)
        opt = BruteForceSolver().solve(tiny_instance).total_cost
        assert 0 < lp <= opt + 1e-6

    def test_lp_size_guards(self, tiny_instance):
        with pytest.raises(AlgorithmError):
            lp_relaxation_lower_bound(tiny_instance, max_variables=10)
        big = realize(
            "uniform", 0, num_requests=3, num_commodities=15, num_points=3
        ).instance
        with pytest.raises(AlgorithmError):
            lp_relaxation_lower_bound(big)

    def test_lp_exact_on_integral_instance(self):
        """Single request: the LP optimum equals the integral optimum."""
        metric = uniform_line_metric(2)
        cost = ConstantCost(2)
        instance = Instance(metric, cost, RequestSequence.from_tuples([(0, {0, 1})]))
        lp = lp_relaxation_lower_bound(instance)
        opt = BruteForceSolver().solve(instance).total_cost
        assert lp == pytest.approx(opt, abs=1e-6)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2000))
def test_opt_is_below_all_algorithms_property(seed):
    """Property: brute-force OPT lower-bounds every heuristic and online run."""
    instance = random_small_instance(seed, num_requests=6, num_commodities=3, num_points=4)
    opt = BruteForceSolver().solve(instance).total_cost
    greedy = GreedyOfflineSolver().solve(instance).total_cost
    online = run_online(PDOMFLPAlgorithm(), instance).total_cost
    assert opt <= greedy + 1e-9
    assert opt <= online + 1e-9
