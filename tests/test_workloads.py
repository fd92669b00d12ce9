"""Tests for the synthetic workload families and the sparse-first arrival order.

The four families (``uniform``, ``clustered``, ``zipf``, ``service-network``)
are streaming scenarios; these cases pin each family's own structure through
its realized instance.  Contracts shared by every scenario kind (determinism,
stream == realize, snapshot/resume, strict parameters) live in
``tests/test_scenarios.py``.
"""

import numpy as np
import pytest

from repro.algorithms.base import run_online
from repro.algorithms.offline.greedy import GreedyOfflineSolver
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.exceptions import ScenarioError
from repro.scenarios import scenario_from_dict
from repro.scenarios.combinators import sparse_first_order
from repro.utils.rng import spawn_child_seeds
from tests.conftest import realize


class TestUniformWorkload:
    def test_dimensions(self):
        workload = realize("uniform", 0, num_requests=20, num_commodities=5, num_points=10)
        instance = workload.instance
        assert instance.num_requests == 20
        assert instance.num_commodities == 5
        assert instance.num_points == 10
        assert workload.planted_specs is None
        assert workload.planted_solver() is None
        assert workload.describe()["scenario"] == "uniform"

    def test_demand_bounds_respected(self):
        workload = realize(
            "uniform", 1, num_requests=30, num_commodities=6, num_points=8,
            min_demand=2, max_demand=3,
        )
        sizes = {r.num_commodities for r in workload.instance.requests}
        assert sizes <= {2, 3}

    def test_line_metric_kind(self):
        workload = realize(
            "uniform", 2, num_requests=5, num_commodities=2, num_points=6, metric_kind="line"
        )
        assert type(workload.instance.metric).__name__ == "LineMetric"

    def test_validation(self):
        with pytest.raises(ScenarioError, match="min_demand/max_demand"):
            realize("uniform", 0, num_requests=5, num_commodities=2, min_demand=3, max_demand=2)
        with pytest.raises(ScenarioError, match="min_demand/max_demand"):
            realize("zipf", 0, num_requests=5, num_commodities=2, max_demand=3)


class TestClusteredWorkload:
    def test_planted_solution_is_feasible_reference(self):
        workload = realize("clustered", 0, num_requests=25, num_commodities=8, num_clusters=3)
        assert workload.planted_specs is not None
        assert len(workload.planted_specs) == 3
        planted = workload.planted_solver().solve(workload.instance)
        planted.solution.validate(workload.instance.requests)
        assert planted.total_cost > 0

    def test_requests_demand_subsets_of_their_cluster_bundle(self):
        workload = realize(
            "clustered", 1, num_requests=30, num_commodities=10, num_clusters=4, bundle_size=3
        )
        bundles = [frozenset(config) for _, config in workload.planted_specs]
        assert all(len(bundle) == 3 for bundle in bundles)
        for request in workload.instance.requests:
            assert any(request.commodities <= bundle for bundle in bundles)

    def test_demand_size_override(self):
        workload = realize(
            "clustered", 2, num_requests=10, num_commodities=6, num_clusters=2,
            bundle_size=4, demand_size=2,
        )
        assert all(r.num_commodities == 2 for r in workload.instance.requests)

    def test_cluster_radius_controls_spread(self):
        tight = realize(
            "clustered", 3, num_requests=15, num_commodities=4, num_clusters=2,
            cluster_radius=0.0,
        )
        # Radius zero: all cluster points coincide with the center, so the
        # planted solution has zero connection cost.
        planted = tight.planted_solver().solve(tight.instance)
        assert planted.connection_cost == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"num_clusters": 0}, "num_clusters"),
            ({"bundle_size": 9}, "bundle_size"),
            ({"cluster_radius": -1.0}, "cluster_radius"),
        ],
    )
    def test_validation(self, params, key):
        with pytest.raises(ScenarioError, match=key):
            realize("clustered", 0, num_requests=5, num_commodities=4, **params)


class TestZipfWorkload:
    @staticmethod
    def _commodity_counts(workload, num_commodities):
        counts = np.zeros(num_commodities)
        for request in workload.instance.requests:
            for commodity in request.commodities:
                counts[commodity] += 1
        return counts

    def test_popular_commodities_dominate(self):
        workload = realize(
            "zipf", 0, num_requests=200, num_commodities=20, num_points=10, zipf_alpha=1.5
        )
        counts = self._commodity_counts(workload, 20)
        assert counts[0] > counts[10]
        assert counts[:3].sum() > counts[10:].sum()

    def test_alpha_zero_is_roughly_uniform(self):
        workload = realize(
            "zipf", 1, num_requests=300, num_commodities=5, num_points=10, zipf_alpha=0.0
        )
        counts = self._commodity_counts(workload, 5)
        assert counts.min() > 0.5 * counts.max()


class TestServiceNetworkWorkload:
    def test_structure(self):
        workload = realize(
            "service-network", 0, num_requests=30, num_services=8, num_nodes=12,
            num_profiles=3, profile_size=2,
        )
        instance = workload.instance
        assert instance.num_requests == 30
        assert instance.num_commodities == 8
        assert instance.num_points == 12
        assert instance.commodities.name_of(0) == "service-0"
        assert workload.metadata["scenario"] == "service-network"

    def test_runs_end_to_end_with_pd(self):
        workload = realize("service-network", 1, num_requests=15, num_services=5, num_nodes=10)
        result = run_online(PDOMFLPAlgorithm(), workload.instance)
        result.solution.validate(workload.instance.requests)

    @pytest.mark.parametrize(
        "params, key",
        [({"num_nodes": 1}, "num_nodes"), ({"num_nodes": 5, "profile_size": 9}, "profile_size")],
    )
    def test_validation(self, params, key):
        with pytest.raises(ScenarioError, match=key):
            realize("service-network", 0, num_requests=5, num_services=3, **params)


class TestSparseFirstOrder:
    @staticmethod
    def _pairs(instance):
        return [(r.point, r.commodities) for r in instance.requests]

    def test_sorts_small_demands_first(self, small_instance):
        order = sparse_first_order(small_instance.metric, self._pairs(small_instance))
        reordered = small_instance.reordered(order)
        sizes = [r.num_commodities for r in reordered.requests]
        assert sizes == sorted(sizes)

    def test_matches_the_arrival_order_scenario(self):
        child = {"kind": "uniform", "num_requests": 40, "num_commodities": 6,
                 "num_points": 12, "max_demand": 6}
        # The combinator buffers its child's stream, opened at the second
        # child seed of the combinator's own seed.
        base = scenario_from_dict(child).realize(spawn_child_seeds(0, 2)[1]).instance
        for order, reverse in (("sparse-first", False), ("dense-first", True)):
            streamed = scenario_from_dict(
                {"kind": "arrival-order", "order": order, "child": child}
            ).realize(0).instance
            wanted = base.reordered(
                sparse_first_order(base.metric, self._pairs(base), reverse=reverse)
            )
            assert self._pairs(streamed) == self._pairs(wanted)

    def test_reordering_preserves_the_offline_cost(self, small_instance):
        """Reordering changes only the arrival order, not the offline optimum."""
        order = sparse_first_order(small_instance.metric, self._pairs(small_instance))
        base = GreedyOfflineSolver().solve(small_instance).total_cost
        reordered = GreedyOfflineSolver().solve(small_instance.reordered(order)).total_cost
        assert base == pytest.approx(reordered)
