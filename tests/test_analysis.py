"""Tests for the analysis harness: competitive ratios, fits, sweeps, tables, results."""

import json
import math

import numpy as np
import pytest

from repro.algorithms.offline.brute_force import BruteForceSolver
from repro.algorithms.online.pd_omflp import PDOMFLPAlgorithm
from repro.algorithms.online.rand_omflp import RandOMFLPAlgorithm
from repro.analysis import (
    ExperimentResult,
    ParameterGrid,
    fit_log_growth,
    fit_power_law,
    format_markdown_table,
    format_table,
    measure_competitive_ratio,
    reference_cost,
    run_sweep,
)
from repro.analysis.competitive import ReferenceCost
from repro.exceptions import ExperimentError
from tests.conftest import realize


class TestReferenceCost:
    def test_known_opt_wins(self, tiny_instance):
        reference = reference_cost(tiny_instance, known_opt=3.25)
        assert reference.kind == "analytic"
        assert reference.value == 3.25

    def test_exact_for_tiny_instance(self, tiny_instance):
        reference = reference_cost(tiny_instance)
        exact = BruteForceSolver().solve(tiny_instance).total_cost
        assert reference.kind == "exact"
        assert reference.value == pytest.approx(exact)

    def test_upper_bound_for_larger_instance(self):
        workload = realize("clustered", 0, num_requests=25, num_commodities=8, num_clusters=3)
        reference = reference_cost(workload, local_search_iterations=2)
        assert reference.kind == "upper-bound"
        assert reference.value > 0

    def test_negative_reference_rejected(self):
        with pytest.raises(ExperimentError):
            ReferenceCost(value=-1.0, kind="exact", solver="x")


class TestCompetitiveMeasurement:
    def test_deterministic_algorithm_single_run(self, tiny_instance):
        measurement = measure_competitive_ratio(PDOMFLPAlgorithm(), tiny_instance, rng=0)
        assert len(measurement.costs) == 1
        assert measurement.ratio >= 1.0 - 1e-9
        row = measurement.as_row()
        assert row["algorithm"] == "pd-omflp"
        assert row["reference_kind"] == "exact"

    def test_randomized_algorithm_averages_runs(self, tiny_instance):
        measurement = measure_competitive_ratio(
            RandOMFLPAlgorithm(), tiny_instance, repeats=4, rng=1
        )
        assert len(measurement.costs) == 4
        assert measurement.std_cost >= 0.0

    def test_explicit_reference_is_used(self, tiny_instance):
        reference = ReferenceCost(value=100.0, kind="analytic", solver="known")
        measurement = measure_competitive_ratio(
            PDOMFLPAlgorithm(), tiny_instance, reference=reference
        )
        assert measurement.ratio < 1.0

    def test_invalid_repeats(self, tiny_instance):
        with pytest.raises(ExperimentError):
            measure_competitive_ratio(PDOMFLPAlgorithm(), tiny_instance, repeats=0)

    def test_ratio_with_zero_reference_is_infinite(self, tiny_instance):
        reference = ReferenceCost(value=0.0, kind="analytic", solver="known")
        measurement = measure_competitive_ratio(
            PDOMFLPAlgorithm(), tiny_instance, reference=reference
        )
        assert measurement.ratio == float("inf")


class TestRegression:
    def test_power_law_recovers_exponent(self):
        xs = [4, 16, 64, 256]
        ys = [2.0 * x**0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(100) == pytest.approx(20.0)

    def test_log_growth_recovers_slope(self):
        xs = [10, 100, 1000]
        ys = [1.0 + 2.0 * math.log(x) for x in xs]
        fit = fit_log_growth(xs, ys)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.predict(50) == pytest.approx(1.0 + 2.0 * math.log(50))

    def test_validation(self):
        with pytest.raises(ExperimentError):
            fit_power_law([1], [1])
        with pytest.raises(ExperimentError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(ExperimentError):
            fit_log_growth([0, 1], [1, 2])
        with pytest.raises(ExperimentError):
            fit_log_growth([1, 2], [1, 2, 3])

    def test_constant_series_r_squared(self):
        fit = fit_log_growth([10, 100, 1000], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)


class TestSweep:
    def test_grid_enumeration(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y", "z"]})
        points = list(grid)
        assert len(points) == len(grid) == 6
        assert {"a": 1, "b": "x"} in points

    def test_grid_validation(self):
        with pytest.raises(ExperimentError):
            ParameterGrid({})
        with pytest.raises(ExperimentError):
            ParameterGrid({"a": []})

    def test_generator_valued_parameters_are_not_exhausted(self):
        # Regression: validation used to consume generator values, silently
        # yielding zero combinations on iteration.
        grid = ParameterGrid({"a": (x for x in (1, 2, 3)), "b": range(2)})
        assert len(grid) == 6
        points = list(grid)
        assert len(points) == 6
        assert list(grid) == points  # re-iterable

    def test_empty_generator_rejected(self):
        with pytest.raises(ExperimentError):
            ParameterGrid({"a": (x for x in ())})

    def test_run_sweep_serial(self):
        grid = ParameterGrid({"x": [1, 2, 3]})
        rows = run_sweep(lambda p: {"square": p["x"] ** 2}, grid)
        assert rows == [
            {"x": 1, "square": 1},
            {"x": 2, "square": 4},
            {"x": 3, "square": 9},
        ]

    def test_run_sweep_parallel_matches_serial(self):
        grid = ParameterGrid({"x": list(range(12))})
        serial = run_sweep(_sweep_worker, grid, workers=1)
        parallel = run_sweep(_sweep_worker, grid, workers=2)
        assert serial == parallel


def _sweep_worker(params):
    return {"double": params["x"] * 2}


class TestTables:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 20, "b": 0.5}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_column_selection_and_missing(self):
        rows = [{"a": 1}, {"b": True}]
        text = format_table(rows, columns=["a", "b"])
        assert "yes" in text
        assert format_table([], columns=["x"]) == ""
        assert format_table([]) == ""

    def test_markdown_table(self):
        rows = [{"algorithm": "pd", "ratio": 1.2345}]
        text = format_markdown_table(rows)
        assert text.splitlines()[0] == "| algorithm | ratio |"
        assert "| pd | 1.234 |" in text or "| pd | 1.235 |" in text
        assert format_markdown_table([]) == ""


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            experiment_id="demo",
            title="Demo experiment",
            rows=[{"x": 1, "y": 2.0}],
            notes=["a note"],
            parameters={"profile": "quick"},
            extra_text="trace",
        )

    def test_to_table_and_markdown(self):
        result = self._result()
        table = result.to_table()
        assert "[demo] Demo experiment" in table
        assert "note: a note" in table
        assert "trace" in table
        markdown = result.to_markdown()
        assert markdown.startswith("### demo")
        assert "| x | y |" in markdown

    def test_json_round_trip_and_save(self, tmp_path):
        result = self._result()
        parsed = json.loads(result.to_json())
        assert parsed["experiment_id"] == "demo"
        path = result.save(tmp_path)
        assert path.exists()
        assert json.loads(path.read_text())["rows"] == [{"x": 1, "y": 2.0}]

    def test_require_rows(self):
        empty = ExperimentResult(experiment_id="e", title="t")
        with pytest.raises(ExperimentError):
            empty.require_rows()
