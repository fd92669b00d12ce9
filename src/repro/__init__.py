"""repro — reproduction of *The Online Multi-Commodity Facility Location Problem*.

Castenow, Feldkord, Knollmann, Malatyali, Meyer auf der Heide (SPAA 2020,
arXiv:2005.08391).

The package implements the Online Multi-Commodity Facility Location Problem
(OMFLP) — metric spaces, facility cost functions, the online request model —
together with the paper's two online algorithms (the deterministic
primal–dual ``PD-OMFLP`` and the randomized ``RAND-OMFLP``), the baselines
they are compared against, the adversarial lower-bound constructions
(Theorem 2 / Corollary 3), offline reference solvers for measuring
competitive ratios, and an experiment harness that regenerates every figure
and theorem-backed result of the paper (see ``EXPERIMENTS.md``).

Quickstart
----------
The declarative facade (:mod:`repro.api`) runs a whole scenario from plain
data — see also :class:`OnlineSession` for streaming request arrival:

>>> from repro import RunSpec, run
>>> record = run(RunSpec.from_dict({
...     "algorithm": "pd-omflp",
...     "metric": {"kind": "uniform-line", "num_points": 8},
...     "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
...     "requests": [[1, [0, 1]], [6, [2]], [2, [0, 3]]],
... }))
>>> record.total_cost > 0
True

The class-based layer stays available for programmatic construction:

>>> from repro import (
...     Instance, RequestSequence, PowerCost, uniform_line_metric,
...     PDOMFLPAlgorithm, run_online,
... )
>>> metric = uniform_line_metric(8)
>>> cost = PowerCost(num_commodities=4, exponent_x=1.0)
>>> requests = RequestSequence.from_tuples([(1, {0, 1}), (6, {2}), (2, {0, 3})])
>>> instance = Instance(metric, cost, requests)
>>> result = run_online(PDOMFLPAlgorithm(), instance)
>>> result.solution.validate(instance.requests)   # every commodity is served
>>> result.total_cost > 0
True
"""

from repro.algorithms import (
    AlwaysLargeGreedy,
    BruteForceSolver,
    FotakisOFLAlgorithm,
    GreedyOfflineSolver,
    LocalSearchSolver,
    MeyersonOFLAlgorithm,
    NoPredictionGreedy,
    OfflineResult,
    OfflineSolver,
    OnlineAlgorithm,
    OnlineResult,
    PDOMFLPAlgorithm,
    PerCommodityAlgorithm,
    RandOMFLPAlgorithm,
    ThresholdPDAlgorithm,
    run_online,
)
from repro.api import (
    ALGORITHMS,
    COSTS,
    METRICS,
    SOLVERS,
    AssignmentEvent,
    OnlineSession,
    Registry,
    RunRecord,
    RunSpec,
    records_to_csv,
    run,
    run_grid,
    run_many,
)
from repro.core import (
    Assignment,
    CommodityUniverse,
    Facility,
    FacilityStore,
    Instance,
    OnlineState,
    Request,
    RequestSequence,
    Solution,
    Trace,
)
from repro.costs import (
    AdversaryCost,
    ConstantCost,
    CostClassIndex,
    CountBasedCost,
    FacilityCostFunction,
    HierarchicalCost,
    LinearCost,
    OrderedLinearCost,
    PerPointScaledCost,
    PowerCost,
    TabulatedCost,
    WeightedConcaveCost,
    check_condition_one,
    check_subadditivity,
)
from repro.engine import ExperimentPlan, ResultStore, engine_task, run_plan
from repro.exceptions import (
    AlgorithmError,
    EngineError,
    ExperimentError,
    InfeasibleSolutionError,
    InvalidCostFunctionError,
    InvalidInstanceError,
    InvalidMetricError,
    ParallelTaskError,
    ReproError,
    UnknownComponentError,
)
from repro.metric import (
    EuclideanMetric,
    ExplicitMetric,
    GraphMetric,
    GridMetric,
    LineMetric,
    MetricSpace,
    SinglePointMetric,
    TreeMetric,
    random_euclidean_metric,
    random_graph_metric,
    random_line_metric,
    random_tree_metric,
    uniform_line_metric,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # api facade
    "Registry",
    "METRICS",
    "COSTS",
    "ALGORITHMS",
    "SOLVERS",
    "RunSpec",
    "RunRecord",
    "records_to_csv",
    "run",
    "run_many",
    "run_grid",
    "OnlineSession",
    "AssignmentEvent",
    # engine
    "ExperimentPlan",
    "ResultStore",
    "run_plan",
    "engine_task",
    # core
    "Instance",
    "Request",
    "RequestSequence",
    "CommodityUniverse",
    "Facility",
    "FacilityStore",
    "Assignment",
    "Solution",
    "OnlineState",
    "Trace",
    # metric
    "MetricSpace",
    "ExplicitMetric",
    "LineMetric",
    "EuclideanMetric",
    "GridMetric",
    "GraphMetric",
    "TreeMetric",
    "SinglePointMetric",
    "uniform_line_metric",
    "random_line_metric",
    "random_euclidean_metric",
    "random_graph_metric",
    "random_tree_metric",
    # costs
    "FacilityCostFunction",
    "CountBasedCost",
    "PowerCost",
    "LinearCost",
    "ConstantCost",
    "AdversaryCost",
    "WeightedConcaveCost",
    "PerPointScaledCost",
    "TabulatedCost",
    "HierarchicalCost",
    "OrderedLinearCost",
    "CostClassIndex",
    "check_subadditivity",
    "check_condition_one",
    # algorithms
    "PDOMFLPAlgorithm",
    "RandOMFLPAlgorithm",
    "ThresholdPDAlgorithm",
    "FotakisOFLAlgorithm",
    "MeyersonOFLAlgorithm",
    "PerCommodityAlgorithm",
    "NoPredictionGreedy",
    "AlwaysLargeGreedy",
    "BruteForceSolver",
    "GreedyOfflineSolver",
    "LocalSearchSolver",
    "OnlineAlgorithm",
    "OnlineResult",
    "OfflineSolver",
    "OfflineResult",
    "run_online",
    # exceptions
    "ReproError",
    "InvalidMetricError",
    "InvalidCostFunctionError",
    "InvalidInstanceError",
    "InfeasibleSolutionError",
    "AlgorithmError",
    "ExperimentError",
    "ParallelTaskError",
    "EngineError",
    "UnknownComponentError",
]
