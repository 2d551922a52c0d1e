"""The paper's evaluation in its own currency: per-figure experiment
functions behind ``python -m repro.bench.harness``, the classic fixtures,
the seeded workload generator and its replay runner.  Wall-clock lives in
``benchmarks/perf/`` (``BENCHMARK.json``), guarantees in ``tests/``."""

from .experiments import EXPERIMENTS, run_experiment
from .harness import (CONFIGURATIONS, ExecutionResult, ReplayReport,
                      prepare_session, replay_workload)
from .reporting import format_table
from .workloads import (ExperimentFixture, Workload, WorkloadQuery,
                        WorkloadSpec, generate_workload, pick_queries,
                        standard_mixes, stock_workload, synthetic_workload)

__all__ = [
    "EXPERIMENTS", "run_experiment",
    "format_table",
    "ExperimentFixture", "pick_queries", "stock_workload", "synthetic_workload",
    "Workload", "WorkloadQuery", "WorkloadSpec", "generate_workload",
    "standard_mixes",
    "CONFIGURATIONS", "ExecutionResult", "ReplayReport",
    "prepare_session", "replay_workload",
]
