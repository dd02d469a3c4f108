"""Measurement suite backing experiments E2–E6, E8, E10 and the report
generator: failure locality (including the frozen-chain worst case),
stabilization time in steps and asynchronous rounds, throughput and
fairness, the masking census, priority-graph analytics, ASCII rendering,
and the one-call experiment suite (`run_suite`/`to_markdown`)."""

from .locality import (
    LocalityReport,
    frozen_chain_radius,
    frozen_chain_scenario,
    measure_failure_locality,
    run_until_eating,
)
from .masking import (
    MaskingReport,
    classify_violations,
    masking_probe,
)
from .metrics import (
    StepMonitor,
    ThroughputReport,
    eating_pairs_count,
    live_eating_pairs_count,
    run_monitored,
    throughput_report,
)
from .render import STATE_GLYPHS, render_configuration, render_strip
from .priority_graph import find_live_cycles
from .suite import (
    Section,
    SectionSpec,
    SuiteConfig,
    SuiteResult,
    run_suite,
    suite_metrics,
    suite_specs,
    to_markdown,
)
from .stabilization import (
    ConvergenceResult,
    ConvergenceSummary,
    convergence_study,
    plant_priority_cycle,
    rounds_to_predicate,
    steps_to_predicate,
)

__all__ = [
    "LocalityReport",
    "frozen_chain_radius",
    "frozen_chain_scenario",
    "MaskingReport",
    "classify_violations",
    "masking_probe",
    "measure_failure_locality",
    "run_until_eating",
    "StepMonitor",
    "ThroughputReport",
    "eating_pairs_count",
    "live_eating_pairs_count",
    "run_monitored",
    "throughput_report",
    "STATE_GLYPHS",
    "render_configuration",
    "render_strip",
    "find_live_cycles",
    "Section",
    "SectionSpec",
    "SuiteConfig",
    "SuiteResult",
    "run_suite",
    "suite_metrics",
    "suite_specs",
    "to_markdown",
    "ConvergenceResult",
    "ConvergenceSummary",
    "convergence_study",
    "plant_priority_cycle",
    "rounds_to_predicate",
    "steps_to_predicate",
]
