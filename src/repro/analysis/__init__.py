"""Measurement suite backing experiments E2–E6, E8, E10 and the report
generator: failure locality (including the frozen-chain worst case),
stabilization time in steps and asynchronous rounds, throughput and
fairness, the masking census, priority-graph analytics, ASCII rendering,
and the one-call experiment suite (`run_suite`/`to_markdown`)."""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".locality": (
        "LocalityReport frozen_chain_radius frozen_chain_scenario "
        "measure_failure_locality run_until_eating"
    ),
    ".masking": "MaskingReport classify_violations masking_probe",
    ".metrics": (
        "StepMonitor ThroughputReport eating_pairs_count "
        "live_eating_pairs_count run_monitored throughput_report"
    ),
    ".render": "STATE_GLYPHS render_configuration render_strip",
    ".priority_graph": "find_live_cycles",
    ".suite": (
        "Section SectionSpec SuiteConfig SuiteResult run_suite suite_metrics "
        "suite_specs to_markdown"
    ),
    ".stabilization": (
        "ConvergenceResult ConvergenceSummary convergence_study convergence_trial "
        "plant_priority_cycle rounds_to_predicate steps_to_predicate"
    ),
})
