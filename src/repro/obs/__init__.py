"""Unified observability layer: event bus, metrics, probes, and traces.

One pipeline serves both engines and both moments:

* **live** — attach an :class:`EventBus` to an engine, subscribe probes
  and a :class:`~repro.sim.trace.TraceRecorder`, run;
* **offline** — :func:`read_trace` a recorded JSONL file and
  :func:`analyze` it through the same probes.

Identical event/snapshot streams give identical metrics and summaries,
so ``repro trace`` on a recorded file reproduces the live run's numbers
byte for byte.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".bus": "EventBus",
    ".events": "EventKind MpEventKind NetEventKind TraceEvent",
    ".tracing": (
        "ROOT_SPAN LamportClock Span SpanEvent SpanFile SpanRecorder read_spans "
        "span_from_json write_spans"
    ),
    ".metrics": (
        "METRICS_FORMAT_VERSION Counter Gauge Histogram Metric MetricsFile "
        "MetricsRegistry Series Timer metrics_lines percentile_of_sorted "
        "read_metrics write_metrics"
    ),
    ".probes": (
        "DepthProbe EatingPairsProbe EatsProbe InvariantProbe LocalityProbe "
        "Probe StepTimerProbe WaitingChainProbe standard_probes "
        "waiting_chain_length"
    ),
    ".prom": (
        "PROM_CONTENT_TYPE Sample find parse_prometheus render_prometheus "
        "sanitize_name sum_by_label"
    ),
    ".timeline": (
        "CausalityReport GrantAttribution TimelineEntry TimelineFile "
        "attribute_grants attribution_by_node causality_report merge_timeline "
        "read_timeline reconstruct_violations write_timeline"
    ),
    ".flight": (
        "DEFAULT_CAPACITY FLIGHT_SOURCE FlightFile FlightRecorder dump_flight "
        "read_flight"
    ),
    ".slo": (
        "OBJECTIVE_KINDS SLO_FORMAT_VERSION SLO_REPORT_KIND SLO_SPEC_KIND "
        "LiveSloEvaluator ObjectiveVerdict SloObjective SloObservations "
        "SloReport SloSpec evaluate evaluate_objective ingest_artefact "
        "read_slo_report read_slo_spec summarize_slo_report write_slo_report"
    ),
    ".top": "fetch_metrics render_top run_top",
    ".trace_io": (
        "TRACE_FORMAT_VERSION Trace TraceAnalysis analyze build_header "
        "read_trace trace_from_recorder write_analysis_metrics write_trace"
    ),
})
