"""The lock-service gateway tier.

A thin front-end that multiplexes many logical clients over a small
pool of upstream TCP connections to the diner nodes: packed request/response frames
on the hot path, per-connection write batching, and admission control
with typed RETRY shedding.  The ``loadgen`` module drives 10⁴–10⁶
logical clients through it — live over real sockets, or as a seeded
virtual-time simulation whose report is byte-stable.
"""

from .admission import (
    RETRY_ERROR,
    SHED_CLIENT_WINDOW,
    SHED_IN_FLIGHT,
    SHED_QUEUE_FULL,
    SHED_REASONS,
    AdmissionConfig,
    AdmissionController,
)
from .batch import BatchWriter, FlushPolicy
from .loadgen import (
    FleetStats,
    LoadgenConfig,
    coefficient_of_variation,
    run_live,
    run_sim,
)
from .mux import LOST_ERROR, Completion, Decision, GatewayMux, retry_body
from .report import (
    LOADGEN_FORMAT_VERSION,
    LOADGEN_REPORT_KIND,
    build_report,
    read_loadgen_report,
    thin_samples,
    write_loadgen_report,
)
from .server import GatewayConfig, GatewayServer

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BatchWriter",
    "Completion",
    "Decision",
    "FleetStats",
    "FlushPolicy",
    "GatewayConfig",
    "GatewayMux",
    "GatewayServer",
    "LOADGEN_FORMAT_VERSION",
    "LOADGEN_REPORT_KIND",
    "LOST_ERROR",
    "LoadgenConfig",
    "RETRY_ERROR",
    "SHED_CLIENT_WINDOW",
    "SHED_IN_FLIGHT",
    "SHED_QUEUE_FULL",
    "SHED_REASONS",
    "build_report",
    "coefficient_of_variation",
    "read_loadgen_report",
    "retry_body",
    "run_live",
    "run_sim",
    "thin_samples",
    "write_loadgen_report",
]
