"""The lock-service gateway tier.

A thin front-end that multiplexes many logical clients over a small
pool of upstream TCP connections to the diner nodes: packed request/response frames
on the hot path, per-connection write batching, and admission control
with typed RETRY shedding.  The ``loadgen`` module drives 10⁴–10⁶
logical clients through it as a seeded virtual-time simulation whose
report is byte-stable; the ``live`` module drives the same fleet over
real sockets.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".admission": (
        "RETRY_ERROR SHED_CLIENT_WINDOW SHED_IN_FLIGHT SHED_QUEUE_FULL "
        "SHED_REASONS AdmissionConfig AdmissionController"
    ),
    ".batch": "BatchWriter FlushPolicy",
    ".live": "run_live",
    ".loadgen": "FleetStats LoadgenConfig coefficient_of_variation run_sim",
    ".mux": "LOST_ERROR Completion Decision GatewayMux retry_body",
    ".report": (
        "LOADGEN_FORMAT_VERSION LOADGEN_REPORT_KIND build_report "
        "read_loadgen_report thin_samples write_loadgen_report"
    ),
    ".server": "GatewayConfig GatewayServer",
})
