"""repro.net — the live cluster runtime.

The execution substrate that takes the §4 message-passing processes out of
the in-process simulator and onto real asyncio TCP sockets:

* :mod:`repro.net.codec` — versioned, length-prefixed, CRC-guarded wire
  frames with a garbage-tolerant incremental decoder (the wire image of
  the paper's arbitrary-initial-channel model);
* :mod:`repro.net.wire_channel` — a simulator channel that round-trips
  every payload through the codec, proving transport/simulator parity;
* :mod:`repro.net.node` — the node daemon hosting an unchanged
  :class:`~repro.mp.node.MpProcess` behind sockets, plus the lock-service
  process;
* :mod:`repro.net.chaos` — seeded, reproducible fault schedules applied
  by socket-level link proxies (delay, drop, duplicate, reorder,
  partition, malicious garbage-then-halt);
* :mod:`repro.net.cluster` — the supervisor that runs an N-node topology
  on localhost with observability artefacts;
* :mod:`repro.net.lock` — the client API and the soak harness that audits
  safety from the emitted event stream.
"""

from .._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    ".chaos": (
        "EVENT_KINDS ChaosController ChaosSchedule FaultEvent LinkProfile "
        "LinkProxy build_schedule validate_schedule"
    ),
    ".cluster": (
        "ClusterConfig ClusterResult ClusterSupervisor MetricsEndpoint "
        "RestartPolicy cluster_metrics merge_counters read_cluster_events "
        "run_cluster sanitize_node write_cluster_events write_cluster_metrics"
    ),
    ".codec": (
        "Decoder Frame WIRE_VERSION CodecError decode_message encode_frame "
        "encode_hello encode_message encode_request encode_response "
        "hello_fields"
    ),
    ".lock": (
        "DEFAULT_ACQUIRE_TIMEOUT LockClient LockError SoakResult Violation "
        "attribute_violations hold_intervals neighbour_violations soak"
    ),
    ".node": "LockDinerProcess NetContext NodeServer",
    ".wire_channel": "WireChannel",
})
