"""The live load-generator engine: the fleet through a real gateway.

:func:`run_live` makes :class:`~repro.gateway.loadgen.ClientFleet` the
traffic of a :func:`~repro.net.cluster.supervised_run` — a real cluster,
with chaos if asked — through a real
:class:`~repro.gateway.server.GatewayServer` over TCP.  Latencies are
wall-clock; the safety audit is the run's own, as for ``soak``: the same
verdict, violation lines and flight dump.

This module is the only part of ``repro loadgen`` that imports the TCP
cluster; the virtual-time engine in :mod:`repro.gateway.loadgen` imports
none of it, and ``cmd_loadgen`` imports this module only when it runs
live.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..net.cluster import (
    cluster_config,
    run_interruptible,
    supervised_run,
    write_cluster_artefacts,
)
from ..net.lock import violation_lines
from .loadgen import ClientFleet, FleetStats, LoadgenConfig
from .mux import GatewayMux
from .report import build_report
from .server import GatewayConfig, GatewayServer


async def run_live(
    config: LoadgenConfig,
    cluster_config,
) -> Tuple[Dict[str, Any], Any, List[Any]]:
    """The live engine: the fleet through a gateway in front of a
    supervised cluster run, then the run's audit.

    Returns ``(report, cluster_result, violations)`` — the CLI writes the
    artefacts and decides the exit code.
    """
    config.validate()
    topology_nodes = list(cluster_config.topology.nodes)
    if len(topology_nodes) != config.nodes:
        raise ValueError(
            f"cluster topology has {len(topology_nodes)} nodes, "
            f"loadgen config says {config.nodes}"
        )
    node_labels = [repr(pid) for pid in topology_nodes]
    stats = FleetStats(config.clients, node_labels)
    #: What the gateway leaves behind: its mux and batch counters.
    served: Dict[str, Any] = {"mux": GatewayMux(node_labels), "batching": {}}

    async def traffic(supervisor, stop_at: float) -> None:
        gateway = GatewayServer(GatewayConfig(
            upstream_addrs=[
                (cluster_config.host, supervisor.nodes[pid].port)
                for pid in topology_nodes
            ],
            node_labels=node_labels, host=cluster_config.host,
            upstreams_per_node=config.upstreams_per_node,
            max_upstreams=config.max_upstreams, admission=config.admission,
            upstream_flush=config.flush, gateway_id=config.gateway_id,
        ))
        served["mux"] = gateway.mux
        try:
            await gateway.start()
            await ClientFleet(config, stats).drive(gateway, stop_at)
        finally:
            served["batching"] = gateway.batch_counters()
            await gateway.stop()

    result = await supervised_run(cluster_config, config.duration_s, traffic)
    violations = result.audit.violations
    results = stats.results_doc(
        config.duration_s,
        served["mux"],
        batching=served["batching"],
        safety={
            "mode": "live",
            "violations": len(violations),
            "audited_events": len(result.events),
            "killed": sorted(result.killed),
            "interrupted": result.interrupted,
        },
    )
    return build_report(config.spec_doc("live"), results), result, violations


def run_live_command(
    config: LoadgenConfig, *, nodes: int, topology: Optional[str], seed: int,
    duration: float, metrics_out: Optional[str], events_out: Optional[str],
    **cluster_flags: Any,
) -> Tuple[Dict[str, Any], List[str]]:
    """``repro loadgen``'s live branch: spawn the cluster
    (``cluster_flags`` are :func:`~repro.net.cluster.cluster_config`'s),
    run the fleet behind a gateway and write the cluster's artefacts.

    Returns the report and the violation lines to print under its summary
    (none when the audit found no overlap).
    """
    cluster, _ = cluster_config(
        lock_service=True, nodes=nodes, topology=topology, seed=seed,
        duration=duration, events_out=events_out, **cluster_flags,
    )
    report, result, violations = run_interruptible(
        cluster, run_live(config, cluster)
    )
    write_cluster_artefacts(result, metrics_out=metrics_out, events_out=events_out)
    if not violations:
        return report, []
    # The overlaps themselves are not in the report, only their count.
    return report, violation_lines(violations, result.byzantine)
