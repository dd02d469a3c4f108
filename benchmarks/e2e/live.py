"""The two live workloads: a real cluster behind the real gateway over TCP.

Everything here observes the system from outside: the fleet's own stamps,
``NodeServer.counters()``, ``GatewayMux.counters()``,
``GatewayServer.batch_counters()``, the supervisor's emitted event stream,
and (traced run only) the per-node span files ``ClusterConfig.trace_dir``
makes the cluster write, folded by ``obs.timeline.attribute_grants``.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from fleet import Fleet, Request
from harness import Measurement, median, own_cpu_s, percentile
from spec import SIZES

GRANT_EVENT = "net-grant"
RELEASE_EVENT = "net-release"
HELLO_EVENT = "net-hello-ok"


class LiveWorkload:
    """``live_closed`` and ``live_open``; the sizes tell them apart."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sizes = SIZES[name]

    # ---------------------------------------------------------------- setup

    async def setup(self, seed: int, trace_dir: Optional[Path] = None):
        """Boot cluster + gateway; done when every upstream said hello."""
        from repro.gateway.server import GatewayConfig, GatewayServer
        from repro.net.cluster import ClusterConfig, ClusterSupervisor
        from repro.sim import from_spec

        spec = self.sizes["topology"]
        topology = from_spec(spec)
        config = ClusterConfig(
            topology=topology,
            topology_spec=spec,
            seed=seed,
            lock_service=True,
            chaos=False,
            trace_dir=None if trace_dir is None else str(trace_dir),
        )
        supervisor = ClusterSupervisor(config)
        gateway = None
        # Event and span times count from the instant start() is entered.
        t0 = asyncio.get_running_loop().time()
        try:
            await supervisor.start(60.0)
            labels = [repr(pid) for pid in topology.nodes]
            gateway = GatewayServer(GatewayConfig(
                upstream_addrs=[
                    (config.host, supervisor.nodes[pid].port)
                    for pid in topology.nodes
                ],
                node_labels=labels,
            ))
            await gateway.start()
            deadline = time.monotonic() + 10.0
            while _client_hellos(supervisor.events) < len(labels):
                if time.monotonic() > deadline:
                    raise RuntimeError("upstreams never said hello")
                await asyncio.sleep(0.001)
        except BaseException:
            await _shutdown(supervisor, gateway)
            raise
        return {"supervisor": supervisor, "gateway": gateway,
                "topology": topology, "labels": labels,
                "trace_dir": trace_dir, "t0": t0}

    async def teardown(self, ctx) -> None:
        await _shutdown(ctx["supervisor"], ctx["gateway"])

    # -------------------------------------------------------------- measure

    async def measure(self, ctx, seconds: float, seed: int, tracer, probe) -> Measurement:
        sizes = self.sizes
        supervisor, gateway = ctx["supervisor"], ctx["gateway"]
        loop = asyncio.get_running_loop()
        open_loop = "rate_hz" in sizes
        fleet = Fleet(
            gateway,
            clients=sizes["clients"],
            nodes=len(ctx["labels"]),
            seed=seed,
            hold_s=sizes["hold_s"],
            rate_hz=sizes.get("rate_hz"),
        )
        start = loop.time() + 0.01
        w0 = start + sizes["warmup_s"]
        w1 = w0 + seconds
        task = asyncio.create_task(fleet.run([(start, w0), (w0, w1)]))
        try:
            await asyncio.sleep(w0 - loop.time())
            before = _snapshot(ctx, tracer, probe)
            await asyncio.sleep(w1 - loop.time())
            after = _snapshot(ctx, tracer, probe)
            await task
            # A node publishes net-release on the tick after the release
            # request; let the last ones land before the stream is read.
            await asyncio.sleep(0.05)
        finally:
            if not task.done():
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
        s0, s1 = before["t"], after["t"]
        window_s = s1 - s0
        slowdown = probe.slowdown(s0, s1)
        raw_cpu_s = after["cpu"] - before["cpu"]

        # Requests the window is answerable for: every one *due* in it (open
        # loop), every one that ended or hung in it (closed loop).
        if open_loop:
            attempted = [r for r in fleet.requests if w0 <= r.due < w1]
        else:
            attempted = [
                r for r in fleet.requests
                if (r.done is not None and s0 <= r.done < s1)
                or (r.done is None and r.sent is not None and r.sent < s1)
            ]
        granted = [r for r in attempted if r.ok]
        latencies = sorted(1000.0 * (r.done - r.due) for r in granted)
        limit_ms = sizes.get("limit_ms", 150.0)
        ops = sum(1 for r in fleet.requests if r.ok and s0 <= r.done < s1)

        t0 = ctx["t0"]
        events = list(supervisor.events)
        end_t = loop.time() - t0
        checks = _audit(ctx["topology"], events, end_t, fleet)

        e2e = {}
        if ops and granted:
            e2e = {
                "ops_per_s": ops / window_s,
                "result_p50_ms": median(latencies),
                "cpu_ms_per_op": 1000.0 * raw_cpu_s / slowdown / ops,
            }
        if tracer is not None:
            for r in granted:
                tracer.add_span("fleet.request", r.due, r.done, r.req_id)
        delta = {
            key: after[key] - before[key]
            for key in before if key not in ("t", "cpu")
        }
        return Measurement(
            e2e=e2e,
            raw={
                "cpu_ms_per_op": 1000.0 * raw_cpu_s / max(1, ops),
                "slowdown": slowdown,
            },
            attempted=len(attempted),
            failed=len(attempted) - len(granted),
            checks=checks,
            facts={
                "granted": granted,
                "latencies_ms": latencies,
                "within_limit": sum(1 for v in latencies if v <= limit_ms),
                "gen_late_ms": sorted(
                    1000.0 * (r.sent - r.due)
                    for r in attempted if r.sent is not None
                ),
                "per_client": _per_client(fleet, s0, s1, sizes["clients"]),
                "clients_per_node": sizes["clients"] / len(ctx["labels"]),
                "events": events,
                "t0": t0,
                "window": (s0, s1),
                "busy_share": raw_cpu_s / window_s,
                "ops": ops,
                "delta": delta,
            },
        )

    # --------------------------------------------------------------- layers

    def layers(self, m: Measurement, tracer, ctx) -> Dict[str, float]:
        """Per-layer metrics of one traced measurement (after teardown)."""
        f = m.facts
        granted: List[Request] = f["granted"]
        if not granted:
            return {}
        #: completions inside the window: the base the window's counter
        #: deltas are divided by.
        grants = f["ops"]
        s0, s1 = f["window"]
        window_s = s1 - s0
        t0 = f["t0"]
        delta = f["delta"]
        attempted = m.attempted
        latencies = f["latencies_ms"]

        grant_at = {
            e["detail"]["req"]: e["t"] + t0
            for e in f["events"]
            if e["event"] == GRANT_EVENT and "req" in e.get("detail", {})
        }
        to_grant = [
            1000.0 * (grant_at[r.req_id] - r.sent)
            for r in granted if r.req_id in grant_at
        ]
        to_reply = [
            1000.0 * (r.done - grant_at[r.req_id])
            for r in granted if r.req_id in grant_at
        ]
        counts = [c for c in f["per_client"] if c is not None]
        cv = statistics.pstdev(counts) / statistics.fmean(counts) if any(counts) else 0.0
        decided = delta["admitted"] + delta["shed"]
        flushes = delta["upstream_flushes"]
        out = {
            "fleet.gen_late_p99_ms": percentile(f["gen_late_ms"], 0.99),
            "fleet.grant_p95_ms": percentile(latencies, 0.95),
            "fleet.within_limit_share": f["within_limit"] / attempted,
            "fleet.failed_share": m.failed / attempted,
            "fleet.grant_count_cv": cv,
            "fleet.success_x_contention":
                len(granted) / attempted * f["clients_per_node"],
            "gateway.admission.shed_share":
                delta["shed"] / decided if decided else 0.0,
            "gateway.batch.frames_per_flush":
                delta["upstream_frames"] / flushes if flushes else 0.0,
            "net.codec.frames_per_grant": delta["encode_calls"] / grants,
            "net.node.submit_to_grant_ms": median(to_grant),
            "net.node.grant_to_reply_ms": median(to_reply),
            "net.node.ticks_per_grant": delta["ticks"] / grants,
            "net.node.msgs_per_grant": delta["msgs_out"] / grants,
            "net.node.retransmits_per_grant": delta["retransmits"] / grants,
            "net.node.concurrent_eaters_mean":
                _eaters(f["events"], t0, s0, s1) / window_s,
            "net.node.cpu_busy_share": f["busy_share"],
        }
        ledger = self._ledger(m, tracer, ctx, grant_at, grants, delta)
        out.update(ledger)
        return out

    def _ledger(self, m, tracer, ctx, grant_at, grants, delta) -> Dict[str, float]:
        """The per-grant path, outside in, as consecutive stamps.

        ``due → sent → (submit returns) → node opens the acquire span →
        queue / transfer / retransmit → node grants → completion routed``.
        The rows partition ``done - due`` for each grant; what they fail to
        add up to is printed as ``ledger.unattributed_share``.
        """
        from repro.obs.timeline import attribute_grants
        from repro.obs.tracing import read_spans

        f = m.facts
        t0 = f["t0"]
        spans_by_node: Dict[str, list] = {}
        for path in sorted(Path(ctx["trace_dir"]).glob("spans-*.jsonl")):
            for span in read_spans(path).spans:
                spans_by_node.setdefault(span.node, []).append(span)
        #: (node, span id) -> repr(request id), the join key to the fleet.
        req_of = {
            (span.node, span.span_id): span.attrs.get("req")
            for spans in spans_by_node.values() for span in spans
            if span.name == "acquire"
        }
        opened = {
            span.attrs.get("req"): span.open_t + t0
            for spans in spans_by_node.values() for span in spans
            if span.name == "acquire"
        }
        attribution = {
            req_of.get((a.node, a.span)): a
            for a in attribute_grants(spans_by_node)
        }
        submit_ms = tracer.agg.get("gateway.server.submit", (0, 0.0, 0.0))
        submit_ms = 1000.0 * submit_ms[1] / submit_ms[0] if submit_ms[0] else 0.0
        rows: Dict[str, List[float]] = {name: [] for name in LEDGER_ROWS}
        totals: List[float] = []
        for r in f["granted"]:
            key = repr(r.req_id)
            a = attribution.get(key)
            if a is None or key not in opened or r.req_id not in grant_at:
                continue
            totals.append(1000.0 * (r.done - r.due))
            rows["fleet"].append(1000.0 * (r.sent - r.due))
            rows["gateway.server"].append(submit_ms)
            rows["net.node ingress"].append(
                1000.0 * (opened[key] - r.sent) - submit_ms
            )
            rows["mp.diners_mp queue"].append(1000.0 * a.queue_s)
            rows["mp.diners_mp transfer"].append(1000.0 * a.transfer_s)
            rows["mp.diners_mp retransmit"].append(1000.0 * a.retransmit_s)
            rows["net.node grant_to_reply"].append(
                1000.0 * (r.done - grant_at[r.req_id])
            )
        if not totals:
            return {}
        p50 = median(totals)
        # Medians of the rows do not add up (queue and transfer trade off
        # grant by grant); means over the middle fifth of grants, ranked by
        # total latency, do — and describe the median grant.
        ranked = sorted(range(len(totals)), key=totals.__getitem__)
        low = 2 * len(ranked) // 5
        middle = ranked[low: max(low + 1, 3 * len(ranked) // 5)]
        typical = {
            name: sum(values[i] for i in middle) / len(middle)
            for name, values in rows.items()
        }
        codec_ms = 1000.0 * delta["codec_self_s"] / grants
        unattributed = 1.0 - sum(typical.values()) / p50
        print(f"ledger {self.name}: {len(totals)} grants, "
              f"traced grant p50 {p50:.3f} ms")
        for name in LEDGER_ROWS:
            print(f"  {name:<26}{typical[name]:>10.3f} ms"
                  f"{100.0 * typical[name] / p50:>7.1f} %")
        print(f"  {'(net.codec cpu, inside)':<26}{codec_ms:>10.3f} ms"
              f"{100.0 * codec_ms / p50:>7.1f} %")
        print(f"  {'unattributed':<26}{unattributed * p50:>10.3f} ms"
              f"{100.0 * unattributed:>7.1f} %")
        return {
            "mp.diners_mp.queue_ms": typical["mp.diners_mp queue"],
            "mp.diners_mp.transfer_ms": typical["mp.diners_mp transfer"],
            "mp.diners_mp.retransmit_ms": typical["mp.diners_mp retransmit"],
            "ledger.unattributed_share": abs(unattributed),
        }


LEDGER_ROWS = (
    "fleet",
    "gateway.server",
    "net.node ingress",
    "mp.diners_mp queue",
    "mp.diners_mp transfer",
    "mp.diners_mp retransmit",
    "net.node grant_to_reply",
)


# ------------------------------------------------------------------ helpers


async def _shutdown(supervisor, gateway) -> None:
    if gateway is not None:
        await gateway.stop()
    await supervisor.stop()


def _client_hellos(events: List[Dict[str, Any]]) -> int:
    return sum(
        1 for e in events
        if e["event"] == HELLO_EVENT
        and e.get("detail", {}).get("role") == "client"
    )


def _snapshot(ctx, tracer, probe) -> Dict[str, float]:
    """Cumulative counters of every layer, read through public accessors."""
    supervisor, gateway = ctx["supervisor"], ctx["gateway"]
    snap: Dict[str, float] = {
        "t": asyncio.get_running_loop().time(),
        "cpu": own_cpu_s(probe),
    }
    counters = [node.counters() for node in supervisor.nodes.values()]
    for key in ("ticks", "msgs_out", "retransmits"):
        snap[key] = sum(c[key] for c in counters)
    mux = gateway.mux.counters()
    snap["admitted"] = mux["admitted"]
    snap["shed"] = sum(mux["shed"].values())
    batch = gateway.batch_counters()
    snap["upstream_frames"] = batch["upstream_frames"]
    snap["upstream_flushes"] = batch["upstream_flushes"]
    snap["encode_calls"] = 0 if tracer is None else tracer.calls("net.codec.encode")
    snap["codec_self_s"] = 0.0 if tracer is None else (
        tracer.self_s("net.codec.encode") + tracer.self_s("net.codec.decode")
    )
    return snap


def _audit(topology, events, end_t: float, fleet: Fleet) -> Dict[str, bool]:
    from repro.net.lock import hold_intervals, neighbour_violations

    violations = neighbour_violations(
        topology, hold_intervals(events, end_t=end_t)
    )
    grants: Dict[str, int] = {}
    releases: Dict[str, int] = {}
    for e in events:
        if e["event"] == GRANT_EVENT:
            grants[e["node"]] = grants.get(e["node"], 0) + 1
        elif e["event"] == RELEASE_EVENT:
            releases[e["node"]] = releases.get(e["node"], 0) + 1
    acquired = sum(1 for r in fleet.requests if r.ok)
    return {
        "no neighbour held the lock at once": not violations,
        "every grant has its release":
            grants == releases and fleet.releases_ok == acquired,
    }


def _per_client(fleet: Fleet, s0: float, s1: float, clients: int):
    """Grants per client inside the window; ``None`` = client never asked."""
    counts: List[Optional[int]] = [None] * clients
    for r in fleet.requests:
        if r.client < 0 or r.sent is None:
            continue
        if counts[r.client] is None:
            counts[r.client] = 0
        if r.ok and s0 <= r.done < s1:
            counts[r.client] += 1
    return counts


def _eaters(events, t0: float, s0: float, s1: float) -> float:
    """Eater-seconds inside ``[s0, s1)`` from the grant/release stream."""
    from repro.net.lock import hold_intervals

    total = 0.0
    for spans in hold_intervals(events, end_t=s1 - t0).values():
        for start, end in spans:
            lo, hi = max(start + t0, s0), min(end + t0, s1)
            if hi > lo:
                total += hi - lo
    return total
