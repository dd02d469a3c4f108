"""The gateway multiplexer: route, admit, account — no sockets.

``GatewayMux`` is the pure data plane of the gateway: it maps logical
clients onto upstream connection slots, allocates compact request ids,
applies :class:`~repro.gateway.admission.AdmissionController` windows,
tracks every in-flight operation, and turns upstream responses back into
per-client completions with measured waits.  It is deliberately
transport-free — the live :class:`~repro.gateway.server.GatewayServer`
drives it from asyncio callbacks, the virtual-time load generator drives
it from a heap, and the ``gateway/mux`` perf kernel drives it in a tight
loop — all three see identical decisions.

Topology model: the mux addresses nodes by *index* (the u16 ``node``
field of a packed request); each node owns ``upstreams_per_node``
connection slots, used round-robin, so one hot node can spread over a
few pipes while the total stays within the configured connection budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.prom import Sample
from .admission import AdmissionConfig, AdmissionController, RETRY_ERROR

#: The error a completion carries when its upstream connection died.
LOST_ERROR = "connection-lost"
#: The refusal for a request no node can admit (no node index, or
#: ``BAD_NODE``, one out of range): not a shed, so no retry is offered.
BAD_REQUEST_ERROR = "bad-request"
BAD_NODE = "bad-node"


@dataclass(slots=True)
class Decision:
    """The outcome of one ``submit``: admitted-and-routed, or refused.

    Slotted, not frozen: a frozen ``__init__`` sends every field through
    ``object.__setattr__``, and that was most of the cost of a shed.
    """

    admitted: bool
    client: str
    node: int
    op: str
    req_id: Optional[str] = None  #: set when admitted
    upstream: int = -1  #: connection slot when admitted
    reason: Optional[str] = None  #: shed reason or ``BAD_NODE`` otherwise
    retry_after_s: float = 0.0


@dataclass(slots=True)
class Completion:
    """One finished operation, routed back to its logical client."""

    client: str
    node: int
    op: str
    req_id: str
    ok: bool
    wait_s: float
    error: Optional[str] = None
    retry_after_s: float = 0.0


class GatewayMux:
    """Routing + admission + accounting for one gateway instance."""

    def __init__(
        self,
        nodes: Sequence[Any],
        *,
        upstreams_per_node: int = 1,
        admission: AdmissionConfig = AdmissionConfig(),
        gateway_id: str = "gw",
    ) -> None:
        if not nodes:
            raise ValueError("gateway needs at least one node")
        if upstreams_per_node < 1:
            raise ValueError("upstreams_per_node must be >= 1")
        self.nodes = list(nodes)
        self.gateway_id = gateway_id
        self.admission = AdmissionController(admission)
        #: slot -> node index; slots are dense, grouped per node.
        self.slot_node: List[int] = []
        self._node_slots: List[List[int]] = []
        for index in range(len(self.nodes)):
            slots = []
            for _ in range(upstreams_per_node):
                slots.append(len(self.slot_node))
                self.slot_node.append(index)
            self._node_slots.append(slots)
        self._rr: List[int] = [0] * len(self.nodes)
        #: req_id -> (the admitted decision, its submit time)
        self._pending: Dict[str, Tuple[Decision, float]] = {}
        self._seq = 0
        self.grants = 0
        self.failures = 0
        self.unmatched = 0

    @property
    def upstream_count(self) -> int:
        return len(self.slot_node)

    # ------------------------------------------------------------- submit

    def submit(self, client: str, node: int, op: str, now: float) -> Decision:
        """Route one logical-client operation, or shed it.

        An admitted decision names the upstream slot and the allocated
        request id — the transport encodes exactly that id upstream, and
        :meth:`resolve` matches the response back by it.
        """
        if not 0 <= node < len(self.nodes):
            return Decision(
                admitted=False, client=client, node=node, op=op,
                reason=BAD_NODE,
            )
        slots = self._node_slots[node]
        slot = slots[self._rr[node] % len(slots)]
        self._rr[node] += 1
        reason = self.admission.try_admit(client, node, slot, op)
        if reason is not None:
            return Decision(
                admitted=False, client=client, node=node, op=op,
                reason=reason,
                retry_after_s=self.admission.config.retry_after_s,
            )
        self._seq += 1
        req_id = f"{self.gateway_id}.{self._seq:x}"
        decision = Decision(
            admitted=True, client=client, node=node, op=op,
            req_id=req_id, upstream=slot,
        )
        self._pending[req_id] = (decision, now)
        return decision

    # ------------------------------------------------------------ resolve

    def resolve(
        self,
        req_id: str,
        ok: bool,
        now: float,
        *,
        error: Optional[str] = None,
        retry_after_s: float = 0.0,
    ) -> Optional[Completion]:
        """Match an upstream response; ``None`` for unknown/duplicate ids."""
        entry = self._pending.pop(req_id, None)
        if entry is None:
            self.unmatched += 1
            return None
        decision, at = entry
        client, node, op = decision.client, decision.node, decision.op
        self.admission.settle(client, node, decision.upstream, op)
        if ok and op == "acquire":
            self.grants += 1
        elif not ok:
            self.failures += 1
        return Completion(
            client, node, op, req_id, ok, max(0.0, now - at), error,
            retry_after_s,
        )

    def abandon(self, upstream: int, now: float) -> List[Completion]:
        """Fail everything in flight on a dead upstream connection."""
        dead = [
            req_id
            for req_id, (decision, _) in self._pending.items()
            if decision.upstream == upstream
        ]
        return [self.resolve(r, False, now, error=LOST_ERROR) for r in dead]

    # ------------------------------------------------------------- gauges

    def pending_count(self) -> int:
        return len(self._pending)

    def holders(self) -> List[Tuple[str, int]]:
        """``(req_id, node)`` of pending ops, for drain/diagnostics."""
        return [(r, d.node) for r, (d, _) in self._pending.items()]

    def counters(self) -> Dict[str, Any]:
        adm = self.admission
        return {
            "admitted": adm.admitted,
            "completed": adm.completed,
            "grants": self.grants,
            "failures": self.failures,
            "unmatched": self.unmatched,
            "pending": len(self._pending),
            "shed": dict(adm.shed),
            "clients": len(adm.client_admitted),
        }

    def samples(self) -> List[Sample]:
        """The gateway's mux gauges, ``/metrics``-ready."""
        adm = self.admission
        samples = [
            Sample(
                "repro_gateway_pending", float(len(self._pending)),
                kind="gauge", help="Operations in flight through the mux",
            ),
            Sample(
                "repro_gateway_admitted_total", float(adm.admitted),
                kind="counter", help="Operations admitted upstream",
            ),
            Sample(
                "repro_gateway_grants_total", float(self.grants),
                kind="counter", help="Acquire grants routed back",
            ),
            Sample(
                "repro_gateway_clients", float(len(adm.client_admitted)),
                kind="gauge", help="Logical clients seen",
            ),
        ]
        for reason, count in sorted(adm.shed.items()):
            samples.append(
                Sample(
                    "repro_gateway_shed_total", float(count),
                    labels={"reason": reason}, kind="counter",
                    help="Admissions refused with a typed RETRY",
                )
            )
        for index, node in enumerate(self.nodes):
            samples.append(
                Sample(
                    "repro_gateway_queue_depth",
                    float(adm.queue_depth(index)),
                    labels={"node": str(node)}, kind="gauge",
                    help="Un-granted acquires parked at the node",
                )
            )
        for slot, node_index in enumerate(self.slot_node):
            samples.append(
                Sample(
                    "repro_gateway_upstream_in_flight",
                    float(adm.in_flight(slot)),
                    labels={
                        "slot": str(slot),
                        "node": str(self.nodes[node_index]),
                    },
                    kind="gauge",
                    help="Operations outstanding on the upstream pipe",
                )
            )
        return samples


def retry_body(decision: Decision) -> Dict[str, Any]:
    """The typed response body for a refused decision.

    Shape-compatible with a node's refusal so clients handle both with
    one code path.  A shed's ``error`` is the literal ``"retry"`` and its
    reason rides in ``shed``; a ``BAD_NODE`` refusal is ``"bad-request"``,
    the answer to a request that names no node, and carries no ``shed``.
    """
    if decision.reason == BAD_NODE:
        return {"op": decision.op, "ok": False, "error": BAD_REQUEST_ERROR}
    return {
        "op": decision.op,
        "ok": False,
        "error": RETRY_ERROR,
        "shed": decision.reason,
        "retry_after_s": decision.retry_after_s,
    }
