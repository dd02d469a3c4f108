"""Admission control for the gateway: bounded windows, typed sheds.

A front-end tier that accepts every request under overload just moves the
collapse one hop downstream: the nodes' waiter queues grow without bound,
every grant latency explodes together, and the SLO burns down for all
clients at once.  The controller enforces three independent bounds and
*refuses early* with a typed RETRY instead — the client that is told
"come back in 50 ms" costs the cluster nothing while it waits:

* **per-client window** — one logical client may have at most
  ``max_per_client`` operations in flight.  Lock semantics make more than
  one acquire per client nonsensical anyway; the bound turns a buggy or
  greedy client into its own problem instead of everyone's (the fairness
  lever of Ben-David & Blelloch's wait-free locks, applied at admission).
* **per-node queue depth** — at most ``max_queue_depth`` un-granted
  acquires may be parked at one node.  This is the overload shed: past
  this depth the expected wait already exceeds any useful deadline.
* **per-upstream in-flight window** — at most ``max_in_flight``
  operations outstanding on one upstream connection, the classic bounded
  pipelining window.

Releases are *never* shed: refusing one would leak a held lock, which is
a safety problem, not a load problem.

The controller is synchronous and deterministic — the live gateway and
the virtual-time load-generator drive the very same object, so admission
behaviour in a byte-stable simulation is the behaviour on real sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..net.codec import MAX_RETRY_MS

#: Typed shed reasons, carried verbatim in the RETRY response's ``error``.
SHED_CLIENT_WINDOW = "client-window"
SHED_QUEUE_FULL = "queue-full"
SHED_IN_FLIGHT = "in-flight-window"

SHED_REASONS = (SHED_CLIENT_WINDOW, SHED_QUEUE_FULL, SHED_IN_FLIGHT)

#: The typed refusal every shed response carries (``ok=False``).
RETRY_ERROR = "retry"


@dataclass(frozen=True)
class AdmissionConfig:
    """The three bounds plus the back-off hint for refused clients."""

    max_per_client: int = 1
    max_queue_depth: int = 256
    max_in_flight: int = 1024
    retry_after_s: float = 0.05

    def validate(self) -> None:
        if self.max_per_client < 1:
            raise ValueError("max_per_client must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        # The upper bound is what a shed response can carry on the wire.
        if not 0 <= self.retry_after_s <= MAX_RETRY_MS / 1000:
            raise ValueError(
                f"retry_after_s must be in [0, {MAX_RETRY_MS / 1000}]"
            )


class AdmissionController:
    """Windowed admission with per-client fairness accounting.

    ``try_admit`` either admits (returns ``None``) and takes the slots, or
    returns the shed reason; ``settle`` gives the slots back on
    completion.  Per-client admitted/shed counts accumulate for the
    fairness CV the load generator reports.
    """

    def __init__(self, config: AdmissionConfig = AdmissionConfig()) -> None:
        config.validate()
        self.config = config
        self._client_in_flight: Dict[str, int] = {}
        self._node_queue: Dict[Any, int] = {}
        self._upstream_in_flight: Dict[int, int] = {}
        self.admitted = 0
        self.completed = 0
        self.shed: Dict[str, int] = {r: 0 for r in SHED_REASONS}
        self.client_admitted: Dict[str, int] = {}
        self.client_shed: Dict[str, int] = {}

    # ------------------------------------------------------------- windows

    def try_admit(
        self, client: str, node: Any, upstream: int, op: str
    ) -> Optional[str]:
        """Admit (``None``) or the typed shed reason.

        Releases bypass the queue-depth and client windows — refusing one
        would leak a lock — but still count toward the upstream window so
        the pipe stays bounded.
        """
        cfg = self.config
        if op != "release":
            if self._client_in_flight.get(client, 0) >= cfg.max_per_client:
                return self._refuse(client, SHED_CLIENT_WINDOW)
            if self._node_queue.get(node, 0) >= cfg.max_queue_depth:
                return self._refuse(client, SHED_QUEUE_FULL)
            if self._upstream_in_flight.get(upstream, 0) >= cfg.max_in_flight:
                return self._refuse(client, SHED_IN_FLIGHT)
        self._client_in_flight[client] = (
            self._client_in_flight.get(client, 0) + 1
        )
        self._upstream_in_flight[upstream] = (
            self._upstream_in_flight.get(upstream, 0) + 1
        )
        if op == "acquire":
            self._node_queue[node] = self._node_queue.get(node, 0) + 1
        self.admitted += 1
        self.client_admitted[client] = self.client_admitted.get(client, 0) + 1
        return None

    def _refuse(self, client: str, reason: str) -> str:
        self.shed[reason] += 1
        self.client_shed[client] = self.client_shed.get(client, 0) + 1
        return reason

    def settle(self, client: str, node: Any, upstream: int, op: str) -> None:
        """Give back the slots an admitted operation held."""
        self.completed += 1
        self._dec(self._client_in_flight, client)
        self._dec(self._upstream_in_flight, upstream)
        if op == "acquire":
            self._dec(self._node_queue, node)

    @staticmethod
    def _dec(counts: Dict, key: Any) -> None:
        left = counts.get(key, 0) - 1
        if left > 0:
            counts[key] = left
        else:
            counts.pop(key, None)

    # ------------------------------------------------------------- gauges

    def in_flight(self, upstream: int) -> int:
        return self._upstream_in_flight.get(upstream, 0)

    def queue_depth(self, node: Any) -> int:
        return self._node_queue.get(node, 0)

    def shed_total(self) -> int:
        return sum(self.shed.values())

    def fairness_counts(self) -> List[Tuple[str, int]]:
        """``(client, admitted)`` pairs, sorted — the fairness ledger."""
        return sorted(self.client_admitted.items())
