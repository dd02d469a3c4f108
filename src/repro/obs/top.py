"""``repro top`` — a terminal dashboard over the supervisor's /metrics.

Polls the Prometheus endpoint a running ``cluster run`` / ``cluster soak``
exposes (``--metrics-port``) and renders the live picture the operator
cares about during chaos: per-node grant/traffic rates, per-edge
retransmits, the current waiting-chain length and precedence-graph depth,
hunger-latency percentiles, and convergence deadlines of restarted nodes.

Rendering is a pure function of two consecutive sample sets
(:func:`render_top`), so tests drive it without sockets; the fetch loop is
a thin wrapper.  ``--once`` prints a single snapshot and exits — the CI
smoke path.
"""

from __future__ import annotations

import http.client
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .prom import Sample, find, parse_prometheus

#: ANSI clear-screen + home, used between refreshes.
CLEAR = "\x1b[2J\x1b[H"


def fetch_metrics(url: str, *, timeout: float = 2.0) -> str:
    """The exposition document at ``url`` (raises OSError on failure).

    Every failure mode folds into one ``OSError`` — refused/dead endpoints
    (``URLError``), torn HTTP responses mid-teardown
    (``http.client.HTTPException``), and malformed URLs (``ValueError``) —
    so the CLI prints one line and exits nonzero instead of tracebacking.
    """
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8", "replace")
    except urllib.error.URLError as exc:
        raise OSError(f"{url}: {exc.reason}") from None
    except (ValueError, http.client.HTTPException) as exc:
        # A BadStatusLine quotes the peer's raw bytes, newlines included —
        # collapse whitespace so the error genuinely is one line.
        raise OSError(f"{url}: {' '.join(str(exc).split())}") from None


def _rate(
    current: Optional[Sample], previous: Optional[Sample], dt: float
) -> Optional[float]:
    if current is None or previous is None or dt <= 0:
        return None
    return max(0.0, (current.value - previous.value) / dt)


def _fmt_rate(rate: Optional[float]) -> str:
    return "   -  " if rate is None else f"{rate:6.1f}"


def render_top(
    samples: Sequence[Sample],
    previous: Optional[Sequence[Sample]] = None,
    *,
    interval_s: float = 1.0,
) -> str:
    """The dashboard for one sample set (rates need a previous set)."""
    prev_by_key: Dict[Tuple, Sample] = {}
    if previous:
        prev_by_key = {s.key(): s for s in previous}

    def prev(sample: Optional[Sample]) -> Optional[Sample]:
        return None if sample is None else prev_by_key.get(sample.key())

    lines: List[str] = []
    uptime = find(samples, "repro_cluster_uptime_seconds")
    nodes = sorted(
        {s.labels["node"] for s in samples
         if s.name == "repro_node_up" and "node" in s.labels}
    )
    killed = find(samples, "repro_cluster_killed")
    chain = find(samples, "repro_cluster_waiting_chain_length")
    depth = find(samples, "repro_cluster_precedence_depth")
    lines.append(
        "cluster: "
        f"up {0.0 if uptime is None else uptime.value:.1f}s  "
        f"nodes {len(nodes)}  "
        f"killed {0 if killed is None else int(killed.value)}  "
        f"waiting-chain {0 if chain is None else int(chain.value)}  "
        f"priority-depth {0 if depth is None else int(depth.value)}"
    )
    for q in ("0.5", "0.9", "0.99"):
        sample = find(samples, "repro_cluster_hunger_latency_seconds", q=q)
        if sample is not None:
            lines.append(f"  hunger p{int(float(q) * 100)}: {sample.value:.3f}s")

    lines.append(
        f"{'node':>8}  {'up':>2}  {'grants':>6} {'gr/s':>6}  "
        f"{'msgs in/s':>9}  {'out/s':>6}  {'rtx':>5}  {'epoch':>5}"
    )
    for node in nodes:
        up = find(samples, "repro_node_up", node=node)
        grants = find(samples, "repro_node_grants_total", node=node)
        msgs_in = find(samples, "repro_node_msgs_in_total", node=node)
        msgs_out = find(samples, "repro_node_msgs_out_total", node=node)
        rtx = find(samples, "repro_node_retransmits_total", node=node)
        epoch = find(samples, "repro_node_epoch", node=node)
        lines.append(
            f"{node:>8}  {int(up.value) if up else 0:>2}  "
            f"{int(grants.value) if grants else 0:>6} "
            f"{_fmt_rate(_rate(grants, prev(grants), interval_s))}  "
            f"{_fmt_rate(_rate(msgs_in, prev(msgs_in), interval_s)):>9}  "
            f"{_fmt_rate(_rate(msgs_out, prev(msgs_out), interval_s))}  "
            f"{int(rtx.value) if rtx else 0:>5}  "
            f"{int(epoch.value) if epoch else 0:>5}"
        )

    edges = sorted(
        (s for s in samples if s.name == "repro_edge_retransmits_total"),
        key=lambda s: (s.labels.get("node", ""), s.labels.get("peer", "")),
    )
    busy = [e for e in edges if e.value > 0]
    if busy:
        lines.append("retransmitting edges:")
        for edge in busy:
            rate = _rate(edge, prev(edge), interval_s)
            lines.append(
                f"  {edge.labels.get('node', '?')} -> "
                f"{edge.labels.get('peer', '?')}: {int(edge.value)}"
                + ("" if rate is None else f"  ({rate:.1f}/s)")
            )

    convergence = sorted(
        (s for s in samples if s.name == "repro_cluster_convergence_seconds"),
        key=lambda s: s.labels.get("node", ""),
    )
    for sample in convergence:
        lines.append(
            f"convergence: {sample.labels.get('node', '?')} "
            f"re-granted {sample.value:.3f}s after restart"
        )
    return "\n".join(lines)


def run_top(
    url: str,
    *,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
    out: Callable[[str], None] = print,
    clear: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll ``url`` and render until interrupted (or for ``iterations``).

    Returns 0; raises ``OSError`` if the very first fetch fails (a later
    failure is rendered as a status line — the supervisor may simply have
    finished its run)."""
    previous: Optional[List[Sample]] = None
    count = 0
    while iterations is None or count < iterations:
        if count:
            sleep(interval_s)
        try:
            text = fetch_metrics(url)
        except OSError:
            if previous is None:
                raise
            out(f"(endpoint gone: {url} — cluster finished?)")
            return 0
        samples = parse_prometheus(text)
        body = render_top(samples, previous, interval_s=interval_s)
        out((CLEAR if clear and count else "") + body)
        previous = samples
        count += 1
    return 0


def cmd_top(
    *, url: Optional[str], host: str, port: Optional[int], interval: float, once: bool,
) -> int:
    """``repro top``: the dashboard over ``url``, or over a cluster's
    ``--metrics-port`` on ``host``; ``once`` renders one frame."""
    if not url and port is None:
        raise ValueError("--url or --port is required")
    try:
        return run_top(
            url or f"http://{host}:{port}/metrics",
            interval_s=interval,
            iterations=1 if once else None,
            clear=not once,
        )
    except KeyboardInterrupt:
        return 0
