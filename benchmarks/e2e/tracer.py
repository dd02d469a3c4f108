"""Timing wrappers the benchmark installs around each layer's public calls.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the callables named in :func:`targets` with wrappers that time
each call, keep a parent stack so a layer's *self* time excludes the
layers it calls, and hold spans in memory (``id, parent, name, start, end,
req``) until :meth:`Tracer.write_spans` at exit.  Every wrapped callable is
synchronous, so one stack is sound on the single event-loop thread.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept in memory per run; aggregates keep counting past the cap.
SPAN_CAP = 50_000


def _submit_req(args, decision) -> Optional[str]:
    return decision.req_id


def _resolve_req(args, completion) -> Optional[str]:
    return args[1]


def targets() -> List[Tuple[str, Any, str, Optional[Callable]]]:
    """``(span name, owner, attribute, request-id extractor)`` for every
    wrapped callable."""
    import repro.fastcore.engine as fast_engine
    import repro.fastcore.explorer as fast_explorer
    import repro.fastcore.packed as packed
    import repro.gateway.admission as admission
    import repro.gateway.mux as mux
    import repro.gateway.server as server
    import repro.mp.diners_mp as diners_mp
    import repro.mp.engine as mp_engine
    import repro.net.codec as codec
    import repro.sim.engine as sim_engine

    return [
        ("gateway.server.submit", server.GatewayServer, "submit", None),
        ("gateway.mux.submit", mux.GatewayMux, "submit", _submit_req),
        ("gateway.mux.resolve", mux.GatewayMux, "resolve", _resolve_req),
        ("gateway.admission.try_admit", admission.AdmissionController,
         "try_admit", None),
        ("net.codec.encode", codec, "encode_request", None),
        ("net.codec.encode", codec, "encode_response", None),
        ("net.codec.encode", codec, "encode_frame", None),
        ("net.codec.decode", codec.Decoder, "feed", None),
        ("mp.diners_mp.on_tick", diners_mp.DinersMpProcess, "on_tick", None),
        ("mp.diners_mp.on_message", diners_mp.DinersMpProcess, "on_message", None),
        ("mp.engine.step", mp_engine.MpEngine, "step", None),
        ("sim.engine.step", sim_engine.Engine, "step", None),
        ("fastcore.engine.step", fast_engine.FastEngine, "step", None),
        ("fastcore.explorer.successors", fast_explorer.FastTransitionSystem,
         "successors_packed", None),
        ("fastcore.packed.key", packed.PackedCodec, "key", None),
    ]


class Tracer:
    """Per-name call/total/self aggregates plus a capped span list.

    The default clock is the event loop's, so wrapper spans and the fleet's
    own request stamps share one time base.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        #: name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: (id, parent id or 0, name, start, end, req or None)
        self.spans: List[Tuple[int, int, str, float, float, Optional[str]]] = []
        self._stack: List[List[float]] = []  # [child seconds, span id]
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, name: str, fn: Callable,
             req_of: Optional[Callable] = None) -> Callable:
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, self.clock

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            req = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if req_of is not None and result is not None:
                    req = req_of(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                took = end - start
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent, name, start, end, req))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target, wherever ``from x import f`` copied it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))
        ]
        for name, owner, attr, req_of in targets():
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, req_of)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- reading

    def add_span(self, name: str, start: float, end: float,
                 req: Optional[str]) -> None:
        """A span the benchmark measured itself (a request's lifetime)."""
        if len(self.spans) < SPAN_CAP:
            self._next_id += 1
            self.spans.append((self._next_id, 0, name, start, end, req))

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def self_us(self, name: str) -> float:
        """Mean self time per call in microseconds; 0 if never called."""
        calls, _total, own = self.agg.get(name, (0, 0.0, 0.0))
        return 1e6 * own / calls if calls else 0.0

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "kind": "header", "source": "benchmarks/e2e",
                "clock": "monotonic_s", "span_cap": SPAN_CAP,
                "aggregates": {
                    name: {"calls": int(a[0]), "total_s": a[1], "self_s": a[2]}
                    for name, a in sorted(self.agg.items())
                },
            }) + "\n")
            for sid, parent, name, start, end, req in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "req": req,
                }) + "\n")
