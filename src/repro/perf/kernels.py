"""The default benchmark kernels: every hot path the repo cares about.

Importing this module populates the shared registry
(:func:`repro.perf.bench.registry`).  Kernels are deterministic given their
baked-in seeds and touch no global randomness, so two runs on the same
machine measure the same work.

Naming convention: ``<subsystem>/<operation>/<instance>``.  The instance
suffix pins the topology/scale, so a future PR that adds bigger instances
extends the trajectory instead of silently re-labelling it.

Each kernel bakes an inner repetition count into one call (``ops``) large
enough that a round is comfortably above clock granularity but small enough
that ``--quick`` stays CI-cheap.
"""

from __future__ import annotations

import random

from .bench import register


@register("engine/steps/ring16", ops=1000)
def engine_steps_ring():
    """Full engine step loop: ring(16), everyone hungry, weakly fair.

    ``REPRO_FLIGHT=1`` arms a flight recorder under the *same kernel
    name*: every occurrence is noted into the bounded in-memory ring
    through a tap on an attached bus (the armed-always path), so
    ``repro bench --compare --threshold 0.10`` between a plain and an
    armed run is exactly the CI gate on recording overhead.
    """
    import os

    from ..core import NADiners
    from ..sim import AlwaysHungry, Engine, System, ring

    bus = None
    if os.environ.get("REPRO_FLIGHT") == "1":
        from ..obs import EventBus, FlightRecorder

        flight = FlightRecorder("bench")
        bus = EventBus()
        bus.tap(flight.note_trace)
    engine = Engine(
        System(ring(16), NADiners()), hunger=AlwaysHungry(), seed=1, bus=bus
    )
    return lambda: engine.run(1000)


@register("engine/steps/line16", ops=1000)
def engine_steps_line():
    """Same loop on a line — the diameter-heavy extreme of the topology set."""
    from ..core import NADiners
    from ..sim import AlwaysHungry, Engine, System, line

    engine = Engine(System(line(16), NADiners()), hunger=AlwaysHungry(), seed=1)
    return lambda: engine.run(1000)


@register("engine/steps/grid4x4", ops=1000)
def engine_steps_grid():
    """Same loop on a grid — degree-4 neighbourhoods, denser guards."""
    from ..core import NADiners
    from ..sim import AlwaysHungry, Engine, System, grid

    engine = Engine(System(grid(4, 4), NADiners()), hunger=AlwaysHungry(), seed=1)
    return lambda: engine.run(1000)


@register("engine/steps/fork-ordering/ring12", ops=1000)
def engine_steps_fork_ordering():
    """Same loop for Dijkstra's fork-ordering diners, a ``sweep_object``
    algorithm: its guards scan the forks in neighbour-index order."""
    from ..baselines import ForkOrderingDiners
    from ..sim import AlwaysHungry, Engine, System, ring

    engine = Engine(
        System(ring(12), ForkOrderingDiners()), hunger=AlwaysHungry(), seed=1
    )
    return lambda: engine.run(1000)


@register("snapshot/ring16", ops=100)
def snapshot_cost():
    """Configuration snapshot cost — the price of every observation."""
    from ..core import NADiners
    from ..sim import System, ring

    system = System(ring(16), NADiners())

    def kernel():
        for _ in range(100):
            system.snapshot()

    return kernel


@register("invariant/eval/ring16", ops=100)
def invariant_eval():
    """Full invariant ``I`` on a converged ring(16) configuration: the
    crossing into the packed layout (``PackedCodec.pack``) plus the mask
    passes of :mod:`repro.core.predicates`."""
    from ..core import NADiners, invariant_holds
    from ..sim import AlwaysHungry, Engine, System, ring

    system = System(ring(16), NADiners())
    Engine(system, hunger=AlwaysHungry(), seed=2).run(3000)
    config = system.snapshot()

    def kernel():
        for _ in range(100):
            invariant_holds(config)

    return kernel


@register("invariant/red_fixpoint/ring16", ops=20)
def red_fixpoint():
    """RD fixpoint on a corrupted ring(16) with two dead processes."""
    from ..core import NADiners, red_set
    from ..sim import System, ring

    system = System(ring(16), NADiners())
    system.randomize(random.Random(3))
    system.kill(0)
    system.kill(8)
    config = system.snapshot()

    def kernel():
        for _ in range(20):
            red_set(config)

    return kernel


def _all_hungry(topo, algo):
    """The checker kernels' source state: fresh system, everyone hungry."""
    from ..sim import System

    system = System(topo, algo)
    for p in system.pids:
        system.write_local(p, "needs", True)
    return system.snapshot()


@register("checker/successors/ring6", ops=20)
def checker_successors():
    """Model-checker successor generation from a busy ring(6) state."""
    from ..core import NADiners
    from ..sim import ring
    from ..verification import TransitionSystem

    topo = ring(6)
    algo = NADiners(depth_cap=topo.diameter + 1)
    config = _all_hungry(topo, algo)
    ts = TransitionSystem(algo, topo)

    def kernel():
        for _ in range(20):
            ts.successors(config)

    return kernel


@register("fastcore/steps/ring16", ops=1000)
def fastcore_steps_ring():
    """Packed-state engine step loop: the fast twin of ``engine/steps/ring16``.

    Identical workload — ring(16), everyone hungry, weakly fair, seed 1,
    1000 steps per op — with the one engine driving a
    :class:`repro.fastcore.PackedSystem` instead of the object model.  Same
    engine, daemon and ledger, so both kernels execute the *same* action
    sequence and the ratio is representation alone: a packed action is one
    generated frame (command, masks and the readers' guard refresh, bound
    to the store's vectors) against ``ProcessView`` calls and a guard call
    per action per stale process.  CI gates the ratio (see the
    ``fastcore-smoke`` job for the floor; EXPERIMENTS.md E18 has the
    history).
    """
    from ..core import NADiners
    from ..fastcore import FastEngine
    from ..sim import AlwaysHungry, ring

    engine = FastEngine(ring(16), NADiners(), hunger=AlwaysHungry(), seed=1)
    return lambda: engine.run(1000)


@register("fastcore/successors/ring6", ops=20)
def fastcore_successors():
    """Packed successor generation: the fast twin of ``checker/successors/ring6``.

    Same busy ring(6) state and the same 20 successor expansions per op,
    but over :meth:`FastTransitionSystem.successors_packed` — the state is
    one int and the expansion is straight-line code generated for ring(6)
    from the action table: guards read neighbour fields by constant shifts,
    each successor is the parent int masked and or-ed with constants.  No
    Configuration objects, no decoded lists.  CI gates the ratio to the
    object kernel (see the ``fastcore-smoke`` job for the floor).
    """
    from ..core import NADiners
    from ..fastcore.explorer import FastTransitionSystem
    from ..sim import ring

    topo = ring(6)
    algo = NADiners(depth_cap=topo.diameter + 1)
    fts = FastTransitionSystem(algo, topo)
    key = fts.codec.key(fts.codec.pack(_all_hungry(topo, algo)))

    def kernel():
        for _ in range(20):
            fts.successors_packed(key)

    return kernel


@register("fastcore/reachable/ring4", ops=19264, rounds=7)
def fastcore_reachable():
    """A whole packed closure: ring(4) from the all-hungry state.

    One op is one of the closure's 19 264 states — expansion *plus* the
    visited set and the frontier, which the successors kernel cannot see
    and which is where the memory went before states were ints.  All three
    run in the generated per-level loop, not in ``successors_packed``, so
    this kernel moves when that loop does and the successors kernel does
    not.
    """
    from ..core import NADiners
    from ..fastcore.explorer import FastTransitionSystem
    from ..sim import ring

    topo = ring(4)
    algo = NADiners(depth_cap=topo.diameter + 1, diameter_override=topo.diameter)
    config = _all_hungry(topo, algo)
    fts = FastTransitionSystem(algo, topo)

    def kernel():
        states = fts.reachable_count([config]).states
        if states != 19264:  # ops= above is only honest for this closure
            raise RuntimeError(f"ring4 closure has {states} states, not 19264")

    return kernel


@register("checker/prove/line3", ops=6912, rounds=7)
def checker_prove():
    """Theorem 1 on line(3), whole: what ``repro check --topology line:3``
    does — enumerate the 6 912 keys, evaluate ``I`` on each key's
    ``PackedState``, closure, graph, Tarjan and the fair-escape test per
    illegitimate SCC.

    One op is one state of the full space; ``unkey`` and ``I`` are about
    two thirds of it, the graph and Tarjan the rest (EXPERIMENTS.md E9).
    """
    from ..core import NADiners, invariant_with_threshold
    from ..fastcore.explorer import FastTransitionSystem
    from ..sim import line
    from ..verification import check_closure, check_convergence
    from ..verification.check import full_space

    topo = line(3)
    t = topo.diameter
    fts = FastTransitionSystem(NADiners(depth_cap=t + 1, diameter_override=t), topo)

    def kernel():
        keys, legit = full_space(fts, invariant_with_threshold(t))
        closed = check_closure(fts, legit, keys).holds
        report = check_convergence(fts, legit, keys)
        if not (closed and report.converges and report.scc_count == 6087):
            raise RuntimeError(f"line3 proof changed: {closed}, {report}")

    return kernel


def _mp_ticks(n: int):
    from ..mp import MpEngine, build_diners
    from ..sim import ring

    topo = ring(n)
    engine = MpEngine(topo, build_diners(topo), seed=4)
    return lambda: engine.run(1000)


@register("mp/ticks/ring8", ops=1000)
def mp_ticks():
    """Message-passing engine deliver/tick loop (Chandy–Misra ring(8))."""
    return _mp_ticks(8)


@register("mp/ticks/ring64", ops=1000)
def mp_ticks_wide():
    """The same loop on ring(64): per op it must cost what ring(8) costs —
    the engine schedules from an event index, not a scan of 128 channels
    and 64 processes (CI gates the ratio of the two)."""
    return _mp_ticks(64)


@register("campaign/shard/sim_ring6", ops=1, rounds=7)
def campaign_shard():
    """One complete ``sim`` campaign shard, end to end (record included)."""
    from ..campaign import Shard
    from ..campaign.shard import execute_shard

    shard = Shard(
        "sim",
        {"topology": "ring:6", "algorithm": "na-diners", "steps": 400},
        seed=11,
    )
    return lambda: execute_shard(shard)


@register("net/codec/roundtrip", ops=200)
def codec_roundtrip():
    """Wire codec encode→decode of a Chandy–Misra message batch.

    One op is a full round trip — frame a :class:`~repro.mp.channel.Message`
    and feed it back through the garbage-tolerant incremental decoder —
    over a 200-message batch shaped like real fork/request traffic.

    ``REPRO_TRACE_STAMP=1`` stamps every frame with the trace block
    (Lamport stamp + span id) under the *same kernel name*, so
    ``repro bench --compare --threshold 0.10`` between a plain and a
    stamped run is exactly the CI gate on codec-stamping overhead.
    ``REPRO_FLIGHT=1`` likewise notes every decoded frame into a flight
    recorder's ring — the armed black-box path — gated the same way.
    """
    import os

    from ..mp.channel import Message
    from ..net.codec import Decoder, decode_message, encode_message

    stamped = os.environ.get("REPRO_TRACE_STAMP") == "1"
    flight = None
    if os.environ.get("REPRO_FLIGHT") == "1":
        from ..obs import FlightRecorder

        flight = FlightRecorder("bench")
    rng = random.Random(6)
    messages = [
        Message(
            src=rng.randrange(8),
            dst=rng.randrange(8),
            payload=("fork" if i % 2 else "request", (i % 8, (i + 1) % 8), i % 2 == 0),
        )
        for i in range(200)
    ]

    def kernel():
        decoder = Decoder()
        lc = 0
        for message in messages:
            if stamped:
                lc += 1
                data = encode_message(message, lc=lc, span=f"0/0/{lc % 17}")
            else:
                data = encode_message(message)
            for frame in decoder.feed(data):
                decode_message(frame)
                if flight is not None:
                    flight.note_frame(float(lc), "in", frame.type)

    return kernel


@register("net/trace/stamp+merge", ops=200)
def trace_stamp_merge():
    """The tracing hot path a stamped frame adds on top of plain framing.

    One op is the full causal hop — tick the sender's Lamport clock,
    encode a stamped frame (binary trace block + span id), feed it
    through the incremental decoder, and merge the stamp into the
    receiver's clock — over the same 200-message batch as
    ``net/codec/roundtrip``, so the two trajectories subtract cleanly.
    """
    from ..mp.channel import Message
    from ..net.codec import Decoder, decode_message, encode_message
    from ..obs.tracing import LamportClock

    rng = random.Random(6)
    messages = [
        Message(
            src=rng.randrange(8),
            dst=rng.randrange(8),
            payload=("fork" if i % 2 else "request", (i % 8, (i + 1) % 8), i % 2 == 0),
        )
        for i in range(200)
    ]

    def kernel():
        decoder = Decoder()
        tx = LamportClock()
        rx = LamportClock()
        for i, message in enumerate(messages):
            lc = tx.tick()
            data = encode_message(message, lc=lc, span=f"0/0/{i % 17}")
            for frame in decoder.feed(data):
                decode_message(frame)
                rx.merge(frame.lc)

    return kernel


@register("engine/havoc/ring16", ops=200)
def havoc_step():
    """Malicious havoc steps — the fault path's per-step cost."""
    from ..core import NADiners
    from ..sim import System, ring

    system = System(ring(16), NADiners())
    rng = random.Random(5)

    def kernel():
        for _ in range(200):
            system.havoc_process(5, rng)

    return kernel


@register("net/codec/binary-roundtrip", ops=200)
def codec_binary_roundtrip():
    """Gateway hot path: encode→decode of a packed REQ/RSP pair.

    One op is a full request/response round trip over a 200-pair batch —
    encode a packed acquire/release request, decode it through the
    garbage-tolerant incremental decoder, encode the matching response,
    decode that too — the exact frames the gateway multiplexes upstream.
    """
    from ..net.codec import Decoder, encode_request, encode_response

    rng = random.Random(6)
    pairs = []
    for i in range(200):
        op = "acquire" if i % 2 else "release"
        req_id = f"c{rng.randrange(10000)}.{i:x}"
        pairs.append((op, req_id))

    def kernel():
        decoder = Decoder()
        for op, req_id in pairs:
            for frame in decoder.feed(encode_request(op, req_id)):
                rsp = encode_response(op, frame.body["id"], True)
                for _ in decoder.feed(rsp):
                    pass

    return kernel


@register("gateway/mux", ops=200)
def gateway_mux():
    """The mux data plane: submit→route→resolve for a client fleet.

    One op is a submission, and an admitted one runs the whole lifecycle
    — admission windows, slot round-robin, request-id allocation, pending
    tracking, completion with measured wait — over a 200-op batch from
    50 logical clients against 4 nodes x 2 slots.  The windows shed 113
    of the 200, by all three reasons.  This is the per-request CPU the
    gateway tier adds in front of the lock service.
    """
    from ..gateway.admission import AdmissionConfig
    from ..gateway.mux import GatewayMux

    rng = random.Random(6)
    ops = [
        (f"c{rng.randrange(50)}", rng.randrange(4)) for _ in range(200)
    ]
    window = AdmissionConfig(max_per_client=1, max_queue_depth=2, max_in_flight=1)

    def kernel():
        mux = GatewayMux(
            ["n0", "n1", "n2", "n3"],
            upstreams_per_node=2,
            admission=window,
        )
        now = 0.0
        backlog = []
        for client, node in ops:
            now += 0.001
            decision = mux.submit(client, node, "acquire", now)
            if decision.admitted:
                backlog.append(decision.req_id)
            if len(backlog) >= 8:
                for req_id in backlog:
                    mux.resolve(req_id, True, now)
                backlog.clear()
        for req_id in backlog:
            mux.resolve(req_id, True, now)
        return mux

    return kernel
