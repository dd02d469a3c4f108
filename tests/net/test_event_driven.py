"""The live node is event-driven: progress rides deliveries, acquires and
releases; the tick is only the retransmit/timer period.  Every cluster
here but the last ticks twice a second, so anything that still waited for a
tick would miss these deadlines by an order of magnitude."""

import asyncio
import contextlib

from repro.net import (
    ClusterConfig,
    ClusterSupervisor,
    LockClient,
    hold_intervals,
    neighbour_violations,
)
from repro.net.chaos import ChaosSchedule, LinkProfile
from repro.net.codec import encode_hello, encode_request
from repro.sim import ring

TICK = 0.5


def count(events, kind):
    return sum(1 for e in events if e["event"] == kind)


@contextlib.asynccontextmanager
async def slow_tick_cluster(nodes=3, tick_interval=TICK, **overrides):
    """A ring lock-service cluster, yielded once every peer link is up
    (a send refused by a link still dialling is retried only on the tick)."""
    topo = ring(nodes)
    config = ClusterConfig(
        topology=topo,
        topology_spec=f"ring:{nodes}",
        seed=5,
        tick_interval=tick_interval,
        lock_service=True,
        chaos=False,
        **overrides,
    )
    supervisor = ClusterSupervisor(config)
    clients = []

    async def client_of(pid, name="c"):
        client = LockClient(
            config.host, supervisor.nodes[pid].port,
            client_id=f"{name}-{pid}", reconnect=False,
        )
        await client.connect()
        clients.append(client)
        return client

    try:
        await supervisor.start(30.0)
        links = sum(len(topo.neighbors(p)) for p in topo.nodes)
        while count(supervisor.events, "net-conn-open") < links:
            await asyncio.sleep(0.002)
        yield supervisor, client_of
    finally:
        for client in clients:
            await client.close()
        await supervisor.stop()


def test_idle_acquire_is_granted_without_waiting_for_a_tick():
    async def scenario():
        async with slow_tick_cluster() as (supervisor, client_of):
            loop = asyncio.get_running_loop()
            waits = []
            # Node 2 starts with no fork at all: both must cross the wire.
            for pid in (2, 0, 1):
                client = await client_of(pid)
                began = loop.time()
                req = await client.acquire(timeout=5.0)
                waits.append(loop.time() - began)
                await client.release(req)
            return waits

    waits = asyncio.run(scenario())
    assert max(waits) < 0.1, waits


def test_release_is_published_on_the_spot():
    async def scenario():
        async with slow_tick_cluster() as (supervisor, client_of):
            loop = asyncio.get_running_loop()
            client = await client_of(0)
            req = await client.acquire(timeout=5.0)
            began = loop.time()
            await client.release(req)
            # Published before the reply was even written, let alone a tick.
            published = count(supervisor.events, "net-release")
            return published, loop.time() - began, supervisor.nodes[0].process

    published, elapsed, process = asyncio.run(scenario())
    assert published == 1
    assert elapsed < TICK / 5
    assert process.state == "T" and not process.holding


def test_closed_loop_makes_progress_between_ticks():
    async def scenario():
        async with slow_tick_cluster() as (supervisor, client_of):
            loop = asyncio.get_running_loop()
            stop_at = loop.time() + 2.0
            grants = [0]

            async def worker(client):
                while loop.time() < stop_at:
                    req = await client.acquire(timeout=5.0)
                    grants[0] += 1
                    await asyncio.sleep(0.002)
                    await client.release(req)

            workers = [
                await client_of(pid, name=f"w{k}")
                for pid in (0, 1, 2) for k in (0, 1)
            ]
            await asyncio.gather(*(worker(c) for c in workers))
            end_t = loop.time() - supervisor._t0
            ticks = sum(n.ticks for n in supervisor.nodes.values())
            return grants[0], ticks, list(supervisor.events), end_t

    grants, ticks, events, end_t = asyncio.run(scenario())
    assert grants >= 50, grants
    assert grants > 2 * ticks  # the parent's ceiling was one hop per tick
    intervals = hold_intervals(events, end_t=end_t)
    assert neighbour_violations(ring(3), intervals) == []


def test_lossy_links_still_recover_on_the_tick():
    """Frames that vanish are not re-sent by any wake — nothing arrives to
    cause one — so the repair timer must still fire, and the run stay live."""
    topo = ring(3)
    lossy = ChaosSchedule(
        seed=5,
        duration_s=30.0,
        profiles={
            (p, q): LinkProfile(drop_p=0.35)
            for p in topo.nodes for q in topo.neighbors(p)
        },
    )

    async def scenario():
        async with slow_tick_cluster(schedule=lossy) as (supervisor, client_of):
            # Shorten the timer so the test needs seconds, not minutes; the
            # wake path is unaffected by it.
            for node in supervisor.nodes.values():
                node.tick_interval = 0.01
            clients = [await client_of(pid) for pid in (0, 1, 2)]
            grants = 0
            for _ in range(6):
                for client in clients:
                    req = await client.acquire(timeout=10.0)
                    grants += 1
                    await client.release(req)
            loop = asyncio.get_running_loop()
            end_t = loop.time() - supervisor._t0
            retransmits = sum(n.retransmits for n in supervisor.nodes.values())
            return grants, retransmits, list(supervisor.events), end_t

    grants, retransmits, events, end_t = asyncio.run(scenario())
    assert grants == 18
    assert retransmits > 0
    intervals = hold_intervals(events, end_t=end_t)
    assert neighbour_violations(topo, intervals) == []


def test_abandoned_waiters_leave_no_phantom_demand():
    """Regression: ``demand`` was bumped per acquire and never lowered when
    the waiter's connection died, so the node ate client-less meals for
    ever and taxed both neighbours.  Hunger now *is* the waiter queue."""

    async def scenario():
        async with slow_tick_cluster() as (supervisor, client_of):
            loop = asyncio.get_running_loop()
            node = supervisor.nodes[0]
            for n in supervisor.nodes.values():
                n.tick_interval = 0.01  # client-less meals end on the timer
            # A neighbour holds the lock, so node 0's three acquires queue.
            holder = await client_of(1)
            held = await holder.acquire(timeout=5.0)
            reader, writer = await asyncio.open_connection(
                supervisor.config.host, node.port
            )
            writer.write(encode_hello("doomed", role="client"))
            for k in range(3):
                writer.write(encode_request("acquire", f"doomed.{k}"))
            await writer.drain()
            while len(node._waiters) < 3:
                await asyncio.sleep(0.002)
            writer.close()
            while node._waiters:
                await asyncio.sleep(0.002)
            await holder.release(held)
            # At most the one meal already being negotiated; then silence.
            await asyncio.sleep(0.3)
            settled = node.grants
            await asyncio.sleep(0.5)
            idle_waits = []
            for _ in range(5):
                began = loop.time()
                req = await holder.acquire(timeout=5.0)
                idle_waits.append(loop.time() - began)
                await holder.release(req)
            return settled, node.grants, node.process.state, idle_waits

    settled, final, state, idle_waits = asyncio.run(scenario())
    assert settled <= 1
    assert final == settled
    assert state == "T"
    assert max(idle_waits) < 0.1, idle_waits


def test_a_saturated_even_ring_holds_the_lock_at_two_nodes_at_once():
    """Regression gate for fork placement: on ring:6 three nodes may hold
    at once, and with the forks placed by colour rank the two colour
    classes alternate.  Placed by node order, one eating wave circled the
    ring like a token: two simultaneous holders were the exception and the
    precedence graph stayed five deep."""
    topo = ring(6)
    window = 2.0

    async def scenario():
        # The default 10 ms tick: this is the served configuration.
        async with slow_tick_cluster(6, 0.01) as (supervisor, client_of):
            clients = [
                await client_of(pid, name=f"w{k}")
                for pid in topo.nodes for k in range(4)
            ]
            loop = asyncio.get_running_loop()
            began = loop.time()
            stop_at = began + window
            depths = []

            async def worker(client):
                while loop.time() < stop_at:
                    req = await client.acquire(timeout=5.0)
                    await asyncio.sleep(0.005)
                    await client.release(req)

            async def watch_depth():
                while loop.time() < stop_at:
                    depths.append(supervisor.precedence_depth())
                    await asyncio.sleep(0.01)

            await asyncio.gather(watch_depth(), *(worker(c) for c in clients))
            t0 = supervisor._t0
            return (
                list(supervisor.events), began - t0, loop.time() - t0, depths
            )

    events, began, end_t, depths = asyncio.run(scenario())
    intervals = hold_intervals(events, end_t=end_t)
    assert neighbour_violations(topo, intervals) == []
    # Sweep the grant/release marks: seconds with at least two holders.
    marks = sorted(
        mark
        for spans in intervals.values()
        for start, end in spans
        for mark in ((max(start, began), 1), (max(end, began), -1))
    )
    holders, last, shared = 0, began, 0.0
    for t, step in marks:
        if holders >= 2:
            shared += t - last
        holders, last = holders + step, t
    assert shared / (end_t - began) >= 0.30, shared / (end_t - began)
    assert sorted(depths)[len(depths) // 2] <= 2, depths
