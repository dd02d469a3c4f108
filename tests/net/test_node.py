"""One :class:`NodeServer`'s inbound reader, driven over a raw socket: junk
before the handshake, frames split across reads, and connections that die
while they wait or hold."""

import asyncio

from repro.net import LockDinerProcess, NodeServer
from repro.net.codec import (
    MAGIC,
    T_RSP,
    Decoder,
    encode_hello,
    encode_request,
)
from repro.obs.bus import EventBus
from repro.sim import line

JUNK = bytes(range(0x20, 0x40))  # no magic byte in it


async def until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "timed out"
        await asyncio.sleep(0.002)


async def next_response(reader, decoder):
    while True:
        frames = decoder.feed(await asyncio.wait_for(reader.read(4096), 5.0))
        if frames:
            (frame,) = frames
            assert frame.type == T_RSP
            return frame.body


def test_the_reader_survives_junk_and_split_frames_and_dead_sockets():
    assert MAGIC[0] not in JUNK
    topo = line(1)  # no neighbours: an acquire is granted on the spot
    events = []
    bus = EventBus()
    bus.subscribe_all(events.append)

    def published(kind):
        return [e for e in events if e.kind.value == kind]

    async def scenario():
        node = NodeServer(
            topo.nodes[0], topo, LockDinerProcess(topo.nodes[0], topo),
            bus=bus,
        )
        await node.start_listening()
        await node.connect_peers({})
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", node.port
            )
            writer.write(JUNK)
            await until(lambda: node.garbage_bytes == len(JUNK))
            # Every byte its own write, so every frame spans many reads.
            for byte in encode_hello("raw", role="client") + encode_request(
                "acquire", "raw.1"
            ):
                writer.write(bytes([byte]))
                await asyncio.sleep(0.001)
            granted = await next_response(reader, Decoder())

            # A second client queues behind the holder, then goes away.
            _, waiter = await asyncio.open_connection("127.0.0.1", node.port)
            waiter.write(encode_hello("waiter", role="client"))
            waiter.write(encode_request("acquire", "waiter.1"))
            await until(lambda: len(node._waiters) == 1)
            waiter.close()
            await until(lambda: not node._waiters)
            still_held = node.process.holding

            writer.close()  # the holder dies holding the lock
            await until(lambda: published("net-release"))
            return granted, still_held, node
        finally:
            await node.stop()

    granted, still_held, node = asyncio.run(scenario())
    assert granted["op"] == "acquire" and granted["id"] == "raw.1"
    assert granted["ok"] is True
    assert node.garbage_bytes == len(JUNK)
    assert [e.detail["bytes"] for e in published("net-garbage")] == [len(JUNK)]
    assert still_held  # the abandoned waiter took nothing with it
    assert node.grants == 1 and node.releases == 1
    assert node._holder is None and not node.process.holding
    assert node.process.state == "T"
