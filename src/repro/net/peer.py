"""Per-peer network endpoint: a real loopback TCP server plus dispatch.

Each overlay peer owns one ``asyncio`` server bound to an ephemeral port on
``127.0.0.1``.  Every inbound connection gets an :class:`_Inbound`
protocol: the socket reads into the runtime's one receive buffer, and
``buffer_updated`` feeds those bytes into the connection's incremental
:class:`~repro.net.codec.FrameDecoder`; every completed frame is handed to
the runtime's dispatcher in the same callback, which runs the unchanged
:meth:`DRTreePeer.handle_message` protocol logic on the loop thread and
releases the frame from the in-flight ledger.  A torn stream
(:class:`~repro.net.faults.NetProtocolError`) closes the connection — the
sender's pooled channel reconnects and the codec never resynchronizes
silently.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Optional, Set

from repro.net.codec import FrameDecoder
from repro.net.faults import NetProtocolError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.runtime import NetRuntime
    from repro.net.stabilizer import PeerStabilizer
    from repro.overlay.peer import DRTreePeer


class _Inbound(asyncio.BufferedProtocol):
    """The server side of one connection: decode and dispatch each read.

    A buffered protocol, so a read lands in the runtime's shared receive
    buffer (the loop runs one callback at a time, and the bytes are copied
    into the decoder before the next read) instead of a fresh 256 KiB
    ``bytes`` per read.
    """

    def __init__(self, endpoint: "PeerEndpoint") -> None:
        self.endpoint = endpoint
        self.decoder = FrameDecoder()
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        if self.endpoint.server is None:
            # Accepted while the endpoint was closing.
            transport.close()
        else:
            self.endpoint.inbound.add(transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.endpoint.runtime.receive_buffer

    def buffer_updated(self, nbytes: int) -> None:
        runtime = self.endpoint.runtime
        try:
            messages = self.decoder.feed(runtime.receive_buffer[:nbytes])
        except NetProtocolError:
            runtime.metrics.increment("net.protocol_errors")
            self.transport.close()
            return
        for message in messages:
            runtime.dispatch(message)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.endpoint.inbound.discard(self.transport)


class PeerEndpoint:
    """One peer's server, its open inbound connections and its background
    stabilizer."""

    def __init__(self, runtime: "NetRuntime", peer: "DRTreePeer") -> None:
        self.runtime = runtime
        self.peer = peer
        self.peer_id = peer.process_id
        self.server: Optional[asyncio.base_events.Server] = None
        self.stabilizer: Optional["PeerStabilizer"] = None
        #: Transports of the open inbound connections.
        self.inbound: Set[asyncio.BaseTransport] = set()

    async def start(self) -> None:
        """Bind the loopback server and publish its address."""
        self.server = await self.runtime.loop.create_server(
            lambda: _Inbound(self), "127.0.0.1", 0)
        host, port = self.server.sockets[0].getsockname()[:2]
        self.runtime.addresses[self.peer_id] = (host, port)

    async def close(self) -> None:
        """Stop the stabilizer, the server and every open connection."""
        if self.stabilizer is not None:
            await self.stabilizer.stop()
            self.stabilizer = None
        self.runtime.addresses.pop(self.peer_id, None)
        server, self.server = self.server, None
        if server is not None:
            server.close()
            # Since Python 3.12.1 wait_closed() also waits for every
            # accepted connection to close.
            for transport in list(self.inbound):
                transport.close()
            await server.wait_closed()
