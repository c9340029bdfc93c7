"""An open-loop NDJSON load driver for the ``repro serve`` daemon.

Open loop: every request has a due time fixed before the phase starts,
and it is written when due whether or not earlier replies have come
back.  A stalled server therefore faces the queue real independent
clients would build, and each latency is measured from the request's
*due* time, so a stall is charged to every request it delays.  How far
the driver itself fell behind its schedule is reported as lateness;
a run whose lateness is large measured the driver, not the server.

Requests are spread round-robin over a few persistent connections and
matched to replies by id (the daemon may answer a pipelined connection
out of order).  The driver is a single asyncio task set: one writer and
one reader per connection.
"""

from __future__ import annotations

import asyncio
import gc
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset from the phase start and payload."""

    due_s: float
    id: str
    line: bytes


@dataclass
class Exchange:
    """What happened to one request (times are ``loop.time()`` seconds)."""

    request: Request
    due: float
    sent: float | None = None
    received: float | None = None
    reply: dict | None = None

    @property
    def latency_s(self) -> float | None:
        """Due-to-reply latency, or None when unanswered."""
        return None if self.received is None else self.received - self.due

    @property
    def late_s(self) -> float | None:
        """How far after its due time the request was written."""
        return None if self.sent is None else self.sent - self.due


async def open_connections(host: str, port: int, count: int
                           ) -> list[tuple[asyncio.StreamReader,
                                           asyncio.StreamWriter]]:
    """``count`` NDJSON connections to the daemon."""
    return [await asyncio.open_connection(host, port) for _ in range(count)]


async def close_connections(connections) -> None:
    """Close every connection and wait until the sockets are gone."""
    for _reader, writer in connections:
        writer.close()
    for _reader, writer in connections:
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def call(connection, obj: dict, timeout_s: float = 10.0) -> dict:
    """One request/reply round trip on an otherwise idle connection."""
    reader, writer = connection
    writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout_s)
    if not line:
        raise ConnectionError("daemon closed the connection")
    return json.loads(line)


async def run_phase(connections, requests: list[Request],
                    grace_s: float = 2.0) -> list[Exchange]:
    """Send ``requests`` on schedule over ``connections``; collect replies.

    Request ``i`` goes to connection ``i % len(connections)``.  The
    phase ends when every request is answered, or ``grace_s`` after the
    last due time; requests still unanswered then keep ``received``
    unset.  Returns one :class:`Exchange` per request, in input order.
    """
    if not connections:
        raise ValueError("need at least one connection")
    loop = asyncio.get_running_loop()
    start = loop.time()
    exchanges = [Exchange(request, start + request.due_s)
                 for request in requests]
    by_id = {exchange.request.id: exchange for exchange in exchanges}
    if len(by_id) != len(exchanges):
        raise ValueError("request ids must be unique")
    n = len(connections)
    lanes = [exchanges[i::n] for i in range(n)]
    outstanding = [len(lane) for lane in lanes]
    finished = asyncio.Event()
    if not any(outstanding):
        finished.set()

    async def send(writer: asyncio.StreamWriter, lane: list[Exchange]):
        i = 0
        while i < len(lane):
            now = loop.time()
            if lane[i].due > now:
                await asyncio.sleep(lane[i].due - now)
                now = loop.time()
            # Write everything already due in one go: catching up after
            # a late wake-up must not wait for the next timer tick.
            while i < len(lane) and lane[i].due <= now:
                writer.write(lane[i].request.line)
                lane[i].sent = now
                i += 1
            await writer.drain()

    async def receive(index: int, reader: asyncio.StreamReader):
        while outstanding[index] > 0:
            line = await reader.readline()
            if not line:
                return
            received = loop.time()
            reply = json.loads(line)
            exchange = by_id.get(str(reply.get("id")))
            if exchange is None or exchange.received is not None:
                # A reply to an earlier phase's unanswered request, or a
                # duplicate: it answers nothing of this phase.
                continue
            exchange.received = received
            exchange.reply = reply
            outstanding[index] -= 1
            if not any(outstanding):
                finished.set()

    last_due = max((e.due for e in exchanges), default=start)
    # A full collection over the phase's exchanges stalls the driver for
    # tens of milliseconds, long enough for a burst to overrun the
    # daemon's per-connection queue: collect between phases instead.
    collecting = gc.isenabled()
    gc.disable()
    senders = [asyncio.ensure_future(send(writer, lane))
               for (_reader, writer), lane in zip(connections, lanes)]
    receivers = [asyncio.ensure_future(receive(i, reader))
                 for i, (reader, _writer) in enumerate(connections)]
    try:
        await asyncio.gather(*senders)
        timeout = max(0.0, last_due + grace_s - loop.time())
        try:
            await asyncio.wait_for(finished.wait(), timeout)
        except asyncio.TimeoutError:
            pass
    finally:
        for task in receivers:
            task.cancel()
        results = await asyncio.gather(*senders, *receivers,
                                       return_exceptions=True)
        if collecting:
            gc.enable()
    for result in results:
        if (isinstance(result, BaseException)
                and not isinstance(result, asyncio.CancelledError)):
            raise result
    return exchanges
