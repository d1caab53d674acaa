"""Open- and closed-loop request generators on a few keep-alive
connections, plus the minimal HTTP/1.1 client they drive.

Open loop: requests are due on a seeded Poisson schedule whether or not
earlier ones finished.  A request waits for a free connection when all
are busy, and its latency runs from when it was *due*, so a stall is
charged to every request it delays.  Generator lateness is how long
after ``max(due, connection free)`` the request actually went out — a
check on the harness, not on the server.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from dataclasses import dataclass


def poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Due offsets (seconds from start) of a Poisson process."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    due, t = [], rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due


@dataclass
class Sent:
    """One open-loop request: times on the event-loop clock."""

    due: float
    sent: float
    done: float
    ok: bool
    late: float

    @property
    def latency(self) -> float:
        return self.done - self.due


async def open_loop(schedule, send, conns: int, *, start_delay=0.01):
    """Issue request ``i`` at ``schedule[i]`` on one of ``conns``
    connections; ``await send(conn, i)`` returns whether it succeeded."""
    loop = asyncio.get_running_loop()
    t0 = loop.time() + start_delay
    records: list[Sent | None] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))

    async def worker(conn: int) -> None:
        for i in cursor:
            free = loop.time()
            due = t0 + schedule[i]
            if due > free:
                await asyncio.sleep(due - free)
            sent = loop.time()
            ok = await send(conn, i)
            records[i] = Sent(due, sent, loop.time(), ok,
                              sent - max(due, free))

    await asyncio.gather(*(worker(c) for c in range(conns)))
    return records


async def closed_loop(duration: float, send, conns: int) -> list[float]:
    """Each connection sends back to back for ``duration`` seconds;
    returns the completion offsets (from start) of successful requests."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    counter = iter(range(1 << 62))
    done: list[float] = []

    async def worker(conn: int) -> None:
        while loop.time() - t0 < duration:
            if await send(conn, next(counter)):
                done.append(loop.time() - t0)

    await asyncio.gather(*(worker(c) for c in range(conns)))
    return sorted(done)


def windowed_rate(offsets, duration: float, windows: int) -> float:
    """Median over equal time windows of each window's completion rate,
    ``(k − 1) / (last − first)`` over its ``k`` sorted completions."""
    width = duration / windows
    rates = []
    for w in range(windows):
        inside = [t for t in offsets if w * width <= t < (w + 1) * width]
        if len(inside) >= 2 and inside[-1] > inside[0]:
            rates.append((len(inside) - 1) / (inside[-1] - inside[0]))
    if not rates:
        raise ValueError("no window holds two completions")
    return statistics.median(rates)


class HttpConnections:
    """``n`` keep-alive HTTP/1.1 connections to one host."""

    def __init__(self, host: str, port: int, n: int) -> None:
        self.host, self.port, self.n = host, port, n
        self._conns: list = []

    async def __aenter__(self):
        for _ in range(self.n):
            self._conns.append(
                await asyncio.open_connection(self.host, self.port))
        return self

    async def __aexit__(self, *exc):
        for _reader, writer in self._conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns.clear()

    @staticmethod
    def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        return head.encode("latin-1") + body

    async def roundtrip(self, conn: int, raw: bytes) -> tuple[int, bytes]:
        """Send one prepared request; returns ``(status, body)``."""
        reader, writer = self._conns[conn]
        writer.write(raw)
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        return status, body
