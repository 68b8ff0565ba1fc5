"""Single-process open-loop load generator over non-blocking sockets.

One thread drives every connection with one selector.  A rate pass
sends each line at its scheduled time (exponential gaps drawn from the
seed) whether or not earlier lines were answered, and times each
response from its line's *scheduled* send time, so a stall shows up in
the latency of every request it delays.  A saturation pass sends as fast
as the socket takes the bytes, with at most ``SATURATION_WINDOW``
unanswered lines per connection so the backlog at its end stays bounded.

Every request gets exactly one response and a connection's responses
come back in its request order (one pipeline per connection), so the
n-th response line answers the n-th request line.
"""

from __future__ import annotations

import os
import selectors
import socket
from array import array
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

#: Unanswered lines per connection in a saturation pass.
SATURATION_WINDOW = 1024
#: Seconds without a response before a pass gives up on the rest.
STALL_TIMEOUT = 30.0
_RECV = 1 << 18


@dataclass
class PassResult:
    received: List[bytes]
    #: Per connection: receive time of each response line (pass clock).
    recv_times: List[np.ndarray]
    #: Per connection: scheduled send time of each request line.
    sched_times: List[np.ndarray]
    #: How late each line was handed to the socket against its schedule.
    lag_s: np.ndarray
    start: float
    cpu_s: float

    @property
    def responses(self) -> int:
        return sum(len(t) for t in self.recv_times)


def schedule(rng: np.random.Generator, count: int, rate: float) -> np.ndarray:
    """Send offsets (seconds) of ``count`` lines at mean ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, count))


def run_pass(
    socks: Sequence[socket.socket],
    lines: Sequence[Sequence[bytes]],
    times: Optional[Sequence[np.ndarray]] = None,
) -> PassResult:
    """Send ``lines[c]`` on ``socks[c]``; collect every response.

    ``times`` gives each line's send offset from the pass start (a rate
    pass); ``None`` makes a saturation pass.
    """
    conns = len(socks)
    counts = [len(ls) for ls in lines]
    blobs = [memoryview(b"".join(ls)) for ls in lines]
    ends = [array("q", accumulate(len(line) for line in ls)) for ls in lines]
    sent = [0] * conns  # bytes handed to the socket
    got = [0] * conns  # response lines received
    received = [bytearray() for _ in range(conns)]
    recv_times = [array("d") for _ in range(conns)]
    lag = array("d")
    if times is None:
        order_t: List[float] = []
        order_c: List[int] = []
        sched = [np.zeros(n) for n in counts]
    else:
        sched = [np.asarray(t, dtype=float) for t in times]
        merged_t = np.concatenate(sched)
        merged_c = np.concatenate([np.full(n, c) for c, n in enumerate(counts)])
        order = np.argsort(merged_t, kind="stable")
        order_t, order_c = merged_t[order].tolist(), merged_c[order].tolist()
    due = [0] * conns  # lines released to the send buffer
    k = 0
    total = sum(counts)
    done = 0
    # The default (epoll) selector rounds timeouts up to whole
    # milliseconds, so a send can run up to ~1 ms late; that lateness is
    # part of each latency (timed from the schedule) and is reported as
    # the generator's lag.
    sel = selectors.DefaultSelector()
    masks = [selectors.EVENT_READ] * conns
    for c, sock in enumerate(socks):
        sel.register(sock, masks[c], c)
    cpu0 = os.times()
    start = perf_counter()
    last_progress = start
    hung_up = False
    try:
        while done < total and not hung_up:
            now = perf_counter() - start
            if times is None:
                for c in range(conns):
                    due[c] = min(got[c] + SATURATION_WINDOW, counts[c])
            else:
                while k < len(order_t) and order_t[k] <= now:
                    due[order_c[k]] += 1
                    lag.append(now - order_t[k])
                    k += 1
            for c in range(conns):
                limit = ends[c][due[c] - 1] if due[c] else 0
                if sent[c] < limit:
                    try:
                        sent[c] += socks[c].send(blobs[c][sent[c] : limit])
                    except BlockingIOError:
                        pass
                want = selectors.EVENT_READ | (
                    selectors.EVENT_WRITE if sent[c] < limit else 0
                )
                if want != masks[c]:
                    sel.modify(socks[c], want, c)
                    masks[c] = want
            if k < len(order_t):
                timeout = max(0.0, order_t[k] - (perf_counter() - start))
            else:
                timeout = 0.5
            for key, events in sel.select(timeout):
                if not events & selectors.EVENT_READ:
                    continue
                c = key.data
                try:
                    data = socks[c].recv(_RECV)
                except BlockingIOError:
                    continue
                if not data:
                    # The server hung up; the unanswered rest counts as failed.
                    hung_up = True
                    break
                at = perf_counter() - start
                n = data.count(b"\n")
                received[c] += data
                if n:
                    recv_times[c].extend([at] * n)
                    got[c] += n
                    done += n
                    last_progress = perf_counter()
            if perf_counter() - last_progress > STALL_TIMEOUT:
                break
    finally:
        sel.close()
    cpu1 = os.times()
    return PassResult(
        received=[bytes(r) for r in received],
        recv_times=[np.frombuffer(t, dtype=float) for t in recv_times],
        sched_times=sched,
        lag_s=np.frombuffer(lag, dtype=float),
        start=start,
        cpu_s=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
    )


def close_cleanly(sock: socket.socket, timeout: float = 10.0) -> bytes:
    """Half-close, then read to EOF; returns any bytes that still arrived.

    Closing with unread responses makes the server's connection task hit
    ``ConnectionResetError``; the half-close lets it finish its writes.
    """
    sock.setblocking(True)
    sock.settimeout(timeout)
    sock.shutdown(socket.SHUT_WR)
    tail = bytearray()
    try:
        while True:
            chunk = sock.recv(_RECV)
            if not chunk:
                break
            tail += chunk
    finally:
        sock.close()
    return bytes(tail)
