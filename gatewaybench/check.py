"""Output check: the server's bytes against an in-process replay.

Decisions are a pure function of per-pipeline line order and
``admit_many`` is batch-boundary invariant, so each connection's
response bytes must equal, in order, what a fresh in-process
``AdmissionGateway`` answers to the same set-up and request lines.  The
replay uses the per-line ``handle_line`` lane, so on the in-memory
workloads it also cross-checks the server's fused ``handle_frames``
lane.  A workload with several connections sends each one only admits
for its own pipeline, so replaying connection after connection is
equivalent to any interleaving the server saw.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import List, Sequence, Tuple

HEALTH = b'{"id":"setup","op":"health"}\n'
DRAIN = b'{"id":"end","op":"drain"}\n'


def reference(
    setup: Sequence[bytes], conns: Sequence[Sequence[bytes]]
) -> Tuple[List[List[bytes]], str]:
    """Expected response lines per connection, and the registry fingerprint."""
    from repro.serve.gateway import AdmissionGateway
    from repro.serve.recovery import registry_fingerprint

    gateway = AdmissionGateway()
    for line in [*setup, HEALTH]:
        gateway.handle_line(line.decode().strip(), origin=0)
    expected: List[List[bytes]] = [[] for _ in conns]
    for c, lines in enumerate(conns):
        for line in lines:
            for origin, response in gateway.handle_line(line.decode().strip(), origin=c):
                expected[origin].append(response.encode())
        if len(expected[c]) != len(lines):
            raise AssertionError(f"reference answered {len(expected[c])} of {len(lines)} lines")
    return expected, registry_fingerprint(gateway)


def failed_lines(received: bytes, expected: Sequence[bytes]) -> List[int]:
    """Indices of requests whose response is missing, wrong or an error.

    Extra lines past the expected count are reported as index
    ``len(expected)``.
    """
    got = received.split(b"\n")
    if got and got[-1] == b"":
        got.pop()
    bad = [
        i
        for i, want in enumerate(expected)
        if i >= len(got) or got[i] != want or b'"ok":false' in got[i]
    ]
    if len(got) > len(expected):
        bad.append(len(expected))
    return bad


def recovered_fingerprint(state_dir: Path) -> Tuple[str, float]:
    """``registry_fingerprint`` of ``recover(state_dir)`` and the recovery time."""
    from repro.serve.recovery import recover, registry_fingerprint

    start = perf_counter()
    durable, _report = recover(state_dir)
    elapsed = perf_counter() - start
    try:
        return registry_fingerprint(durable), elapsed
    finally:
        durable.close()
