"""The benchmark's three workloads: seeded request lines per connection.

A workload fixes the server mode (in-memory or ``--state-dir``), the
pipelines registered at set-up, and one NDJSON line stream per client
connection.  Every stream is a pure function of ``(workload, seed,
length)``; the server only ever sees the generated lines.

``admit-inregion``
    Admit-only lines from ``loadgen.build_trace("webserver")`` (the
    three-tier mix, ~96% admitted) on two ``max_batch: 32`` pipelines,
    one per connection.  Loads the fused ``handle_frames`` lane, the
    batcher and the ``admit_many`` install path; skips the journal, the
    locking layer and the per-line lane.
``bookkeeping-durable``
    The line stream recorded from the closed-loop webserver scenario
    run in process: per admit ~3 ``depart`` and ~2.2 ``idle`` lines plus
    the scenario's ``snapshot`` and ``stats``.  Replayed over one
    connection to a ``--state-dir`` server, so every mutating line goes
    through ``Journal.append`` in the executor and the per-line lane.
``contention-locking``
    ``loadgen.build_contention_trace`` under an online-PCP policy
    (``locking: true``, ``max_batch: 32``) over one connection; ~75% of
    arrivals are rejected.  The only workload that runs ``repro.locking``
    and the scalar admission fallback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List


@dataclass(frozen=True)
class Streams:
    """Generated input of one run.

    Attributes:
        setup: Lines sent on connection 0 before measuring (registrations);
            a ``health`` probe follows them.
        conns: One list of request lines per connection, each line
            newline-terminated bytes.  A pass sends a prefix of each list
            and then a ``drain`` line.
    """

    setup: List[bytes]
    conns: List[List[bytes]]


@dataclass(frozen=True)
class Workload:
    name: str
    durable: bool
    connections: int
    build: Callable[[int, int], Streams]


def _line(doc: Dict[str, Any]) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _register(request_id: int, name: str, policy: Dict[str, Any]) -> bytes:
    return _line({"id": request_id, "op": "register", "pipeline": name, "policy": policy})


def _admit_lines(pipeline: str, tasks: List[Any]) -> List[bytes]:
    from repro.serve.protocol import task_to_wire

    return [
        _line({"id": i, "op": "admit", "pipeline": pipeline, "task": task_to_wire(t)})
        for i, t in enumerate(tasks)
    ]


def _admit_inregion(seed: int, length: int) -> Streams:
    from repro.apps.webserver import TIERS
    from repro.serve.loadgen import SCENARIOS, build_trace

    scenario = next(s for s in SCENARIOS if s.name == "webserver")
    policy = {"num_stages": len(TIERS), "max_batch": 32}
    per_conn = length // 2 + 1
    setup, conns = [], []
    for c in range(2):
        name = f"web{c}"
        setup.append(_register(-1 - c, name, policy))
        # Distinct trace seeds per connection; the pair is still a pure
        # function of the run seed.
        tasks, _span, _horizon = build_trace(scenario, seed * 2 + c, per_conn)
        conns.append(_admit_lines(name, tasks))
    return Streams(setup, conns)


def _bookkeeping_durable(seed: int, length: int) -> Streams:
    """Record the closed-loop webserver scenario's request lines."""
    from repro.apps.webserver import TIERS
    from repro.serve.client import (
        GatewayClient,
        GatewayControllerProxy,
        InProcessTransport,
    )
    from repro.serve.loadgen import PIPELINE_NAME, SCENARIOS, build_trace
    from repro.sim.pipeline import PipelineSimulation

    class Recording(InProcessTransport):
        def __init__(self) -> None:
            super().__init__()
            self.lines: List[str] = []

        def submit(self, line: str) -> List[str]:
            self.lines.append(line)
            return super().submit(line)

    scenario = next(s for s in SCENARIOS if s.name == "webserver")
    # ~6.3 lines per request; a margin keeps the prefix a pass needs
    # inside the recording for every seed.
    requests = length // 6 + 64
    trace, span, horizon = build_trace(scenario, seed, requests)
    transport = Recording()
    client = GatewayClient(transport)
    client.register(PIPELINE_NAME, {"num_stages": len(TIERS)})
    proxy = GatewayControllerProxy(client, PIPELINE_NAME, num_stages=len(TIERS))
    sim = PipelineSimulation(
        num_stages=len(TIERS), controller=proxy, max_admission_wait=0.0
    )
    sim.sim.at(
        round(span * 0.5, 6),
        lambda: client.call("snapshot", pipeline=PIPELINE_NAME),
    )
    sim.offer_stream(iter(trace))
    sim.run(horizon, warmup=0.0)
    client.stats(PIPELINE_NAME)
    lines = [(line + "\n").encode() for line in transport.lines]
    return Streams(lines[:1], [lines[1:]])


def _contention_locking(seed: int, length: int) -> Streams:
    from repro.serve.loadgen import build_contention_trace

    policy = {"num_stages": 2, "alpha": 0.9, "locking": True, "max_batch": 32}
    tasks, _span, _horizon = build_contention_trace(seed, length + 1)
    return Streams([_register(-1, "contention", policy)], [_admit_lines("contention", tasks)])


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("admit-inregion", durable=False, connections=2, build=_admit_inregion),
        Workload(
            "bookkeeping-durable", durable=True, connections=1, build=_bookkeeping_durable
        ),
        Workload(
            "contention-locking", durable=False, connections=1, build=_contention_locking
        ),
    )
}
