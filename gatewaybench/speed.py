"""CPU pinning and a same-run speed calibration for a shared host.

On a few cores of a shared host, the speed of one core moves by up to 2x
between stretches of seconds to minutes (other tenants on the same
physical cores), and it moves differently on different cores.  Every
wall-clock figure of the benchmark moves with it.  Two things take most
of that out:

- **Pinning.**  The server runs on one core (the last one this process
  may use) and the load generator on another (the first one), so the
  server always runs on the core that is calibrated.
- **Calibration.**  Right before each server spawn and each measured
  segment, the load generator moves to the server's core (the server is
  idle then) and times a fixed stdlib-only Python loop that does the
  kind of work the server does: JSON text, dict and list churn, float
  arithmetic.  The loop uses no ``repro`` code, so a change to the
  program cannot change it.  ``REFERENCE_S`` over the median of a few
  samples is the core's *speed factor* (1.0 at the reference speed, 0.5
  at half of it).

The core's speed moves by up to 2x from one second to the next, so each
segment and each spawn gets its own factor, from samples taken just
before it and, where the figure is taken afterwards, just after it.
Against that factor, a server's saturation throughput varied +-7% from
one server to the next where its raw throughput varied from 22.6k to
37.6k lines/s (eight servers in a row, eight segments each).  ``run.py``
reports throughput over the factor and set-up time times it, and runs a
rate segment on a slow core in the core's own time scale (see
``Target.segment``), i.e. every figure is what the reference machine
would show.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from time import perf_counter
from typing import List, Tuple

_ALLOWED = sorted(os.sched_getaffinity(0))
#: The core the server runs on, and the one the load generator runs on.
SERVER_CPU = _ALLOWED[-1]
LOADGEN_CPU = _ALLOWED[0]
_TICK = os.sysconf("SC_CLK_TCK")

#: Seconds one calibration loop takes at the reference speed: the median
#: on the 2-core sizing machine over an hour of runs.
REFERENCE_S = 0.013
#: Loops timed before and after each server spawn and each segment.
SAMPLES = 3


def pin(cpu: int) -> None:
    """Run the calling process (and threads it starts later) on ``cpu``."""
    os.sched_setaffinity(0, {cpu})


def _loop() -> float:
    doc = {"id": 0, "op": "admit", "pipeline": "web0",
           "task": {"arrival": 0.25, "deadline": 2.5, "demands": [0.01, 0.02, 0.03]}}
    table: dict = {}
    window: list = []
    total = 0.0
    for i in range(600):
        doc["id"] = i
        back = json.loads(json.dumps(doc, separators=(",", ":")))
        task = back["task"]
        load = sum(d / task["deadline"] for d in task["demands"])
        total += load * (1.0 + (i % 7) / 8.0)
        table[(back["pipeline"], i & 127)] = (i, load, total)
        window.append(f"{i}:{load:.6f}")
        if len(window) > 32:
            del window[:16]
        for key in list(table)[:4]:
            total -= table[key][1] * 1e-3
    return total


def calibrate(count: int = SAMPLES, cpu: int = SERVER_CPU) -> List[float]:
    """Seconds each of ``count`` calibration loops takes on ``cpu``."""
    home = os.sched_getaffinity(0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pin(cpu)
        times = []
        for _ in range(count):
            start = perf_counter()
            _loop()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
        os.sched_setaffinity(0, home)
    return times


def stolen_s() -> Tuple[float, float]:
    """Seconds the host has stolen from the generator's and the server's
    core so far (``/proc/stat`` steal; 0 where the kernel does not count
    it)."""
    stolen = {}
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("cpu") and not line.startswith("cpu "):
                fields = line.split()
                stolen[fields[0]] = int(fields[8]) if len(fields) > 8 else 0
    return tuple(  # type: ignore[return-value]
        stolen.get(f"cpu{cpu}", 0) / _TICK for cpu in (LOADGEN_CPU, SERVER_CPU)
    )


def factor(samples: List[float]) -> float:
    """Speed factor of the core the ``samples`` (seconds per loop) timed."""
    return REFERENCE_S / statistics.median(samples)

