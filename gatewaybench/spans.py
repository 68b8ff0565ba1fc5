"""Layer spans: in-memory recording in the server, analysis in the benchmark.

The traced server (``traced_server.py``) wraps the public entry points
listed in :data:`TARGETS` before it starts ``repro.serve``.  Each call
records one span ``(id, parent, name, start, end, n, m)`` into a flat
in-memory ``array('d')``; the array is written out once, at server exit.
``n``/``m`` carry the counts measured at that boundary (frames per read,
tasks per batch, admitted tasks, journal bytes, ...).

Self time is a span's duration minus the durations of its direct
children.  Parents come from a per-thread span stack.  Work that
``DurableGateway.handle_line_async`` hands to the executor thread has an
empty stack there, so it is parented to the open async span instead;
the async span's self time is then exactly the executor hand-off wait.

The event loop's ``select`` is wrapped too.  A select outside an async
span is idle time; the server's busy time in a pass is the pass's wall
time minus that idle time.  Everything busy that no layer span covers
(event loop, socket I/O, glue) is reported as ``server.other``.
"""

from __future__ import annotations

import itertools
import json
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``(module, qualified name, layer)`` for every wrapped entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.protocol", "NdjsonFramer.feed", "protocol.decode"),
    ("repro.serve.protocol", "parse_request", "protocol.decode"),
    ("repro.serve.protocol", "task_from_wire", "protocol.decode"),
    ("repro.serve.protocol", "admit_response_batch", "protocol.encode"),
    ("repro.serve.protocol", "admit_response", "protocol.encode"),
    ("repro.serve.protocol", "ok_response", "protocol.encode"),
    ("repro.serve.protocol", "error_response", "protocol.encode"),
    ("repro.serve.gateway", "AdmissionGateway.handle_frames", "gateway"),
    ("repro.serve.gateway", "AdmissionGateway.handle_line", "gateway"),
    ("repro.serve.registry", "ServedPipeline.admit", "registry"),
    ("repro.serve.registry", "ServedPipeline.flush", "registry"),
    ("repro.serve.registry", "ServedPipeline.depart", "registry"),
    ("repro.serve.registry", "ServedPipeline.idle", "registry"),
    ("repro.serve.registry", "ServedPipeline.expire", "registry"),
    ("repro.core.admission", "PipelineAdmissionController.admit_many", "admission"),
    ("repro.core.admission", "PipelineAdmissionController.request", "admission"),
    (
        "repro.core.admission",
        "PipelineAdmissionController.request_with_shedding",
        "admission",
    ),
    ("repro.locking.bounds", "PCPBlockingState.preview", "locking"),
    ("repro.locking.bounds", "PCPBlockingState.add", "locking"),
    ("repro.locking.bounds", "PCPBlockingState.remove", "locking"),
    ("repro.serve.journal", "Journal.append", "journal"),
    ("repro.serve.journal", "encode_record", "journal"),
    ("repro.serve.journal", "DurableGateway.compact", "journal"),
    ("repro.serve.journal", "DurableGateway.handle_line_async", "journal.wait"),
)

SELECT = "loop.select"
#: Parent markers of select spans: idle, or inside an async span.
_IDLE, _WAITING = -2.0, -3.0
_ROW = 7


def _count_frames(args: Tuple[Any, ...], result: Any) -> Tuple[int, int]:
    return len(result), 0


def _count_batch(args: Tuple[Any, ...], result: Any) -> Tuple[int, int]:
    return len(result), sum(1 for d in result if d.admitted)


def _count_one(args: Tuple[Any, ...], result: Any) -> Tuple[int, int]:
    return 1, int(result.admitted)


def _count_bytes(args: Tuple[Any, ...], result: Any) -> Tuple[int, int]:
    return 1, len(result) + 1


def _count_done(args: Tuple[Any, ...], result: Any) -> Tuple[int, int]:
    return 1, int(bool(result))


_COUNTERS: Dict[str, Callable[[Tuple[Any, ...], Any], Tuple[int, int]]] = {
    "NdjsonFramer.feed": _count_frames,
    "AdmissionGateway.handle_frames": lambda args, result: (len(args[1]), 0),
    "PipelineAdmissionController.admit_many": _count_batch,
    "PipelineAdmissionController.request": _count_one,
    "PipelineAdmissionController.request_with_shedding": _count_one,
    "encode_record": _count_bytes,
    "DurableGateway.compact": _count_done,
}


class Recorder:
    """Spans and queue waits of one server process, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = [SELECT] + [name for _m, name, _l in TARGETS]
        self.rows = array("d")
        #: ``(decided at, seconds queued)`` per batched admission.
        self.waits = array("d")
        self.async_parent = -1.0
        self._ids = itertools.count()
        self._local = threading.local()
        self._queued: Dict[int, float] = {}

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        index = float(self.names.index(name))
        counter = _COUNTERS.get(name)
        record = self.rows.extend
        ids = self._ids
        local = self._local
        queued = self._queued
        waits = self.waits.extend
        on_queue = name == "ServedPipeline.admit"
        on_decide = on_queue or name == "ServedPipeline.flush"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = float(next(ids))
            parent = stack[-1] if stack else self.async_parent
            stack.append(sid)
            start = perf_counter()
            if on_queue:
                queued[id(args[1])] = start
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                if on_queue:
                    queued.pop(id(args[1]), None)
                record((sid, parent, index, start, perf_counter(), 1.0, 0.0))
                raise
            end = perf_counter()
            stack.pop()
            if on_decide:
                for token, _task, _decision in result:
                    queued_at = queued.pop(id(token), None)
                    if queued_at is not None:
                        waits((end, end - queued_at))
            n, m = counter(args, result) if counter is not None else (1, 0)
            record((sid, parent, index, start, end, float(n), float(m)))
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        index = float(self.names.index(name))
        record = self.rows.extend

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = float(next(self._ids))
            outer = self.async_parent
            self.async_parent = sid
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.async_parent = outer
                record((sid, -1.0, index, start, perf_counter(), 1.0, 0.0))

        return wrapper

    def wrap_select(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        record = self.rows.extend

        def select(selector: Any, timeout: Optional[float] = None) -> Any:
            start = perf_counter()
            ready = fn(selector, timeout)
            marker = _IDLE if self.async_parent < 0 else _WAITING
            record((-1.0, marker, 0.0, start, perf_counter(), float(len(ready)), 0.0))
            return ready

        return select

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path + ".rows", "wb") as handle:
            self.rows.tofile(handle)
        with open(path + ".waits", "wb") as handle:
            self.waits.tofile(handle)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names}, handle)


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry point and the loop's selector.

    Modules that imported a function by name hold their own reference,
    so every ``repro`` module attribute bound to the original is
    rebound to the wrapper.
    """
    import importlib
    import selectors
    import sys

    for module_name, qualname, _layer in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        if qualname.endswith("_async"):
            wrapped = recorder.wrap_async(qualname, original)
        else:
            wrapped = recorder.wrap(qualname, original)
        setattr(owner, attr, wrapped)
        if not owner_name:
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    getattr(other, attr, None) is original
                ):
                    setattr(other, attr, wrapped)
    selector = selectors.DefaultSelector
    selector.select = recorder.wrap_select(selector.select)  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Analysis (benchmark process)
# ----------------------------------------------------------------------

#: Relative tolerance of the busy-time accounting checks.
ACCOUNTING_TOLERANCE = 0.15


def load(path: str) -> Tuple[Any, Any, List[str]]:
    import numpy as np

    rows = np.fromfile(path + ".rows", dtype=np.float64).reshape(-1, _ROW)
    waits = np.fromfile(path + ".waits", dtype=np.float64).reshape(-1, 2)
    with open(path + ".json", encoding="utf-8") as handle:
        names = json.load(handle)["names"]
    return rows, waits, names


def analyze(
    path: str,
    windows: Sequence[Tuple[float, float]],
    cpu_s: float,
    loop_cpu_s: float,
) -> Dict[str, float]:
    """Per-layer split of the spans that start inside ``windows``.

    ``windows`` are the ``(start, end)`` perf-counter intervals of the
    traced segments (the clock is system-wide, so the server's spans and
    the load generator's times compare directly); ``cpu_s`` and
    ``loop_cpu_s`` are the server's process and event-loop-thread CPU
    seconds over the same intervals.  Returns raw sums (seconds, counts).
    """
    import numpy as np

    rows, waits, names = load(path)

    def inside(times: Any) -> Any:
        mask = np.zeros(len(times), dtype=bool)
        for start, end in windows:
            mask |= (times >= start) & (times <= end)
        return mask

    rows = rows[inside(rows[:, 3])]
    is_select = rows[:, 1] <= _IDLE
    selects, spans = rows[is_select], rows[~is_select]
    sid, parent, name = spans[:, 0], spans[:, 1], spans[:, 2].astype(int)
    dur = spans[:, 4] - spans[:, 3]
    # Row of each span's parent (-1 for roots and parents outside the pass).
    prow = np.full(len(spans), -1)
    if len(spans):
        order = np.argsort(sid)
        pos = np.searchsorted(sid[order], parent).clip(0, len(spans) - 1)
        hit = (parent >= 0) & (sid[order][pos] == parent)
        prow[hit] = order[pos[hit]]
    has_parent = prow >= 0
    child = np.zeros(len(spans))
    np.add.at(child, prow[has_parent], dur[has_parent])
    self_t = dur - child
    parent_name = np.where(has_parent, name[prow], -1)

    layer_of = {n: layer for _m, n, layer in TARGETS}
    index = {n: i for i, n in enumerate(names)}

    def pick(*qualnames: str) -> Any:
        ids = [index[q] for q in qualnames]
        return np.isin(name, ids)

    def by_layer(layer: str) -> Any:
        return pick(*[n for n, lay in layer_of.items() if lay == layer])

    def blocked(marker: float) -> float:
        sel = selects[selects[:, 1] == marker]
        return sum(
            float(np.sum(np.clip(sel[:, 4], start, end) - np.clip(sel[:, 3], start, end)))
            for start, end in windows
        )

    idle = blocked(_IDLE)
    wall = sum(end - start for start, end in windows)
    feed = pick("NdjsonFramer.feed")
    lines = float(spans[feed, 5].sum())
    admission = by_layer("admission")
    admission_ids = [i for i, n in enumerate(names) if layer_of.get(n) == "admission"]
    top_admission = admission & ~np.isin(parent_name, admission_ids)
    admit_many = pick("PipelineAdmissionController.admit_many")
    compact = pick("DurableGateway.compact")
    out: Dict[str, float] = {
        "lines": lines,
        "reads": float(feed.sum()),
        "wall_s": wall,
        "busy_s": wall - idle,
        "cpu_s": cpu_s,
        "loop_cpu_s": loop_cpu_s,
        "loop_blocked_s": blocked(_WAITING),
        "perline_calls": float(pick("AdmissionGateway.handle_line").sum()),
        "tasks": float(spans[top_admission, 5].sum()),
        "admitted": float(spans[top_admission, 6].sum()),
        "batches": float(admit_many.sum()),
        "batched_tasks": float(spans[admit_many, 5].sum()),
        "bookkeeping_ops": float(
            pick("ServedPipeline.depart", "ServedPipeline.idle", "ServedPipeline.expire").sum()
        ),
        "bookkeeping_s": float(
            dur[pick("ServedPipeline.depart", "ServedPipeline.idle", "ServedPipeline.expire")].sum()
        ),
        "locking_incl_s": float(dur[by_layer("locking")].sum()),
        "appends": float(pick("Journal.append").sum()),
        "append_s": float(dur[pick("Journal.append")].sum()),
        "journal_bytes": float(spans[pick("encode_record"), 6].sum()),
        "waits": float(pick("DurableGateway.handle_line_async").sum()),
        "compactions": float(compact.sum()),
        "compactions_done": float(spans[compact, 6].sum()),
        "compact_s": float(dur[compact & (spans[:, 6] > 0)].sum()),
    }
    for layer in sorted(set(layer_of.values())):
        out[f"self_s.{layer}"] = float(self_t[by_layer(layer)].sum())
    covered = sum(v for k, v in out.items() if k.startswith("self_s."))
    out["other_s"] = out["busy_s"] - covered
    queue = waits[inside(waits[:, 0])][:, 1]
    out["queue_wait_p50_ms"] = float(np.percentile(queue, 50) * 1e3) if len(queue) else 0.0
    out["queue_wait_p99_ms"] = float(np.percentile(queue, 99) * 1e3) if len(queue) else 0.0
    out["queue_waits"] = float(len(queue))
    return out


def accounting_errors(split: Dict[str, float]) -> List[str]:
    """Check that the layer split accounts for the server's busy time.

    Busy time is the event-loop thread's wall time minus its idle
    ``select``; the layer self times and ``server.other`` decompose it.
    The kernel's CPU time for that thread is an independent measurement
    of the same thing, once the time the loop sat blocked in ``select``
    waiting for the journal executor is taken out.
    """
    errors = []
    busy, tol = split["busy_s"], ACCOUNTING_TOLERANCE
    if split["other_s"] < -tol * busy:
        errors.append(
            f"layer self times {busy - split['other_s']:.4f}s exceed busy time {busy:.4f}s"
        )
    on_cpu = busy - split["loop_blocked_s"]
    if abs(split["loop_cpu_s"] - on_cpu) > tol * busy:
        errors.append(
            f"event-loop thread CPU {split['loop_cpu_s']:.4f}s differs from its "
            f"on-CPU busy time {on_cpu:.4f}s by more than {tol:.0%} of busy time"
        )
    return errors


def split_table(split: Dict[str, float]) -> List[str]:
    """The per-line split of a traced pass, in the shape of DESIGN.md §16.6."""
    lines = max(split["lines"], 1.0)
    rows = [
        ("protocol.decode (framer, parse, task_from_wire)", split["self_s.protocol.decode"]),
        ("protocol.encode (response encoders)", split["self_s.protocol.encode"]),
        ("gateway self (handle_frames/handle_line)", split["self_s.gateway"]),
        ("registry + batching self", split["self_s.registry"]),
        ("admission engine (incl. core.synthetic)", split["self_s.admission"]),
        ("locking (PCP preview/add/remove)", split["self_s.locking"]),
        ("journal (append, encode_record, compact)", split["self_s.journal"]),
        ("journal executor wait (handle_line_async self)", split["self_s.journal.wait"]),
        ("  loop blocked in select meanwhile (overlaps journal)", split["loop_blocked_s"]),
        ("other (event loop, socket I/O, glue)", split["other_s"]),
    ]
    out = [f"  {label:<48s} {1e6 * s / lines:9.2f}" for label, s in rows]
    out.append(f"  {'total busy (event-loop thread, wall)':<48s} {1e6 * split['busy_s'] / lines:9.2f}")
    kernel = [
        ("event-loop thread CPU (kernel)", split["loop_cpu_s"]),
        ("other threads CPU (kernel; journal executor)", split["cpu_s"] - split["loop_cpu_s"]),
    ]
    out += [f"  {label:<48s} {1e6 * s / lines:9.2f}" for label, s in kernel]
    return out
