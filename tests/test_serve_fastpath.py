"""The serve-layer hot path: fast encoding, O(1) dedup, write coalescing.

Each optimization is pinned against the behavior it replaced:
``admit_response`` must be *byte-identical* to the generic
``ok_response`` encoder for every admissible input, the dedup window's
replay must return the cached line verbatim (same object) on the
dominant same-id retry, and the server's coalesced delivery must
preserve per-connection response order while issuing exactly one
write+drain per connection.
"""

import asyncio
import hashlib
import json
import math
import socket

import pytest

from repro.core.task import make_task
from repro.serve.gateway import AdmissionGateway, GatewayServer, _UNKNOWN_ID
from repro.serve.loadgen import _TcpGatewayThread
from repro.serve.protocol import (
    MAX_REQUEST_CHARS,
    MAX_REQUEST_DEPTH,
    admit_response,
    admit_response_batch,
    ok_response,
    task_to_wire,
)
from repro.serve.recovery import recover, registry_fingerprint

NUM_STAGES = 2
BATCHED = {"num_stages": NUM_STAGES, "max_batch": 3}

#: sha256 of ``TestHandleFramesDifferential``'s trace results, recorded
#: on the two-lane gateway (separate fused ``handle_frames`` and
#: per-line ``handle_line`` paths, journal re-parsing every line).
TRACE_SHA256 = (
    "51d65eaa60885516d91904dbddd09cd94ebc8e95a799340cae43a84f2f4eaa53"
)
DURABLE_TRACE_SHA256 = (
    "78986c4e2f0610bd8e56e19ef42652f005c0283fb79f58deb3f57de09f298c39"
)


def _sha256(value):
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


IDS = [
    None,
    0,
    7,
    -42,
    10**19,  # larger than any fixed-width integer fast path
    True,
    False,
    "r-1",
    "",
    'quote"backslash\\and\ttab',
    "unicode: åβ中 ",
]


class TestAdmitResponseEncoder:
    @pytest.mark.parametrize("request_id", IDS)
    @pytest.mark.parametrize("admitted", [True, False])
    def test_byte_identical_to_generic_encoder(self, request_id, admitted):
        request = {"id": request_id, "op": "admit", "rid": "r"}
        for region_value in (0.0, -0.0, 0.7321, 1e-300, math.inf):
            for shed in ([], [3], [1, 2, 9]):
                fast = admit_response(
                    request,
                    admitted=admitted,
                    region_value=region_value,
                    shed=shed,
                )
                slow = ok_response(
                    request,
                    admitted=admitted,
                    region_value=region_value,
                    shed=list(shed),
                )
                assert fast == slow

    def test_shed_accepts_any_iterable(self):
        request = {"id": 1, "op": "admit"}
        assert admit_response(
            request, admitted=True, region_value=0.5, shed=(4, 5)
        ) == ok_response(request, admitted=True, region_value=0.5, shed=[4, 5])

    def test_output_parses_back_canonically(self):
        request = {"id": 'q"\\', "op": "admit"}
        line = admit_response(request, admitted=False, region_value=math.inf)
        doc = json.loads(line)
        assert doc == {
            "id": 'q"\\',
            "op": "admit",
            "ok": True,
            "admitted": False,
            "region_value": None,
            "shed": [],
        }
        # Canonical form: sorted keys, compact separators.
        assert line == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize(
        "request_, region_value",
        [
            ({"id": 1, "op": "expire"}, 0.5),  # wrong op
            ({"id": 1, "op": "admit"}, 1),  # non-float region value
            ({"id": 1.5, "op": "admit"}, 0.5),  # unprovable id type
        ],
    )
    def test_falls_back_to_generic_encoder(self, request_, region_value):
        fast = admit_response(request_, admitted=True, region_value=region_value)
        slow = ok_response(
            request_, admitted=True, region_value=region_value, shed=[]
        )
        assert fast == slow


class TestAdmitResponseBatchEncoder:
    """The one-pass batch encoder is pinned to per-item admit_response."""

    def test_byte_identical_to_per_item_encoder(self):
        items = []
        for request_id in IDS:
            for admitted in (True, False):
                for region_value in (0.0, -0.0, 0.7321, 1e-300, math.inf):
                    for shed in ((), [3], [1, 2, 9]):
                        items.append(
                            (
                                {"id": request_id, "op": "admit", "rid": "r"},
                                admitted,
                                region_value,
                                shed,
                            )
                        )
        # Fallback shapes ride along in the same batch.
        items += [
            ({"id": 1, "op": "expire"}, True, 0.5, []),
            ({"id": 1, "op": "admit"}, True, 1, []),
            ({"id": 1.5, "op": "admit"}, True, 0.5, []),
        ]
        batch = admit_response_batch(items)
        assert batch == [
            admit_response(
                request, admitted=admitted, region_value=region_value, shed=shed
            )
            for request, admitted, region_value, shed in items
        ]

    def test_empty_batch(self):
        assert admit_response_batch([]) == []


class TestDedupReplay:
    def _decide(self, gateway, request_id, rid):
        doc = {
            "id": request_id, "rid": rid, "op": "admit", "pipeline": "web",
            "task": task_to_wire(
                make_task(0.0, 1.0, [0.01] * NUM_STAGES, task_id=0)
            ),
        }
        (_, line), = gateway.handle_line(json.dumps(doc))
        return doc, line

    def _gateway(self):
        gateway = AdmissionGateway()
        gateway.handle_line(json.dumps({
            "id": 0, "op": "register", "pipeline": "web",
            "policy": {"num_stages": NUM_STAGES},
        }))
        return gateway

    def test_same_id_retry_returns_cached_line_verbatim(self):
        gateway = self._gateway()
        doc, first = self._decide(gateway, request_id=7, rid="r7")
        (_, again), = gateway.handle_line(json.dumps(doc))
        assert again is first  # no parse, no re-encode
        assert gateway.dedup_hits == 1

    def test_different_id_retry_rewrites_only_the_id_echo(self):
        gateway = self._gateway()
        doc, first = self._decide(gateway, request_id=7, rid="r7")
        doc["id"] = "retry-2"
        (_, again), = gateway.handle_line(json.dumps(doc))
        want = dict(json.loads(first))
        want["id"] = "retry-2"
        assert json.loads(again) == want
        # The lazily parsed document is cached: a third retry with yet
        # another id must not change the decision payload.
        doc["id"] = 99
        (_, third), = gateway.handle_line(json.dumps(doc))
        assert json.loads(third) == dict(want, id=99)

    def test_bool_and_int_ids_are_not_conflated(self):
        # 1 == True in Python but they encode differently on the wire;
        # the verbatim fast path must not serve one for the other.
        gateway = self._gateway()
        doc, first = self._decide(gateway, request_id=True, rid="rb")
        assert '"id":true' in first.replace(" ", "")
        doc["id"] = 1
        (_, again), = gateway.handle_line(json.dumps(doc))
        assert json.loads(again)["id"] == 1
        assert not isinstance(json.loads(again)["id"], bool)

    def test_restored_entries_resolve_their_id_lazily(self):
        gateway = self._gateway()
        doc, first = self._decide(gateway, request_id=7, rid="r7")
        restored = AdmissionGateway()
        restored.load_dedup_state(gateway.dedup_state())
        entry = restored._rid_decided["r7"]
        assert entry[1] is _UNKNOWN_ID
        # Same-id retry against a restored window: one parse resolves
        # the original id, and the cached line is served verbatim.
        (_, again), = restored.handle_line(json.dumps(doc))
        assert again is first or again == first
        assert entry[1] == 7
        # Now the fast path is armed for subsequent retries.
        (_, third), = restored.handle_line(json.dumps(doc))
        assert third is entry[0]

    def test_restored_entry_with_different_retry_id(self):
        gateway = self._gateway()
        doc, first = self._decide(gateway, request_id=7, rid="r7")
        restored = AdmissionGateway()
        restored.load_dedup_state(gateway.dedup_state())
        doc["id"] = 8
        (_, again), = restored.handle_line(json.dumps(doc))
        assert json.loads(again) == dict(json.loads(first), id=8)

    def test_dedup_state_wire_format_is_unchanged(self):
        gateway = self._gateway()
        self._decide(gateway, request_id=7, rid="r7")
        state = gateway.dedup_state()
        assert list(state) == ["decided", "pending"]
        (rid, line), = state["decided"]
        assert rid == "r7" and isinstance(line, str)


class _RecordingWriter:
    """A StreamWriter stand-in that records write/drain traffic."""

    def __init__(self):
        self.chunks = []
        self.drains = 0
        self.closing = False

    def write(self, data):
        self.chunks.append(data)

    async def drain(self):
        self.drains += 1

    def is_closing(self):
        return self.closing


class TestCoalescedDelivery:
    def _deliver(self, routed, writers):
        server = GatewayServer()
        server._writers = dict(writers)
        asyncio.run(server._deliver(routed))

    def test_one_write_and_drain_per_connection(self):
        a, b = _RecordingWriter(), _RecordingWriter()
        routed = [
            (0, '{"id":1}'), (1, '{"id":2}'), (0, '{"id":3}'),
            (0, '{"id":4}'), (1, '{"id":5}'),
        ]
        self._deliver(routed, {0: a, 1: b})
        assert a.chunks == [b'{"id":1}\n{"id":3}\n{"id":4}\n']
        assert b.chunks == [b'{"id":2}\n{"id":5}\n']
        assert a.drains == 1 and b.drains == 1

    def test_closed_or_missing_connections_are_skipped(self):
        live, dead = _RecordingWriter(), _RecordingWriter()
        dead.closing = True
        routed = [(0, "x"), (1, "y"), (2, "z")]
        self._deliver(routed, {0: live, 1: dead})
        assert live.chunks == [b"x\n"]
        assert dead.chunks == []

    def test_empty_batch_is_a_noop(self):
        writer = _RecordingWriter()
        self._deliver([], {0: writer})
        assert writer.chunks == [] and writer.drains == 0

    @pytest.mark.parametrize("error", [ConnectionResetError, BrokenPipeError])
    def test_reset_peer_does_not_drop_other_peers(self, error):
        class _ResetWriter(_RecordingWriter):
            async def drain(self):
                raise error("peer went away")

            def close(self):
                self.closing = True

        reset, healthy = _ResetWriter(), _RecordingWriter()
        server = GatewayServer()
        server._writers = {1: reset, 2: healthy}
        asyncio.run(server._deliver([(1, "a"), (2, "b"), (1, "c")]))
        assert healthy.chunks == [b"b\n"] and healthy.drains == 1
        assert reset.closing and 1 not in server._writers
        assert server._writers == {2: healthy}

    def test_batched_admissions_arrive_in_order_over_tcp(self):
        """A batch flush (3 responses released at once) reaches the
        socket as parseable, correctly ordered NDJSON."""
        with _TcpGatewayThread() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=30) as sock:
                stream = sock.makefile("rwb")

                def call(doc):
                    stream.write((json.dumps(doc) + "\n").encode())
                    stream.flush()

                call({"id": 0, "op": "register", "pipeline": "web",
                      "policy": BATCHED})
                assert json.loads(stream.readline())["ok"] is True
                for k in range(1, 4):  # third admit fills the batch
                    call({
                        "id": k, "op": "admit", "pipeline": "web",
                        "task": task_to_wire(make_task(
                            0.1 * k, 1.0, [0.01] * NUM_STAGES, task_id=k
                        )),
                    })
                responses = [json.loads(stream.readline()) for _ in range(3)]
                assert [r["id"] for r in responses] == [1, 2, 3]
                assert all(r["admitted"] for r in responses)


class TestHandleFramesDifferential:
    """``handle_frames`` is pinned byte-for-byte to the per-line loop.

    The reference model is exactly the transport loop the fused lane
    replaced: decode each frame (``utf-8``, ``errors="replace"``),
    strip, skip blanks, ``handle_line``.  Every response line, its
    order, and every observable counter (op counts, errors, dedup
    hits, the dedup window itself, pipeline stats) must match over a
    trace that exercises each lane boundary: fast-lane admits, rid
    replays and pending duplicates, validation failures (with and
    without rids), huge-int and deep-nesting screen fallbacks, invalid
    UTF-8, non-dict JSON, unicode whitespace, oversized lines, batch
    barriers mid-chunk, registry churn, and draining mode.
    """

    def _mirror(self, gateway, frames, origin=None):
        routed = []
        for raw in frames:
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                routed.extend(gateway.handle_line(line, origin=origin))
        return routed

    def _fingerprint(self, gateway):
        return {
            "op_counts": dict(gateway.op_counts),
            "errors": gateway.errors,
            "dedup_hits": gateway.dedup_hits,
            "dedup": gateway.dedup_state(),
        }

    def _admit(self, pipeline, task_id, rid=None, arrival=0.0, task=...):
        doc = {
            "id": task_id,
            "op": "admit",
            "pipeline": pipeline,
            "task": task_to_wire(
                make_task(arrival, 1.0, [0.01] * NUM_STAGES, task_id=task_id)
            ) if task is ... else task,
        }
        if rid is not None:
            doc["rid"] = rid
        return json.dumps(doc).encode()

    def _trace(self):
        """Chunks of frames covering every lane and fallback."""
        deep = ('{"a": ' * (MAX_REQUEST_DEPTH + 2)
                + "null" + "}" * (MAX_REQUEST_DEPTH + 2)).encode()
        oversized = (b'{"op": "health", "pad": "'
                     + b"x" * MAX_REQUEST_CHARS + b'"}')
        register = lambda name, policy, rid: json.dumps({
            "id": 0, "rid": rid, "op": "register",
            "pipeline": name, "policy": policy,
        }).encode()
        chunk1 = [
            register("web", BATCHED, "reg-web"),
            register("other", {"num_stages": NUM_STAGES, "max_batch": 1},
                     "reg-other"),
            self._admit("web", 1, rid="r1", arrival=0.01),
            self._admit("web", 2, rid="r2", arrival=0.02),
            self._admit("web", 3, rid="r3", arrival=0.03),  # flushes batch
            self._admit("web", 101, rid="r1", arrival=0.04),  # decided replay
            self._admit("web", 4, rid="r4", arrival=0.05),  # queued
            self._admit("web", 104, rid="r4", arrival=0.06),  # pending dup
            b"   \t  ",  # whitespace-only frame: skipped
            b'\t{"op": "health"}  ',  # fast lane strips ASCII ws
            " ".encode() + b'{"op": "health"}',  # unicode ws: slow lane
            b"\xff\xfe not utf-8 \xff",
            b"not json at all",
            b"[1, 2, 3]",
            b'{"op": "bogus", "id": 3}',  # unknown op: no id echo
            b'{"op": "admit", "pipeline": "web", "rid": "rv", "id": []}',
            self._admit("web", 5, rid="rv", arrival=0.07),  # rv NOT decided
        ]
        chunk2 = [
            # Dirty chunk: the huge int poisons the chunk-level screen,
            # so every other frame here also takes the per-frame screen.
            b'{"id": 99999999999999999999999999, "op": "health"}',
            deep,
            oversized,
            self._admit("web", 6, rid="r6", arrival=0.08),
            json.dumps({"id": 50, "op": "stats",
                        "pipeline": "web"}).encode(),  # barrier mid-chunk
            self._admit("nope", 9, rid="rn", arrival=0.09),  # unknown pipeline
            self._admit("nope", 109, rid="rn", arrival=0.10),  # error replay
            self._admit("other", 10, rid="r10", arrival=0.11),
            self._admit("web", 11, rid="r11", arrival=0.12),
            self._admit("other", 12, rid="r12", arrival=0.13),  # cache churn
            json.dumps({"id": 51, "op": "unregister",
                        "pipeline": "other"}).encode(),
            self._admit("other", 13, rid="r13", arrival=0.14),  # unregistered
            b'{"op": "health", "rid": "rh"}',  # health rid never settles
            b'{"op": "admit", "pipeline": "web", "rid": ""}',  # bad rid
            b'{"op": "admit", "pipeline": 7}',  # bad pipeline operand
            self._admit("web", 77, rid="rt", arrival=0.15, task="nope"),
            self._admit("web", 177, rid="rt", arrival=0.16),  # error replay
        ]
        return [chunk1, chunk2]

    def _run(self, ingest):
        gateway = AdmissionGateway()
        routed = []
        for chunk in self._trace():
            routed.extend(ingest(gateway, chunk))
        # Draining mode: decided rids replay, fresh admits bounce.
        gateway.draining = True
        drain_chunk = [
            self._admit("web", 201, rid="r1", arrival=0.20),
            self._admit("web", 202, rid="r20", arrival=0.21),
        ]
        routed.extend(ingest(gateway, drain_chunk))
        gateway.draining = False
        routed.extend(("drain", line) for _, line in gateway.drain())
        routed.extend(
            ingest(gateway, [json.dumps({
                "id": 99, "op": "stats", "pipeline": "web",
            }).encode()])
        )
        return routed, self._fingerprint(gateway)

    def test_matches_per_line_loop(self):
        fused, fused_state = self._run(
            lambda g, frames: g.handle_frames(frames, origin="conn")
        )
        mirrored, mirrored_state = self._run(
            lambda g, frames: self._mirror(g, frames, origin="conn")
        )
        assert fused == mirrored
        assert fused_state == mirrored_state
        # The trace actually exercised both lanes and both replays.
        assert fused_state["errors"] > 0
        assert fused_state["dedup_hits"] >= 3

    def test_trace_bytes_are_pinned(self):
        """The lane's responses and counters over the trace are the
        bytes recorded before ``handle_line`` and ``handle_frames``
        shared one per-request step (the mirror above no longer checks
        an independent path)."""
        routed, state = self._run(
            lambda g, frames: g.handle_frames(frames, origin="conn")
        )
        assert _sha256([routed, state]) == TRACE_SHA256

    def test_durable_trace_bytes_are_pinned(self, tmp_path):
        """The same trace through a durable gateway: responses, journal
        bytes and registry fingerprint, pinned before the journal
        started passing parsed requests to the core."""
        durable, _report = recover(tmp_path)
        routed = []
        for chunk in self._trace():
            routed.extend(durable.handle_frames(chunk, origin="conn"))
        fingerprint = registry_fingerprint(durable)
        durable.close()
        journal = (tmp_path / "journal.ndjson").read_bytes()
        assert _sha256(
            [routed, journal.decode("utf-8"), fingerprint]
        ) == DURABLE_TRACE_SHA256

    def test_empty_and_blank_chunks(self):
        gateway = AdmissionGateway()
        assert gateway.handle_frames([]) == []
        assert gateway.handle_frames([b"", b"  ", b"\t"]) == []
        assert gateway.op_counts == {}
        assert gateway.errors == 0

    def test_async_facade_matches(self):
        frames = [self._trace()[0][0], b'{"op": "health"}']
        sync_gateway = AdmissionGateway()
        async_gateway = AdmissionGateway()
        sync_routed = sync_gateway.handle_frames(frames)
        async_routed = asyncio.run(async_gateway.handle_frames_async(frames))
        assert sync_routed == async_routed
