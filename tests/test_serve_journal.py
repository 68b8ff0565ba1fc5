"""Write-ahead journal: record codec, tail repair, compaction, and the
group-commit lane."""

import asyncio
import errno
import json
import random
import zlib

import pytest

from repro.serve.gateway import AdmissionGateway
from repro.serve.journal import (
    GATEWAY_SNAPSHOT_FORMAT,
    JOURNALED_OPS,
    DurableGateway,
    Journal,
    JournalError,
    decode_record,
    encode_record,
    record_crc,
    scan_journal,
)
from repro.serve.protocol import OPS, decode_line
from repro.serve.recovery import recover, registry_fingerprint


def _op(n=1):
    return {"id": n, "op": "expire", "pipeline": "web", "now": float(n)}


class TestRecordCodec:
    def test_round_trip(self):
        line = encode_record(_op(), 3)
        record = decode_record(line)
        assert record["op"] == _op()
        assert record["seq"] == 3
        assert record["crc"] == record_crc(_op(), 3)

    def test_encoding_is_canonical(self):
        line = encode_record(_op(), 1)
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )

    def test_crc_covers_op_and_seq(self):
        assert record_crc(_op(1), 1) != record_crc(_op(2), 1)
        assert record_crc(_op(1), 1) != record_crc(_op(1), 2)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '"a string"',
            "[1,2,3]",
            '{"op":{},"seq":1}',  # missing crc
            '{"crc":"00000000","op":{},"seq":1,"extra":true}',
            '{"crc":"00000000","op":[],"seq":1}',  # op not an object
            '{"crc":"00000000","op":{},"seq":0}',  # seq < 1
            '{"crc":"00000000","op":{},"seq":true}',  # bool seq
            '{"crc":"00000000","op":{},"seq":"1"}',  # str seq
        ],
    )
    def test_malformed_records_rejected(self, line):
        with pytest.raises(ValueError):
            decode_record(line)

    def test_bit_flip_fails_crc(self):
        line = encode_record(_op(), 1)
        flipped = line.replace('"now":1.0', '"now":2.0')
        assert flipped != line
        with pytest.raises(ValueError, match="crc"):
            decode_record(flipped)

    def test_every_mutating_op_is_journaled(self):
        assert JOURNALED_OPS == frozenset(OPS) - {"health"}


class TestScanJournal:
    def test_missing_file_is_empty(self, tmp_path):
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert scan.records == []
        assert scan.truncated_bytes == 0

    def test_clean_journal_round_trips(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        for n in range(1, 4):
            assert journal.append(_op(n)) == n
        journal.close()
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1, 2, 3]
        assert [r["op"]["id"] for r in scan.records] == [1, 2, 3]

    def test_torn_tail_is_truncated_physically(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_op(1))
        good_size = path.stat().st_size
        journal.append_torn(_op(2), keep=0.5)
        journal.close()
        assert path.stat().st_size > good_size

        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.truncated_bytes > 0
        assert path.stat().st_size == good_size  # repaired in place
        # A second scan is clean: the tail is gone.
        again = scan_journal(path)
        assert again.truncated_bytes == 0
        assert [r["seq"] for r in again.records] == [1]

    def test_valid_but_unterminated_tail_is_torn(self, tmp_path):
        """A record cut exactly at the newline was never acknowledged."""
        path = tmp_path / "journal.ndjson"
        path.write_text(encode_record(_op(1), 1) + "\n" + encode_record(_op(2), 2))
        scan = scan_journal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.truncated_bytes > 0

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        path.write_text("garbage\n" + encode_record(_op(2), 2) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            scan_journal(path)

    def test_newline_terminated_invalid_final_record_raises(self, tmp_path):
        """Only *unterminated* tails are crash artifacts; a terminated
        record that fails validation is real corruption."""
        path = tmp_path / "journal.ndjson"
        line = encode_record(_op(2), 2)
        path.write_text(
            encode_record(_op(1), 1) + "\n" + line.replace('"id":2', '"id":3') + "\n"
        )
        with pytest.raises(JournalError, match="corrupt"):
            scan_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        path.write_text(
            encode_record(_op(1), 1) + "\n" + encode_record(_op(3), 3) + "\n"
        )
        with pytest.raises(JournalError, match="sequence gap"):
            scan_journal(path)

    def test_truncate_false_leaves_file_alone(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        journal = Journal(path)
        journal.append(_op(1))
        journal.append_torn(_op(2))
        journal.close()
        size = path.stat().st_size
        scan = scan_journal(path, truncate=False)
        assert scan.truncated_bytes > 0
        assert path.stat().st_size == size


def _durable(tmp_path, snapshot_every=0, policy=None):
    gateway = AdmissionGateway()
    journal = Journal(tmp_path / "journal.ndjson")
    durable = DurableGateway(
        gateway, journal, tmp_path / "snapshot.json", snapshot_every=snapshot_every
    )
    if policy is not None:
        durable.handle_line(
            json.dumps(
                {"id": 0, "op": "register", "pipeline": "web", "policy": policy}
            )
        )
    return durable


class TestDurableGateway:
    def test_mutating_ops_are_journaled_before_dispatch(self, tmp_path):
        durable = _durable(tmp_path, policy={"num_stages": 2})
        durable.handle_line(json.dumps({"id": 1, "op": "expire",
                                        "pipeline": "web", "now": 1.0}))
        durable.close()
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert [r["op"]["op"] for r in scan.records] == ["register", "expire"]

    def test_health_and_bad_json_bypass_the_journal(self, tmp_path):
        durable = _durable(tmp_path)
        durable.handle_line('{"id": 1, "op": "health"}')
        durable.handle_line("{not json")
        durable.close()
        assert scan_journal(tmp_path / "journal.ndjson").records == []

    def test_dedup_hits_bypass_the_journal(self, tmp_path):
        durable = _durable(tmp_path, policy={"num_stages": 2})
        line = json.dumps({"id": 1, "rid": "r1", "op": "expire",
                           "pipeline": "web", "now": 1.0})
        durable.handle_line(line)
        durable.handle_line(line)  # idempotent retry: served from cache
        durable.close()
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert sum(1 for r in scan.records if r["op"].get("op") == "expire") == 1

    def test_compaction_snapshots_and_resets(self, tmp_path):
        durable = _durable(tmp_path, snapshot_every=3, policy={"num_stages": 2})
        for n in range(1, 4):
            durable.handle_line(json.dumps(
                {"id": n, "op": "expire", "pipeline": "web", "now": float(n)}))
        durable.close()
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["format"] == GATEWAY_SNAPSHOT_FORMAT
        # Compaction fired at the 3rd journaled op (register + 2 expires).
        assert snapshot["seq"] == 3
        assert [p["name"] for p in snapshot["pipelines"]] == ["web"]
        # The post-compaction expire continues the sequence in the
        # fresh journal.
        assert [r["seq"] for r in scan_journal(tmp_path / "journal.ndjson").records] == [4]

    def test_compaction_skipped_while_batch_pending(self, tmp_path):
        durable = _durable(
            tmp_path, policy={"num_stages": 2, "max_batch": 8},
        )
        durable.handle_line(json.dumps({
            "id": 1, "op": "admit", "pipeline": "web",
            "task": {"task_id": 1, "arrival": 0.0, "deadline": 1.0,
                     "costs": [0.1, 0.1]},
        }))
        assert durable.compact() is False
        assert not (tmp_path / "snapshot.json").exists()
        # Draining flushes the batch; compaction can proceed.
        durable.drain()
        assert durable.compact() is True
        assert (tmp_path / "snapshot.json").exists()
        durable.close()

    def test_drain_without_pending_is_not_journaled(self, tmp_path):
        durable = _durable(tmp_path, policy={"num_stages": 2})
        assert durable.drain() == []
        durable.close()
        scan = scan_journal(tmp_path / "journal.ndjson")
        assert [r["op"]["op"] for r in scan.records] == ["register"]


class TestAsyncOffload:
    """The event-loop-safe entry points must be byte-equivalent to the
    sync ones: same responses, same journal bytes, same snapshots —
    only *where* the I/O runs (the default executor) changes."""

    @staticmethod
    def _workload():
        lines = [json.dumps({"id": 0, "op": "register", "pipeline": "web",
                             "policy": {"num_stages": 2, "max_batch": 2}})]
        for n in range(1, 6):
            lines.append(json.dumps({
                "id": n, "op": "admit", "pipeline": "web",
                "task": {"task_id": n, "arrival": float(n),
                         "deadline": float(n) + 1.0, "costs": [0.1, 0.1]},
            }))
        lines.append('{"id": 99, "op": "health"}')
        lines.append("{not json")
        return lines

    def test_async_path_is_bitwise_identical_to_sync(self, tmp_path):
        import asyncio

        sync_dir = tmp_path / "sync"
        async_dir = tmp_path / "async"
        sync_dir.mkdir()
        async_dir.mkdir()
        sync_gw = _durable(sync_dir, snapshot_every=3)
        async_gw = _durable(async_dir, snapshot_every=3)

        sync_out = [sync_gw.handle_line(line) for line in self._workload()]
        sync_out.append(sync_gw.drain())
        sync_gw.close()

        async def run():
            out = [await async_gw.handle_line_async(line)
                   for line in self._workload()]
            out.append(await async_gw.drain_async())
            return out

        async_out = asyncio.run(run())
        async_gw.close()

        assert async_out == sync_out
        assert (async_dir / "journal.ndjson").read_bytes() == \
            (sync_dir / "journal.ndjson").read_bytes()
        assert (async_dir / "snapshot.json").exists() == \
            (sync_dir / "snapshot.json").exists()
        if (sync_dir / "snapshot.json").exists():
            assert (async_dir / "snapshot.json").read_bytes() == \
                (sync_dir / "snapshot.json").read_bytes()

    def test_plain_gateway_async_facade(self):
        import asyncio

        gateway = AdmissionGateway()
        line = json.dumps({"id": 0, "op": "register", "pipeline": "web",
                           "policy": {"num_stages": 2}})
        twin = AdmissionGateway()

        async def run():
            routed = await gateway.handle_frames_async([line.encode()])
            routed += await gateway.drain_async()
            return routed

        assert asyncio.run(run()) == twin.handle_line(line) + twin.drain()


class TestRenameDurability:
    """ISSUE-7 satellite: the rename itself must be made durable.

    fsyncing the snapshot's *data* is not enough — ``os.replace`` only
    updates the parent directory's entry, and a power cut can roll that
    entry back.  These tests record the actual syscall order through
    monkeypatched wrappers and pin the three-step discipline:
    fsync(temp file) -> rename -> fsync(parent directory).
    """

    @pytest.fixture
    def syscalls(self, monkeypatch):
        import os
        import stat

        events = []
        real_fsync, real_replace, real_fstat = os.fsync, os.replace, os.fstat

        def recording_fsync(fd):
            kind = (
                "fsync-dir"
                if stat.S_ISDIR(real_fstat(fd).st_mode)
                else "fsync-file"
            )
            events.append(kind)
            return real_fsync(fd)

        def recording_replace(src, dst):
            events.append("rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        return events

    def test_snapshot_write_orders_fsync_rename_fsync_dir(
        self, tmp_path, syscalls
    ):
        from repro.serve.journal import write_gateway_snapshot

        write_gateway_snapshot(
            tmp_path / "snap.json", {"format": "x"}, fsync=True
        )
        assert syscalls == ["fsync-file", "rename", "fsync-dir"]

    def test_snapshot_write_without_fsync_skips_both_fsyncs(
        self, tmp_path, syscalls
    ):
        from repro.serve.journal import write_gateway_snapshot

        write_gateway_snapshot(
            tmp_path / "snap.json", {"format": "x"}, fsync=False
        )
        assert syscalls == ["rename"]

    def test_journal_reset_fsyncs_the_parent_directory(
        self, tmp_path, syscalls
    ):
        journal = Journal(tmp_path / "j.ndjson", fsync=True)
        journal.append(_op())
        del syscalls[:]
        journal.reset(next_seq=2)
        journal.close()
        # Truncate-and-reopen rewrites the directory entry, so the
        # parent is pinned after the (empty) file itself is synced.
        assert syscalls == ["fsync-file", "fsync-dir"]

    def test_compaction_runs_the_full_discipline_in_order(
        self, tmp_path, syscalls
    ):
        journal = Journal(tmp_path / "j.ndjson", fsync=True)
        durable = DurableGateway(
            AdmissionGateway(), journal, tmp_path / "snap.json"
        )
        durable.handle_line(
            '{"id":1,"op":"register","pipeline":"web",'
            '"policy":{"num_stages":2,"alpha":0.9}}'
        )
        del syscalls[:]
        assert durable.compact() is True
        durable.close()
        # Snapshot: data fsync, rename, dir fsync.  Journal reset:
        # truncated-file fsync, dir fsync.  Strictly in that order —
        # the journal must never shrink before its snapshot is pinned.
        assert syscalls == [
            "fsync-file",
            "rename",
            "fsync-dir",
            "fsync-file",
            "fsync-dir",
        ]


class TestDurableHandleFrames:
    """The durable wrapper's chunk ingest matches the per-line loop.

    Two identical journals fed the same frames, one through
    ``handle_frames`` (one group commit) and one through the decode/
    strip/``handle_line`` loop (one commit per line), must produce
    identical responses AND byte-identical journals.
    """

    FRAMES = [
        json.dumps({"id": 0, "op": "register", "pipeline": "web",
                    "policy": {"num_stages": 2}}).encode(),
        json.dumps({"id": 1, "rid": "r1", "op": "admit", "pipeline": "web",
                    "task": {"arrival_time": 0.1, "deadline": 1.0,
                             "computation_times": [0.01, 0.01],
                             "task_id": 1}}).encode(),
        b"   ",
        b"not json",
        json.dumps({"id": 2, "op": "stats", "pipeline": "web"}).encode(),
    ]

    def test_matches_per_line_loop(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        fused = _durable(tmp_path / "a")
        fused_routed = fused.handle_frames(self.FRAMES, origin="c")
        mirrored = _durable(tmp_path / "b")
        mirrored_routed = []
        for raw in self.FRAMES:
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                mirrored_routed.extend(mirrored.handle_line(line, "c"))
        assert fused_routed == mirrored_routed
        fused.journal.close()
        mirrored.journal.close()
        assert (
            (tmp_path / "a" / "journal.ndjson").read_bytes()
            == (tmp_path / "b" / "journal.ndjson").read_bytes()
        )


# ----------------------------------------------------------------------
# Group commit: the chunk lane against the per-line write-ahead lane
# ----------------------------------------------------------------------


def _nested_record(op, seq):
    """``encode_record`` as the nested canonical form spells it out."""
    def canonical(doc):
        return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    payload = canonical({"op": op, "seq": seq}).encode("utf-8")
    crc = "%08x" % (zlib.crc32(payload) & 0xFFFFFFFF)
    return crc, canonical({"crc": crc, "op": op, "seq": seq})


def _recorded_bookkeeping(seed=3, requests=60):
    """Request lines of the closed-loop webserver scenario, in process:
    one ``register``, then per admit ~3 ``depart`` and ~2 ``idle``
    lines, a mid-run ``snapshot`` and a closing ``stats``."""
    from repro.apps.webserver import TIERS
    from repro.serve.client import (
        GatewayClient,
        GatewayControllerProxy,
        InProcessTransport,
    )
    from repro.serve.loadgen import PIPELINE_NAME, SCENARIOS, build_trace
    from repro.sim.pipeline import PipelineSimulation

    class Recording(InProcessTransport):
        def __init__(self):
            super().__init__()
            self.lines = []

        def submit(self, line):
            self.lines.append(line)
            return super().submit(line)

    scenario = next(s for s in SCENARIOS if s.name == "webserver")
    trace, span, horizon = build_trace(scenario, seed, requests)
    transport = Recording()
    client = GatewayClient(transport)
    client.register(PIPELINE_NAME, {"num_stages": len(TIERS)})
    proxy = GatewayControllerProxy(client, PIPELINE_NAME, num_stages=len(TIERS))
    sim = PipelineSimulation(
        num_stages=len(TIERS), controller=proxy, max_admission_wait=0.0
    )
    sim.sim.at(round(span * 0.5, 6),
               lambda: client.call("snapshot", pipeline=PIPELINE_NAME))
    sim.offer_stream(iter(trace))
    sim.run(horizon, warmup=0.0)
    client.stats(PIPELINE_NAME)
    return transport.lines


def _mixed_stream(seed=11):
    """The recorded bookkeeping stream with everything the lanes must
    agree on mixed in: rid-tagged admits on a ``max_batch`` pipeline
    (pending batches defer compaction), verbatim retries of recent rid
    lines (dedup hits, or ``duplicate-request`` while still queued),
    ``health`` probes, bad JSON and blank frames."""
    rng = random.Random(seed)
    lines = [json.dumps({"id": -1, "op": "register", "pipeline": "batch",
                         "policy": {"num_stages": 2, "max_batch": 4}})]
    recent = []
    for n, line in enumerate(_recorded_bookkeeping()):
        lines.append(line)
        roll = rng.random()
        if roll < 0.15:
            arrival = 0.01 * n
            admit = json.dumps({
                "id": 10_000 + n, "rid": f"b{n}", "op": "admit",
                "pipeline": "batch",
                "task": {"task_id": n, "arrival": arrival,
                         "deadline": arrival + 1.0, "costs": [0.001, 0.001]},
            })
            lines.append(admit)
            recent = (recent + [admit])[-8:]
        elif roll < 0.22 and recent:
            lines.append(rng.choice(recent))
        elif roll < 0.27:
            lines.append(json.dumps({"id": 20_000 + n, "op": "health"}))
        elif roll < 0.30:
            lines.append("{not json")
        elif roll < 0.33:
            lines.append(rng.choice(["", "   "]))
    return lines


def _per_line_lane(durable, lines, origin="c", drain=True):
    """The per-line write-ahead lane the group commit replaced: append
    each mutating line's record, dispatch it, then attempt compaction
    after every journaled line; finally drain.  Returns the responses
    and how many compaction attempts a pending batch skipped."""
    routed, skipped = [], 0

    def journaled(request, dispatch):
        nonlocal skipped
        durable.journal.append(request)
        routed.extend(dispatch())
        durable._ops_since_snapshot += 1
        every = durable.snapshot_every
        if every and durable._ops_since_snapshot >= every:
            skipped += not durable.compact()

    def dispatch(request):
        out = []
        durable.gateway.handle_request(request, origin, out)
        return out

    for line in lines:
        line = line.strip()
        if not line:
            continue
        request = decode_line(line)
        if durable._journaled_request(request) is None:
            routed.extend(dispatch(request))
        else:
            journaled(request, lambda: dispatch(request))
    if drain and any(pipeline.pending for pipeline in durable.gateway.registry):
        journaled({"op": "drain", "synthetic": True}, durable.gateway.drain)
    return routed, skipped


def _chunk_lane(durable, lines, size, use_async, origin="c"):
    frames = [line.encode("utf-8") for line in lines]
    chunks = [frames[i:i + size] for i in range(0, len(frames), size)]
    if not use_async:
        routed = []
        for chunk in chunks:
            routed.extend(durable.handle_frames(chunk, origin))
        return routed + durable.drain()

    async def run():
        routed = []
        for chunk in chunks:
            routed.extend(await durable.handle_frames_async(chunk, origin))
        return routed + await durable.drain_async()

    return asyncio.run(run())


def _state_files(state_dir):
    snapshot = state_dir / "snapshot.json"
    return (
        (state_dir / "journal.ndjson").read_bytes(),
        snapshot.read_bytes() if snapshot.exists() else None,
    )


def _recovered_fingerprint(state_dir):
    recovered, _report = recover(state_dir, snapshot_every=0)
    try:
        return registry_fingerprint(recovered)
    finally:
        recovered.close()


class TestEncodeRecordOnce:
    """``encode_record`` encodes the op once and shares it between the
    CRC payload and the record; the bytes must equal the nested form."""

    OPS = [
        {"id": 1, "op": "register", "pipeline": "café ☃ \U0001f600",
         "policy": {"num_stages": 2, "name": "üß中"}},
        {"id": 2, "op": "expire", "pipeline": "web", "now": 5e-324},
        {"id": 3, "op": "expire", "pipeline": "web",
         "now": 2.2250738585072009e-308},
        {"id": 4, "op": "report", "pipeline": "web",
         "deep": {"z": {"b": [1, {"y": None, "a": -0.0}], "a": True},
                  "a": [[], {}, "\\\"\n\t"]}},
        {"op": "drain", "synthetic": True},
    ]

    @pytest.mark.parametrize("seq", [1, 2, 255, 65_537, 10**9, 10**12])
    def test_matches_nested_form(self, seq):
        for op in self.OPS:
            crc, line = _nested_record(op, seq)
            assert encode_record(op, seq) == line
            assert record_crc(op, seq) == crc
            assert decode_record(line)["op"] == op

    def test_matches_nested_form_on_recorded_bookkeeping(self):
        from repro.serve.protocol import parse_request

        lines = _recorded_bookkeeping()
        assert len(lines) > 300
        for seq, line in enumerate(lines, start=1):
            op = parse_request(line)
            for at in (seq, seq + 10**12 - len(lines)):
                assert encode_record(op, at) == _nested_record(op, at)[1]


class TestGroupCommitDifferential:
    """The chunk lane against the per-line write-ahead lane: equal
    responses, journal bytes, snapshot bytes and recovered state at
    every chunk size and compaction period."""

    @pytest.fixture(scope="class")
    def stream(self):
        return _mixed_stream()

    @pytest.fixture(scope="class")
    def oracle(self, stream, tmp_path_factory):
        runs = {}
        for every in (0, 3, 16, 256):
            state_dir = tmp_path_factory.mktemp(f"per-line-{every}")
            durable, _ = recover(state_dir, snapshot_every=every)
            routed, skipped = _per_line_lane(durable, stream)
            hits = durable.gateway.dedup_hits
            durable.close()
            runs[every] = (routed, (skipped, hits), _state_files(state_dir),
                           _recovered_fingerprint(state_dir))
        return runs

    def test_stream_exercises_every_case(self, stream, oracle):
        routed = [json.loads(response) for _origin, response in oracle[3][0]]
        assert {"bad-json", "duplicate-request"} <= {
            doc.get("error") for doc in routed
        }
        assert any(doc.get("op") == "health" for doc in routed)
        assert "" in stream and "   " in stream
        skipped, dedup_hits = oracle[3][1]
        assert skipped > 0  # compaction deferred by a pending batch
        assert dedup_hits > 0
        assert oracle[256][2][1] is not None  # a snapshot at the default period

    @pytest.mark.parametrize("use_async", [False, True], ids=["sync", "async"])
    @pytest.mark.parametrize("every", [0, 3, 16, 256])
    @pytest.mark.parametrize("size", [1, 2, 7, 64, 500])
    def test_matches_per_line_lane(
        self, stream, oracle, tmp_path, size, every, use_async
    ):
        durable, _ = recover(tmp_path, snapshot_every=every)
        routed = _chunk_lane(durable, stream, size, use_async)
        durable.close()
        want_routed, _skipped, want_files, want_fingerprint = oracle[every]
        assert routed == want_routed
        assert _state_files(tmp_path) == want_files
        assert _recovered_fingerprint(tmp_path) == want_fingerprint

    def test_handle_line_loop_is_the_per_line_lane(self, stream, oracle, tmp_path):
        durable, _ = recover(tmp_path, snapshot_every=16)
        routed = []
        for line in stream:
            if line.strip():
                routed.extend(durable.handle_line(line.strip(), "c"))
        routed.extend(durable.drain())
        durable.close()
        assert routed == oracle[16][0]
        assert _state_files(tmp_path) == oracle[16][2]

    def test_one_write_per_chunk(self, stream, tmp_path, monkeypatch):
        durable, _ = recover(tmp_path, snapshot_every=0)
        commits = []
        real_commit = durable.journal.commit
        monkeypatch.setattr(
            durable.journal, "commit",
            lambda records: (commits.append(len(records)), real_commit(records)),
        )
        frames = [line.encode() for line in stream[:200]]
        durable.handle_frames(frames)
        durable.close()
        assert len(commits) == 1 and commits[0] > 100


class _ShortThenFail:
    """A journal file whose next write lands a prefix, then raises (or,
    like ``write(2)`` on a filling disk, reports the short count)."""

    def __init__(self, real, keep, short):
        self.real = real
        self.keep = keep
        self.short = short

    def write(self, data):
        written = self.real.write(bytes(data[: self.keep]))
        if self.short:
            return written
        raise OSError(errno.ENOSPC, "No space left on device")

    def fileno(self):
        return self.real.fileno()

    @property
    def closed(self):
        return self.real.closed

    def close(self):
        self.real.close()


class TestFailStop:
    """A failed group commit leaves the core ahead of the journal: no
    response of the chunk is returned, every later line is refused,
    and recovery rebuilds the state at the last durable record."""

    @pytest.mark.parametrize("short", [False, True], ids=["raises", "short"])
    @pytest.mark.parametrize("use_async", [False, True], ids=["sync", "async"])
    def test_failed_write_stops_the_gateway(self, tmp_path, use_async, short):
        stream = [line for line in _mixed_stream() if line.strip()]
        first, second, later = stream[:150], stream[150:300], stream[300:340]
        state_dir = tmp_path / "chunked"
        durable, _ = recover(state_dir, snapshot_every=0)
        ingest = (
            (lambda frames: asyncio.run(durable.handle_frames_async(frames, "c")))
            if use_async else (lambda frames: durable.handle_frames(frames, "c"))
        )
        assert ingest([line.encode() for line in first])
        committed = durable.journal.last_seq
        durable.journal._file = _ShortThenFail(
            durable.journal._file, keep=300, short=short
        )
        with pytest.raises(OSError):
            ingest([line.encode() for line in second])
        assert durable.failed is not None
        encoded = durable.journal.last_seq
        durable.journal._file = durable.journal._file.real
        size = (state_dir / "journal.ndjson").stat().st_size

        refused = ingest([line.encode() for line in later])
        assert len(refused) == len(later)
        for (origin, response), line in zip(refused, later):
            doc = json.loads(response)
            assert origin == "c"
            assert doc["ok"] is False and doc["error"] == "journal-failed"
            try:
                assert doc["id"] == json.loads(line).get("id")
            except ValueError:
                assert doc["id"] is None
        assert durable.drain() == []
        assert (state_dir / "journal.ndjson").stat().st_size == size
        durable.close()

        # Recovery succeeds (no seq gap) at the last whole record, and
        # equals the per-line lane stopped right after that record.
        records = scan_journal(state_dir / "journal.ndjson").records
        last = records[-1]["seq"]
        assert [r["seq"] for r in records] == list(range(1, last + 1))
        oracle_dir = tmp_path / "per-line"
        oracle, _ = recover(oracle_dir, snapshot_every=0)
        for n in range(len(stream)):
            if oracle.journal.last_seq == last:
                break
            _per_line_lane(oracle, [stream[n]], drain=False)
        assert oracle.journal.last_seq == last
        oracle.close()
        assert _recovered_fingerprint(state_dir) == _recovered_fingerprint(oracle_dir)
        # The write landed part of the chunk, not all of it.
        assert committed < last < encoded

    def test_dispatch_failure_still_commits_dispatched_records(
        self, tmp_path, monkeypatch
    ):
        durable, _ = recover(tmp_path, snapshot_every=0)
        lines = _recorded_bookkeeping()[:20]
        real = durable.gateway.handle_request
        calls = []

        def flaky(request, origin, routed):
            calls.append(request)
            if len(calls) == 10:
                raise RuntimeError("dispatch bug")
            real(request, origin, routed)

        monkeypatch.setattr(durable.gateway, "handle_request", flaky)
        with pytest.raises(RuntimeError):
            durable.handle_frames([line.encode() for line in lines])
        assert durable.failed is None
        durable.close()
        records = scan_journal(tmp_path / "journal.ndjson").records
        assert [r["seq"] for r in records] == list(range(1, 11))
