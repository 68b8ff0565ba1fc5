"""Shard map, worker-side enforcement, and client-side re-resolution."""

import json

import pytest

from repro.serve.client import GatewayClient, GatewayError, InProcessTransport
from repro.serve.gateway import AdmissionGateway
from repro.serve.journal import DurableGateway, Journal
from repro.serve.protocol import ProtocolError, encode
from repro.serve.router import (
    SHARD_MAP_FORMAT,
    ShardGateway,
    ShardMap,
    ShardRouter,
    partition_names,
    wrong_shard_response,
)

POLICY = {"num_stages": 2, "alpha": 0.9}


class TestShardMap:
    def test_hashing_is_stable_and_in_range(self):
        shard_map = ShardMap(shards=3)
        for name in ("api", "img", "web", "etl", "x" * 50):
            shard = shard_map.shard_of(name)
            assert 0 <= shard < 3
            assert shard_map.shard_of(name) == shard

    def test_explicit_assignment_overrides_hash(self):
        shard_map = ShardMap(shards=4, assignments=(("api", 3),))
        assert shard_map.shard_of("api") == 3

    def test_balanced_covers_every_shard(self):
        shard_map = ShardMap.balanced(["a", "b", "c", "d", "e"], 3)
        owners = {shard_map.shard_of(n) for n in "abcde"}
        assert owners == {0, 1, 2}
        # Deterministic: sorted names round-robin.
        assert shard_map.shard_of("a") == 0
        assert shard_map.shard_of("b") == 1
        assert shard_map.shard_of("c") == 2
        assert shard_map.shard_of("d") == 0

    def test_assign_bumps_version_and_replaces(self):
        first = ShardMap.balanced(["a", "b"], 2)
        second = first.assign("a", 1)
        assert second.version == first.version + 1
        assert second.shard_of("a") == 1
        assert first.shard_of("a") == 0  # immutable

    def test_wire_round_trip(self):
        shard_map = ShardMap.balanced(["a", "b", "c"], 2, version=7)
        doc = shard_map.to_wire()
        assert doc["format"] == SHARD_MAP_FORMAT
        assert ShardMap.from_wire(doc) == shard_map

    def test_from_wire_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            ShardMap.from_wire({"format": "nope"})
        with pytest.raises(ProtocolError):
            ShardMap.from_wire({"format": SHARD_MAP_FORMAT, "shards": 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(shards=0)
        with pytest.raises(ValueError):
            ShardMap(shards=2, assignments=(("a", 5),))
        with pytest.raises(ValueError):
            ShardMap(shards=2, assignments=(("a", 0), ("a", 1)))

    def test_partition_names_groups_by_owner(self):
        shard_map = ShardMap.balanced(["a", "b", "c"], 2)
        grouped = partition_names(["a", "b", "c"], shard_map)
        assert grouped == {0: ["a", "c"], 1: ["b"]}


def _register_line(name, request_id=1):
    return encode(
        {
            "id": request_id,
            "rid": f"r{request_id}",
            "op": "register",
            "pipeline": name,
            "policy": dict(POLICY),
        }
    )


class TestShardGateway:
    def _gateway(self, shard=0, names=("owned", "foreign")):
        shard_map = ShardMap(
            shards=2, assignments=((names[0], 0), (names[1], 1))
        )
        return ShardGateway(AdmissionGateway(), shard, shard_map)

    def test_owned_pipeline_passes_through(self):
        gateway = self._gateway()
        routed = gateway.handle_line(_register_line("owned"))
        assert json.loads(routed[0][1])["ok"] is True

    def test_foreign_pipeline_bounces_with_map(self):
        gateway = self._gateway()
        routed = gateway.handle_line(_register_line("foreign"))
        response = json.loads(routed[0][1])
        assert response["ok"] is False
        assert response["error"] == "wrong-shard"
        assert response["shard"] == 1
        assert ShardMap.from_wire(response["map"]).shard_of("foreign") == 1
        assert gateway.bounced == 1

    def test_bounce_never_touches_journal_or_dedup(self, tmp_path):
        journal = Journal(tmp_path / "j.ndjson")
        durable = DurableGateway(
            AdmissionGateway(), journal, tmp_path / "s.json"
        )
        shard_map = ShardMap(shards=2, assignments=(("foreign", 1),))
        gateway = ShardGateway(durable, 0, shard_map)
        try:
            gateway.handle_line(_register_line("foreign"))
            assert journal.last_seq == 0
            assert durable.gateway.dedup_status("r1") == "unknown"
        finally:
            durable.close()

    def test_ops_without_pipeline_pass_through(self):
        gateway = self._gateway()
        routed = gateway.handle_line('{"id":1,"op":"health"}')
        assert json.loads(routed[0][1])["ok"] is True

    def test_unparseable_lines_pass_to_inner_error_path(self):
        gateway = self._gateway()
        routed = gateway.handle_line("{nope")
        response = json.loads(routed[0][1])
        assert response["error"] == "bad-json"
        assert gateway.bounced == 0

    def test_install_map_refuses_rollback(self):
        gateway = self._gateway()
        newer = gateway.shard_map.assign("owned", 0)
        gateway.install_map(newer)
        with pytest.raises(ValueError):
            gateway.install_map(ShardMap(shards=2, version=1))


class TestShardRouter:
    def _fleet(self):
        """Two shard gateways over one logical namespace + a router."""
        shard_map = ShardMap(shards=2, assignments=(("a", 0), ("b", 1)))
        workers = [
            ShardGateway(AdmissionGateway(), shard, shard_map)
            for shard in range(2)
        ]
        router = ShardRouter(
            shard_map,
            connect=lambda shard: GatewayClient(
                InProcessTransport(workers[shard])
            ),
        )
        return workers, router

    def test_routes_to_owner(self):
        workers, router = self._fleet()
        response = router.call("register", pipeline="a", policy=dict(POLICY))
        assert response["ok"] is True
        assert workers[0].inner.registry.names() == ["a"]
        assert workers[1].inner.registry.names() == []

    def test_stale_map_re_resolves_from_bounce(self):
        workers, router = self._fleet()
        router.call("register", pipeline="a", policy=dict(POLICY))
        # The cluster rebalances "a" to shard 1 behind the router's back.
        newer = workers[0].shard_map.assign("a", 1)
        for worker in workers:
            worker.install_map(newer)
        # Move the state too, mirroring what the supervisor would do.
        snap = [
            json.loads(r)
            for _, r in workers[0].inner.handle_line(
                '{"id":9,"op":"snapshot","pipeline":"a"}'
            )
        ][0]["snapshot"]
        workers[0].inner.handle_line('{"id":10,"op":"unregister","pipeline":"a"}')
        workers[1].inner.handle_line(
            encode({"id": 11, "op": "restore", "pipeline": "a", "snapshot": snap})
        )
        response = router.call("expire", pipeline="a", now=0.5)
        assert response["ok"] is True
        assert router.stale_resolves == 1
        assert router.shard_map.version == newer.version

    def test_persistent_wrong_shard_raises(self):
        workers, router = self._fleet()
        # A worker whose map claims it owns nothing it serves: the
        # bounce re-resolves to the same shard, which is a topology
        # bug, not staleness — the router must raise, not loop.
        broken = ShardMap(shards=2, version=5, assignments=(("a", 1),))
        workers[1].install_map(broken)
        workers[0].install_map(broken)
        workers[1].shard = 0  # worker claims shard 0 while serving slot 1
        with pytest.raises(GatewayError) as excinfo:
            router.call("register", pipeline="a", policy=dict(POLICY))
        assert excinfo.value.code == "wrong-shard"

    def test_non_routing_errors_pass_through(self):
        workers, router = self._fleet()
        with pytest.raises(GatewayError) as excinfo:
            router.call("expire", pipeline="a", now=1.0)
        assert excinfo.value.code == "unknown-pipeline"


class TestWrongShardResponse:
    def test_payload_shape(self):
        shard_map = ShardMap(shards=2, assignments=(("a", 1),))
        line = wrong_shard_response(
            {"id": 4, "op": "admit", "pipeline": "a"}, 1, shard_map
        )
        doc = json.loads(line)
        assert doc["id"] == 4
        assert doc["error"] == "wrong-shard"
        assert doc["shard"] == 1
        assert doc["map"]["format"] == SHARD_MAP_FORMAT


class TestShardHandleFrames:
    """The shard wrapper's chunk ingest matches the per-line loop.

    One chunk can mix owned and foreign pipelines: every line gets its
    own ownership check, each maximal run of owned lines goes to one
    inner chunk call, and the bounces between runs keep their place.
    Responses (including bounces) must match the decode/strip/
    ``handle_line`` loop line for line.
    """

    def test_matches_per_line_loop(self):
        shard_map = ShardMap(
            shards=2, assignments=(("owned", 0), ("foreign", 1))
        )
        frames = [
            _register_line("owned", 1).encode(),
            _register_line("foreign", 2).encode(),  # bounce
            b"  ",
            b"garbage",
            encode({"id": 3, "op": "stats", "pipeline": "owned"}).encode(),
        ]
        fused = ShardGateway(AdmissionGateway(), 0, shard_map)
        fused_routed = fused.handle_frames(frames, origin="c")
        mirrored = ShardGateway(AdmissionGateway(), 0, shard_map)
        mirrored_routed = []
        for raw in frames:
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                mirrored_routed.extend(mirrored.handle_line(line, "c"))
        assert fused_routed == mirrored_routed
        assert fused.bounced == mirrored.bounced == 1

    @staticmethod
    def _durable_stream():
        lines = [
            encode({"id": 1, "op": "register", "pipeline": "owned",
                    "policy": {"num_stages": 2, "max_batch": 2}}),
            _register_line("foreign", 2),
        ]
        for n in range(3, 40):
            name = "foreign" if n % 3 == 0 else "owned"
            if n % 5 == 0:
                lines.append(encode({"id": n, "op": "health"}))
            elif n % 7 == 0:
                lines.append(encode({"id": n, "rid": f"e{n}", "op": "expire",
                                     "pipeline": name, "now": 0.01 * n}))
            else:
                lines.append(encode({
                    "id": n, "rid": f"a{n}", "op": "admit", "pipeline": name,
                    "task": {"task_id": n, "arrival": 0.01 * n,
                             "deadline": 0.01 * n + 1.0, "costs": [0.01, 0.01]},
                }))
            if n % 11 == 0:
                lines += ["", lines[-1], "{nope"]  # blank, retry, bad JSON
        return lines + [encode({"id": 99, "op": "drain"})]

    @pytest.mark.parametrize("use_async", [False, True], ids=["sync", "async"])
    @pytest.mark.parametrize("size", [1, 4, 64])
    def test_durable_runs_match_per_line_loop(self, tmp_path, size, use_async):
        import asyncio

        shard_map = ShardMap(shards=2, assignments=(("owned", 0), ("foreign", 1)))
        lines = self._durable_stream()

        def shard_gateway(name):
            journal = Journal(tmp_path / f"{name}.ndjson")
            durable = DurableGateway(
                AdmissionGateway(), journal, tmp_path / f"{name}.json",
                snapshot_every=5,
            )
            return ShardGateway(durable, 0, shard_map), durable

        mirrored, mirrored_durable = shard_gateway("per-line")
        want = []
        for line in lines:
            if line.strip():
                want.extend(mirrored.handle_line(line.strip(), "c"))
        mirrored_durable.close()

        chunked, chunked_durable = shard_gateway("chunked")
        inner_calls = []
        frames = [line.encode() for line in lines]
        chunks = [frames[i:i + size] for i in range(0, len(frames), size)]
        if use_async:
            real = chunked_durable.handle_frames_async

            async def counted(piece, origin=None):
                inner_calls.append(len(piece))
                return await real(piece, origin)

            chunked_durable.handle_frames_async = counted

            async def run():
                got = []
                for chunk in chunks:
                    got.extend(await chunked.handle_frames_async(chunk, "c"))
                return got

            got = asyncio.run(run())
        else:
            real_sync = chunked_durable.handle_frames

            def counted_sync(piece, origin=None):
                inner_calls.append(len(piece))
                return real_sync(piece, origin)

            chunked_durable.handle_frames = counted_sync
            got = []
            for chunk in chunks:
                got.extend(chunked.handle_frames(chunk, "c"))
        chunked_durable.close()

        assert got == want
        assert chunked.bounced == mirrored.bounced > 5
        for suffix in (".ndjson", ".json"):
            assert (tmp_path / f"chunked{suffix}").read_bytes() == (
                tmp_path / f"per-line{suffix}"
            ).read_bytes()
        # One inner call per maximal run of owned frames, not per line.
        owned = sum(
            1 for line in lines
            if line.strip() and '"pipeline":"foreign"' not in line
        )
        assert sum(inner_calls) == owned
        if size == 64:
            assert len(inner_calls) < owned // 2
