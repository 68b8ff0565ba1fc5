"""Protocol-level tests for the admission gateway.

Exercises every operation through the same line-oriented protocol the
TCP server speaks, using the in-process transport for determinism and a
real asyncio server for end-to-end coverage.
"""

import json
import socket

import pytest

from repro.core.audit import ControllerAuditor
from repro.core.task import make_task
from repro.locking import ResourceSpec
from repro.serve.client import (
    GatewayClient,
    GatewayError,
    GatewayTimeout,
    InProcessTransport,
    RetryingGatewayClient,
    RetryPolicy,
    TcpTransport,
)
from repro.serve.gateway import AdmissionGateway
from repro.serve.loadgen import _TcpGatewayThread
from repro.serve.protocol import task_to_wire
from repro.serve.recovery import recover, registry_fingerprint
from repro.serve.snapshot import controller_snapshot

NUM_STAGES = 3
POLICY = {"num_stages": NUM_STAGES}


def _client():
    return GatewayClient(InProcessTransport(AdmissionGateway()))


def _task(task_id, arrival, cost=0.01, deadline=1.0):
    return make_task(
        arrival_time=arrival,
        deadline=deadline,
        computation_times=[cost] * NUM_STAGES,
        task_id=task_id,
    )


class TestOperations:
    def test_health_reports_registered_pipelines(self):
        client = _client()
        assert client.call("health")["pipelines"] == []
        client.register("web", POLICY)
        client.register("api", POLICY)
        response = client.call("health")
        assert response["pipelines"] == ["api", "web"]
        assert response["draining"] is False

    def test_register_admit_depart_idle_expire(self):
        client = _client()
        register = client.register("web", POLICY)
        assert register["region_budget"] > 0.0

        admit = client.admit("web", _task(0, 0.0))
        assert admit["admitted"] is True
        assert admit["shed"] == []
        assert admit["region_value"] > 0.0

        client.call("depart", pipeline="web", task_id=0, stage=0)
        released = client.call("idle", pipeline="web", stage=0)["released"]
        assert released > 0.0

        expire = client.call("expire", pipeline="web", now=10.0)
        assert expire["region_value"] == 0.0

    def test_capacity_rescale(self):
        client = _client()
        client.register("web", POLICY)
        response = client.call("capacity", pipeline="web", stage=1, capacity=0.5)
        assert response["capacities"] == [1.0, 0.5, 1.0]

    def test_resync_reconciles_against_frontier(self):
        client = _client()
        client.register("web", POLICY)
        client.admit("web", _task(0, 0.0, deadline=5.0))
        client.admit("web", _task(1, 0.1, deadline=5.0))
        # Ground truth: task 0 progressed to stage 2; task 1 is absent
        # from the frontier, i.e. fully departed.
        response = client.call(
            "resync", pipeline="web", now=0.5, frontier={"0": 2}
        )
        report = response["report"]
        assert report["restored"] == 2 * NUM_STAGES
        assert report["departures_marked"] == 2 + NUM_STAGES
        assert report["dropped_orphans"] == 0
        assert report["dropped_expired"] == 0

    def test_stats_scoped_and_global(self):
        client = _client()
        client.register("web", POLICY)
        client.register("api", POLICY)
        client.admit("web", _task(0, 0.0))
        scoped = client.stats("web")
        assert set(scoped["stats"]) == {"web"}
        assert scoped["stats"]["web"]["counters"]["admitted"] == 1
        everything = client.stats()
        assert set(everything["stats"]) == {"api", "web"}
        assert everything["ops"]["admit"] == 1

    def test_unregister_forgets_the_pipeline(self):
        client = _client()
        client.register("web", POLICY)
        client.call("unregister", pipeline="web")
        with pytest.raises(GatewayError) as err:
            client.admit("web", _task(0, 0.0))
        assert err.value.code == "unknown-pipeline"

    def test_drain_refuses_new_admits(self):
        gateway = AdmissionGateway()
        client = GatewayClient(InProcessTransport(gateway))
        client.register("web", POLICY)
        gateway.draining = True
        with pytest.raises(GatewayError) as err:
            client.admit("web", _task(0, 0.0))
        assert err.value.code == "draining"


class TestErrors:
    @pytest.mark.parametrize(
        "line,code",
        [
            ("{not json", "bad-json"),
            ('"just a string"', "bad-request"),
            ('{"id": 1, "op": "frobnicate"}', "unknown-op"),
            ('{"id": 1}', "unknown-op"),
        ],
    )
    def test_malformed_lines_become_error_responses(self, line, code):
        gateway = AdmissionGateway()
        routed = gateway.handle_line(line)
        assert len(routed) == 1
        response = json.loads(routed[0][1])
        assert response["ok"] is False
        assert response["error"] == code
        assert gateway.errors == 1

    def test_unknown_pipeline(self):
        client = _client()
        with pytest.raises(GatewayError) as err:
            client.admit("ghost", _task(0, 0.0))
        assert err.value.code == "unknown-pipeline"

    def test_duplicate_register(self):
        client = _client()
        client.register("web", POLICY)
        with pytest.raises(GatewayError) as err:
            client.register("web", POLICY)
        assert err.value.code == "duplicate-pipeline"

    @pytest.mark.parametrize(
        "policy",
        [
            None,
            {},
            {"num_stages": 0},
            {"num_stages": 3, "alpha": -1.0},
            {"num_stages": 3, "mystery_knob": 7},
            {"num_stages": 3, "batch_window": -0.5},
        ],
    )
    def test_bad_policies_are_rejected(self, policy):
        client = _client()
        with pytest.raises(GatewayError) as err:
            client.register("web", policy)
        assert err.value.code == "bad-policy"

    def test_bad_task(self):
        client = _client()
        client.register("web", POLICY)
        with pytest.raises(GatewayError) as err:
            client.call("admit", pipeline="web", task={"task_id": 0})
        assert err.value.code == "bad-task"

    def test_time_regression_rejected(self):
        client = _client()
        client.register("web", POLICY)
        client.admit("web", _task(0, 1.0))
        with pytest.raises(GatewayError) as err:
            client.admit("web", _task(1, 0.5))
        assert err.value.code == "time-regression"

    @pytest.mark.parametrize(
        "op,operands",
        [
            ("depart", {"pipeline": "web", "task_id": "zero", "stage": 0}),
            ("idle", {"pipeline": "web", "stage": True}),
            ("idle", {"pipeline": "web", "stage": 99}),
            ("expire", {"pipeline": "web", "now": "later"}),
            ("capacity", {"pipeline": "web", "stage": 0, "capacity": "half"}),
        ],
    )
    def test_bad_operands(self, op, operands):
        client = _client()
        client.register("web", POLICY)
        with pytest.raises(GatewayError):
            client.call(op, **operands)


def _duplicate_script(mode):
    """Admit lines where ids 1 and 4 come back while still in flight and
    id 2 comes back after its admission lapsed (decided afresh).

    ``mode`` is ``plain``, ``locking`` or ``shedding`` (the pipeline's
    per-request lane).  Returns ``(register, lines, duplicate_indices)``.
    """
    locking = mode == "locking"
    policy = {"num_stages": 2, "alpha": 0.9, "locking": locking,
              "shedding": mode == "shedding"}
    register = {"id": 0, "op": "register", "pipeline": "p", "policy": policy}
    arrivals = [
        (1, 0.0, 5.0), (2, 0.1, 0.5), (3, 0.2, 5.0), (1, 0.3, 5.0),
        (4, 0.4, 2.0), (2, 0.9, 5.0), (4, 1.0, 1.0), (5, 1.1, 3.0),
        (1, 1.2, 1.0),
    ]
    lines = []
    for k, (task_id, arrival, deadline) in enumerate(arrivals):
        task = task_to_wire(
            make_task(
                arrival_time=arrival,
                deadline=deadline,
                computation_times=[0.02, 0.03],
                resources=[ResourceSpec(k % 2, "db", 0.004 * k)] if locking else (),
                task_id=task_id,
            )
        )
        lines.append(
            json.dumps(
                {"id": k + 1, "rid": f"r{k}", "op": "admit", "pipeline": "p",
                 "task": task}
            )
        )
    return register, lines, [3, 6, 8]


def _feed(gateway, lines, lane):
    if lane == "frames":
        routed = gateway.handle_frames([line.encode() for line in lines])
    else:
        routed = [r for line in lines for r in gateway.handle_line(line)]
    return [line for _, line in routed + gateway.drain()]


class TestDuplicateTask:
    """An admit whose task id is still in flight gets a structured
    error; its batch-mates are decided as if the line were absent."""

    @pytest.mark.parametrize("lane", ["line", "frames"])
    @pytest.mark.parametrize("max_batch", [1, 32])
    @pytest.mark.parametrize("mode", ["plain", "locking", "shedding"])
    def test_duplicate_is_an_error_and_mates_are_unaffected(
        self, lane, max_batch, mode
    ):
        register, lines, dups = _duplicate_script(mode)
        register["policy"]["max_batch"] = max_batch
        with_dups = AdmissionGateway()
        without = AdmissionGateway()
        for gateway in (with_dups, without):
            gateway.handle_line(json.dumps(register))
        got = _feed(with_dups, lines, lane)
        want = _feed(without, [ln for k, ln in enumerate(lines) if k not in dups], lane)

        for k in dups:
            doc = json.loads(got[k])
            assert doc["ok"] is False and doc["error"] == "duplicate-task"
            assert doc["id"] == k + 1 and doc["op"] == "admit"
        assert [line for k, line in enumerate(got) if k not in dups] == want
        assert json.loads(got[5])["admitted"] is True  # id 2, lapsed first
        assert with_dups.errors == len(dups)

        controller = with_dups.registry.get("p").controller
        reference = without.registry.get("p").controller
        assert controller_snapshot(controller) == controller_snapshot(reference)
        assert ControllerAuditor(controller).audit(1.2) == []

    @pytest.mark.parametrize("lane", ["line", "frames"])
    def test_durable_gateway_replays_duplicates_to_the_same_bytes(
        self, tmp_path, lane
    ):
        register, lines, dups = _duplicate_script("locking")
        register["policy"]["max_batch"] = 4
        durable, _ = recover(tmp_path)
        durable.handle_line(json.dumps(register))
        got = _feed(durable, lines, lane)
        pre_crash = registry_fingerprint(durable)
        durable.close()

        shadow = AdmissionGateway()
        shadow.handle_line(json.dumps(register))
        assert _feed(shadow, lines, lane) == got

        recovered, _ = recover(tmp_path)
        assert registry_fingerprint(recovered) == pre_crash
        for k in dups:
            # The retry is served from the recovered dedup window.
            assert [line for _, line in recovered.handle_line(lines[k])] == [got[k]]
        recovered.close()


class TestBatchingDeferral:
    def test_queued_admits_answer_before_barrier_response(self):
        """A barrier op releases batched decisions ahead of its own reply."""
        gateway = AdmissionGateway()
        client = GatewayClient(InProcessTransport(gateway))
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 8})
        ids = [client.submit_admit("web", _task(k, 0.01 * k)) for k in range(3)]
        # Nothing answered yet: the batch is still open.
        assert all(client.collect(i, wait=False) is None for i in ids)

        stats_id = client.send("stats", pipeline="web")
        for i in ids:
            response = client.collect(i, wait=False)
            assert response is not None and response["admitted"] is True
        stats = client.collect(stats_id, wait=False)
        assert stats is not None
        assert stats["stats"]["web"]["counters"]["batches"] == 1
        assert stats["stats"]["web"]["counters"]["largest_batch"] == 3

    def test_size_cap_releases_batch_mid_stream(self):
        client = _client()
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 2})
        a = client.submit_admit("web", _task(0, 0.0))
        assert client.collect(a, wait=False) is None
        b = client.submit_admit("web", _task(1, 0.1))  # fills the batch
        assert client.collect(a, wait=False)["admitted"] is True
        assert client.collect(b, wait=False)["admitted"] is True

    def test_drain_answers_every_pending_admit(self):
        client = _client()
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 32})
        ids = [client.submit_admit("web", _task(k, 0.01 * k)) for k in range(5)]
        client.drain()
        for i in ids:
            assert client.collect(i, wait=False)["admitted"] is True

    def test_snapshot_refuses_pending_batch(self):
        client = _client()
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 32})
        client.submit_admit("web", _task(0, 0.0))
        # snapshot is a barrier like any other pipeline op: the pending
        # admit is decided first, so the snapshot itself succeeds.
        response = client.call("snapshot", pipeline="web")
        assert len(response["snapshot"]["controller"]["admitted"]) == 1

    def test_failed_barrier_op_still_delivers_flushed_decisions(self):
        """A barrier that errors after the flush must not eat the batch.

        The flush decides the queued admissions and mutates controller
        state; the waiting clients must receive those decisions even
        though the barrier operation itself only yields an error.
        """
        client = _client()
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 8})
        ids = [client.submit_admit("web", _task(k, 0.01 * k)) for k in range(2)]
        with pytest.raises(GatewayError) as err:
            client.call("depart", pipeline="web", task_id=0, stage=99)
        assert err.value.code == "bad-stage"
        for i in ids:
            response = client.collect(i, wait=False)
            assert response is not None and response["admitted"] is True

    def test_time_regression_after_barrier_still_delivers_flushed_decisions(self):
        client = _client()
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 8})
        admit_id = client.submit_admit("web", _task(0, 1.0))
        with pytest.raises(GatewayError) as err:
            client.call("expire", pipeline="web", now=0.5)
        assert err.value.code == "time-regression"
        response = client.collect(admit_id, wait=False)
        assert response is not None and response["admitted"] is True

    def test_bad_operand_types_fail_before_the_barrier(self):
        """Trivially malformed requests do not force a batch flush."""
        client = _client()
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 8})
        admit_id = client.submit_admit("web", _task(0, 0.0))
        with pytest.raises(GatewayError) as err:
            client.call("depart", pipeline="web", task_id=0, stage="zero")
        assert err.value.code == "bad-request"
        assert client.collect(admit_id, wait=False) is None  # still queued
        client.drain()
        assert client.collect(admit_id, wait=False)["admitted"] is True


class TestSnapshotRestoreOps:
    def test_state_migrates_across_gateways(self):
        source = _client()
        source.register("web", POLICY)
        for k in range(10):
            source.admit("web", _task(k, 0.05 * k, deadline=5.0))
        source.call("depart", pipeline="web", task_id=0, stage=0)
        snapshot = source.call("snapshot", pipeline="web")["snapshot"]
        before = source.stats("web")["stats"]["web"]

        target = _client()
        restore = target.call("restore", pipeline="web", snapshot=snapshot)
        assert restore["audited"] is True

        after = target.stats("web")["stats"]["web"]
        assert after["admitted_live"] == before["admitted_live"]
        assert after["region_value"] == pytest.approx(before["region_value"])

        # Both gateways must agree on the next decision.
        probe = _task(100, 1.0, deadline=5.0)
        a = source.admit("web", probe)
        b = target.admit("web", probe)
        assert (a["admitted"], a["shed"]) == (b["admitted"], b["shed"])

    def test_restore_rejects_corrupt_snapshot(self):
        source = _client()
        source.register("web", POLICY)
        source.admit("web", _task(0, 0.0, deadline=5.0))
        snapshot = source.call("snapshot", pipeline="web")["snapshot"]
        snapshot["controller"]["format"] = "bogus/0"
        target = _client()
        with pytest.raises(GatewayError) as err:
            target.call("restore", pipeline="web", snapshot=snapshot)
        assert err.value.code == "bad-snapshot"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_stages", NUM_STAGES + 1),
            ("alpha", 0.5),
            ("betas", [0.1] * NUM_STAGES),
            ("reserved", [0.2, 0.0, 0.0]),
            ("demand", {"kind": "scaled", "factor": 2.0}),
            ("reset_on_idle", False),
        ],
    )
    def test_restore_rejects_policy_controller_mismatch(self, field, value):
        """The two snapshot documents must describe the same pipeline.

        A policy claiming (say) more stages than the controller has
        trackers would pass stage validation for operations the
        controller cannot serve, turning a later depart/idle into an
        IndexError that escapes the protocol layer.
        """
        source = _client()
        source.register("web", POLICY)
        source.admit("web", _task(0, 0.0, deadline=5.0))
        snapshot = source.call("snapshot", pipeline="web")["snapshot"]
        snapshot["policy"][field] = value
        target = _client()
        with pytest.raises(GatewayError) as err:
            target.call("restore", pipeline="web", snapshot=snapshot)
        assert err.value.code == "bad-snapshot"
        # The mismatched pipeline must not be adopted.
        assert target.call("health")["pipelines"] == []


class TestTcpServer:
    def test_end_to_end_over_sockets(self):
        with _TcpGatewayThread() as server:
            host, port = server.address
            client = GatewayClient(TcpTransport(host, port))
            try:
                client.register("web", POLICY)
                for k in range(20):
                    response = client.admit("web", _task(k, 0.05 * k))
                    assert response["admitted"] is True
                stats = client.stats("web")
                assert stats["stats"]["web"]["counters"]["admitted"] == 20
            finally:
                client.close()

    def test_two_connections_share_one_registry(self):
        with _TcpGatewayThread() as server:
            host, port = server.address
            first = GatewayClient(TcpTransport(host, port))
            second = GatewayClient(TcpTransport(host, port))
            try:
                first.register("web", POLICY)
                assert second.call("health")["pipelines"] == ["web"]
                second.admit("web", _task(0, 0.0))
                assert (
                    first.stats("web")["stats"]["web"]["counters"]["admitted"]
                    == 1
                )
            finally:
                first.close()
                second.close()


class TestIdempotency:
    def _admit_doc(self, request_id, rid, task_id=0, arrival=0.0):
        return json.dumps({
            "id": request_id, "rid": rid, "op": "admit", "pipeline": "web",
            "task": task_to_wire(_task(task_id, arrival)),
        })

    def test_retry_is_served_from_cache_not_re_executed(self):
        gateway = AdmissionGateway()
        client = GatewayClient(InProcessTransport(gateway))
        client.register("web", POLICY)
        (_, first), = gateway.handle_line(self._admit_doc(1, "r1"))
        (_, again), = gateway.handle_line(self._admit_doc(2, "r1"))
        first_doc, again_doc = json.loads(first), json.loads(again)
        assert first_doc["admitted"] is True
        # Same decision, rewritten to the retry's request id.
        assert again_doc == {**first_doc, "id": 2}
        assert gateway.dedup_hits == 1
        # Executed once: a double-admit would raise on the duplicate
        # task id, and the counter would read 2.
        stats = client.stats("web")
        assert stats["stats"]["web"]["counters"]["admitted"] == 1

    def test_error_responses_are_cached_as_final_answers(self):
        gateway = AdmissionGateway()
        client = GatewayClient(InProcessTransport(gateway))
        client.register("web", POLICY)
        bad = json.dumps({"id": 1, "rid": "r1", "op": "admit",
                          "pipeline": "web", "task": {"task_id": 0}})
        (_, first), = gateway.handle_line(bad)
        (_, again), = gateway.handle_line(
            json.dumps({"id": 2, "rid": "r1", "op": "admit",
                        "pipeline": "web", "task": {"task_id": 0}}))
        assert json.loads(first)["error"] == "bad-task"
        assert json.loads(again) == {**json.loads(first), "id": 2}
        assert gateway.dedup_hits == 1

    def test_pending_rid_bounces_as_duplicate_request(self):
        gateway = AdmissionGateway()
        client = GatewayClient(InProcessTransport(gateway))
        client.register("web", {"num_stages": NUM_STAGES, "max_batch": 8})
        gateway.handle_line(self._admit_doc(1, "r1"))  # queued, undecided
        (_, bounce), = gateway.handle_line(self._admit_doc(2, "r1"))
        doc = json.loads(bounce)
        assert doc["error"] == "duplicate-request"
        assert doc["id"] == 2
        # The bounce is not a final answer: after the batch decides,
        # the retry is served the real decision.
        gateway.drain()
        (_, decided), = gateway.handle_line(self._admit_doc(3, "r1"))
        assert json.loads(decided)["admitted"] is True

    def test_health_is_exempt_from_rid_tracking(self):
        gateway = AdmissionGateway()
        (_, a), = gateway.handle_line('{"id": 1, "rid": "h", "op": "health"}')
        (_, b), = gateway.handle_line('{"id": 2, "rid": "h", "op": "health"}')
        assert gateway.dedup_hits == 0
        assert json.loads(a)["id"] == 1 and json.loads(b)["id"] == 2

    def test_window_evicts_oldest_decision(self):
        gateway = AdmissionGateway(dedup_window=2)
        client = GatewayClient(InProcessTransport(gateway))
        client.register("web", POLICY)
        for n in range(3):
            gateway.handle_line(json.dumps(
                {"id": n, "rid": f"r{n}", "op": "expire",
                 "pipeline": "web", "now": 0.1 * n}))
        assert gateway.dedup_status("r0") == "unknown"  # evicted
        assert gateway.dedup_status("r1") == "decided"
        assert gateway.dedup_status("r2") == "decided"

    @pytest.mark.parametrize("rid", [17, "", "x" * 201])
    def test_invalid_rid_rejected(self, rid):
        gateway = AdmissionGateway()
        (_, line), = gateway.handle_line(
            json.dumps({"id": 1, "rid": rid, "op": "health"}))
        assert json.loads(line)["error"] == "bad-request"

    def test_non_finite_json_rejected(self):
        gateway = AdmissionGateway()
        (_, line), = gateway.handle_line(
            '{"id": 1, "op": "expire", "pipeline": "web", "now": Infinity}')
        doc = json.loads(line)
        assert doc["error"] == "bad-json"
        assert "non-finite" in doc["detail"]


class _FlakyTransport(InProcessTransport):
    """Fails the first ``failures`` submits with a timeout, then works."""

    def __init__(self, gateway, failures):
        super().__init__(gateway)
        self.remaining = failures

    def submit(self, line):
        if self.remaining > 0:
            self.remaining -= 1
            raise GatewayTimeout("injected timeout")
        return super().submit(line)


class TestRetryingClient:
    def _retrying(self, gateway, failures, **policy_kwargs):
        transport = _FlakyTransport(gateway, failures)
        rids = iter(f"rid-{n}" for n in range(100))
        return RetryingGatewayClient(
            connect=lambda: GatewayClient(transport),
            policy=RetryPolicy(base_delay=0.001, seed=0, **policy_kwargs),
            rid_factory=lambda: next(rids),
            sleep=lambda _delay: None,
        )

    def test_timeouts_are_retried_with_the_same_rid(self):
        gateway = AdmissionGateway()
        GatewayClient(InProcessTransport(gateway)).register("web", POLICY)
        client = self._retrying(gateway, failures=2)
        response = client.admit("web", _task(0, 0.0))
        assert response["admitted"] is True
        assert client.retries == 2
        assert client.reconnects == 2
        # Exactly-once despite the ambiguity: one admission recorded.
        stats = GatewayClient(InProcessTransport(gateway)).stats("web")
        assert stats["stats"]["web"]["counters"]["admitted"] == 1

    def test_budget_exhaustion_reraises_last_failure(self):
        gateway = AdmissionGateway()
        GatewayClient(InProcessTransport(gateway)).register("web", POLICY)
        client = self._retrying(gateway, failures=99, max_attempts=3)
        with pytest.raises(GatewayTimeout):
            client.admit("web", _task(0, 0.0))
        assert client.retries == 2  # 3 attempts = initial + 2 retries
        assert client.abandoned == 1

    def test_deadline_aware_abandonment(self):
        gateway = AdmissionGateway()
        GatewayClient(InProcessTransport(gateway)).register("web", POLICY)
        transport = _FlakyTransport(gateway, 99)
        clock = iter([0.0, 1.0, 2.0, 3.0, 4.0])
        client = RetryingGatewayClient(
            connect=lambda: GatewayClient(transport),
            policy=RetryPolicy(base_delay=0.001, max_attempts=50, seed=0),
            rid_factory=lambda: "r-deadline",
            clock=lambda: next(clock),
            sleep=lambda _delay: None,
        )
        with pytest.raises(GatewayTimeout):
            client.call("stats", deadline=1.5)
        assert client.abandoned == 1
        # Retries at t=0 and t=1 still fit; the attempt that would
        # start past t=1.5 is abandoned.
        assert client.retries == 2

    def test_final_error_answers_are_not_retried(self):
        gateway = AdmissionGateway()
        client = self._retrying(gateway, failures=0)
        with pytest.raises(GatewayError) as err:
            client.admit("ghost", _task(0, 0.0))
        assert err.value.code == "unknown-pipeline"
        assert client.retries == 0

    def test_duplicate_request_bounce_retries_until_decided(self):
        gateway = AdmissionGateway()
        setup = GatewayClient(InProcessTransport(gateway))
        setup.register("web", {"num_stages": NUM_STAGES, "max_batch": 8})
        # Queue the admit under the retry rid, so the retrying client's
        # own request bounces off the pending batch.
        gateway.handle_line(json.dumps({
            "id": 900, "rid": "rid-0", "op": "admit", "pipeline": "web",
            "task": task_to_wire(_task(0, 0.0)),
        }))
        transport = InProcessTransport(gateway)
        client = RetryingGatewayClient(
            connect=lambda: GatewayClient(transport),
            policy=RetryPolicy(base_delay=0.001, seed=0),
            rid_factory=lambda: "rid-0",
            # The batch decides while the client is backing off.
            sleep=lambda _delay: gateway.drain(),
        )
        response = client.admit("web", _task(0, 0.0))
        assert response["admitted"] is True
        assert client.retries >= 1
        assert client.reconnects == 0  # bounces do not drop the connection


class TestDrainingServer:
    def test_new_connections_rejected_while_draining(self):
        gateway = AdmissionGateway()
        with _TcpGatewayThread(gateway=gateway) as server:
            host, port = server.address
            established = GatewayClient(TcpTransport(host, port))
            try:
                established.register("web", POLICY)
                gateway.draining = True
                # A connection opened mid-drain gets a structured error
                # and an immediate close.
                raw = socket.create_connection((host, port), timeout=10)
                try:
                    line = raw.makefile("rb").readline()
                finally:
                    raw.close()
                doc = json.loads(line)
                assert doc["ok"] is False
                assert doc["error"] == "draining"
                # Established connections keep working for non-admit ops.
                assert established.call("health")["draining"] is True
            finally:
                established.close()


class TestTimeouts:
    def test_read_timeout_raises_gateway_timeout(self):
        with _TcpGatewayThread() as server:
            host, port = server.address
            transport = TcpTransport(
                host, port, connect_timeout=10.0, read_timeout=0.05
            )
            try:
                # No request submitted: the server has nothing to say.
                with pytest.raises(GatewayTimeout):
                    transport.readline()
            finally:
                transport.close()

    def test_connect_failure_is_a_transport_error(self):
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        _host, port = sink.getsockname()
        sink.close()  # nothing listens here anymore
        with pytest.raises(GatewayError) as err:
            TcpTransport("127.0.0.1", port, connect_timeout=0.5)
        assert err.value.code in ("transport", "timeout")


class TestWireFormat:
    def test_task_round_trip_is_lossless(self):
        task = _task(7, 1.25, cost=0.0123456789, deadline=0.75)
        from repro.serve.protocol import task_from_wire

        again = task_from_wire(json.loads(json.dumps(task_to_wire(task))))
        assert again.task_id == task.task_id
        assert again.arrival_time == task.arrival_time
        assert again.deadline == task.deadline
        assert again.computation_times == task.computation_times
        assert again.importance == task.importance

    def test_responses_are_canonical_json(self):
        gateway = AdmissionGateway()
        (_, line), = gateway.handle_line('{"id": 5, "op": "health"}')
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
