"""Differential suite for the batched ``admit_many`` loop.

The batch loop (:meth:`PipelineAdmissionController._admit_many_fast`)
hoists every batch-invariant read — the region budget (per arrival
only when it declares critical sections on a locking controller),
tracker values, the per-stage ``f(min(U_j, 1))`` cache — out of the
per-task iteration, and inlines ``approx_ge`` / ``stage_delay_factor``
/ ``approx_le`` into one pass per candidate.  The guarantee it must
uphold (DESIGN.md §16): decisions, reported region values, and the
final controller state are *bitwise identical* to deciding the same
sequence one :meth:`request` call at a time, and to the per-task
oracle loop :func:`tests.oracles.admit_many_scalar`.

This suite replays seeded op streams — bursts sharing a timestamp,
interleaved expiry, zero-cost stages, capacity rescales, locking
controllers — through all three and asserts equality decision for
decision, plus ``registry_fingerprint`` equality for whole gateways
whose only difference is the batch loop being swapped for the oracle.
"""

import dataclasses
import json
import math
import random

import pytest

from repro.core.admission import (
    MeanDemand,
    PipelineAdmissionController,
    ScaledDemand,
)
from repro.core.task import make_task
from repro.locking import ResourceSpec
from repro.serve.gateway import AdmissionGateway
from repro.serve.loadgen import build_contention_trace
from repro.serve.protocol import encode, task_to_wire
from repro.serve.recovery import registry_fingerprint
from tests.oracles import admit_many_scalar

NUM_STAGES = 3
BATCH_SIZES = [1, 2, 32, 257]


def _mixed_trace(seed, count, num_stages=NUM_STAGES, locking=False):
    """Seeded arrivals with bursts, tight deadlines, and zero-cost stages.

    Roughly a third of arrivals share the previous timestamp (a burst),
    deadlines span lapsing-within-the-trace to outliving it, and some
    stage costs are exactly 0.0 — the branchy cases the fast path must
    not cut corners on.  With ``locking`` every third task declares a
    critical section so ``beta_j`` moves with the admitted set.
    """
    rng = random.Random(seed)
    t = 0.0
    tasks = []
    for k in range(count):
        if rng.random() > 0.3:
            t = round(t + rng.expovariate(6.0), 9)
        deadline = rng.choice([0.05, 0.2, 1.0, 3.0]) * rng.uniform(0.5, 1.5)
        costs = [
            rng.expovariate(1.0 / 0.05) if rng.random() > 0.25 else 0.0
            for _ in range(num_stages)
        ]
        resources = ()
        if locking and k % 3 == 0:
            resources = (
                ResourceSpec(
                    stage=rng.randrange(num_stages),
                    resource=rng.choice(["db", "cache"]),
                    max_length=rng.uniform(0.0005, 0.01),
                ),
            )
        tasks.append(
            make_task(
                arrival_time=t,
                deadline=deadline,
                computation_times=costs,
                importance=rng.randrange(3),
                resources=resources,
                task_id=k,
            )
        )
    return tasks


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _assert_state_equal(a, b):
    assert a.utilizations() == b.utilizations()
    assert a.region_value() == b.region_value()
    assert a.admitted_snapshot() == b.admitted_snapshot()
    assert a.budget == b.budget
    assert a.betas == b.betas


def _assert_decisions_equal(batched, sequential):
    assert len(batched) == len(sequential)
    for got, want in zip(batched, sequential):
        assert got.admitted == want.admitted
        # Bitwise, not approximate: the fast path replays the exact
        # float expression order of the scalar path.
        assert got.region_value == want.region_value
        assert got.shed == want.shed
        assert got.duplicate == want.duplicate


def _force_oracle(monkeypatch):
    """Swap the batch loop for the per-task oracle loop."""
    monkeypatch.setattr(
        PipelineAdmissionController,
        "_admit_many_fast",
        lambda self, tasks, times: admit_many_scalar(self, tasks, times),
    )


def _run_differential(tasks, batch_size, make_controller, rescales=()):
    """request() loop vs chunked admit_many vs chunked oracle loop.

    ``rescales`` is a list of ``(after_index, stage, capacity)``
    triples applied to every controller at the same trace position
    (aligned to a batch boundary for the batched twins).
    """
    reference = make_controller()
    batched = make_controller()
    oracle = make_controller()
    rescale_at = {after: (stage, cap) for after, stage, cap in rescales}

    sequential = []
    for k, task in enumerate(tasks):
        sequential.append(reference.request(task, task.arrival_time))
        if k + 1 in rescale_at:
            stage, cap = rescale_at[k + 1]
            reference.rescale_stage_capacity(stage, cap)

    decisions = []
    oracle_decisions = []
    done = 0
    for chunk in _chunks(tasks, batch_size):
        decisions.extend(batched.admit_many(chunk))
        oracle_decisions.extend(admit_many_scalar(oracle, chunk))
        done += len(chunk)
        if done in rescale_at:
            stage, cap = rescale_at[done]
            batched.rescale_stage_capacity(stage, cap)
            oracle.rescale_stage_capacity(stage, cap)

    _assert_decisions_equal(decisions, sequential)
    _assert_decisions_equal(oracle_decisions, sequential)
    _assert_state_equal(reference, batched)
    _assert_state_equal(reference, oracle)
    return reference, batched


class TestScalarOracle:
    """admit_many == one request() per task, bitwise, for every shape."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_plain_controller(self, seed, batch_size):
        tasks = _mixed_trace(seed, 400)
        _run_differential(tasks, batch_size, lambda: PipelineAdmissionController(NUM_STAGES))

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_alpha_and_static_betas(self, batch_size):
        tasks = _mixed_trace(13, 300)
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(
                NUM_STAGES, alpha=0.8, betas=[0.05, 0.0, 0.1]
            ),
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize(
        "model",
        [
            lambda: ScaledDemand(1.3),
            lambda: MeanDemand([0.04] * NUM_STAGES),
        ],
    )
    def test_non_exact_demand_models(self, model, batch_size):
        tasks = _mixed_trace(29, 300)
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(NUM_STAGES, demand_model=model()),
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_reserved_utilization(self, batch_size):
        tasks = _mixed_trace(43, 300)
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(
                NUM_STAGES, reserved=[0.2, 0.0, 0.1]
            ),
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_degradation_rescaled_mid_stream(self, batch_size):
        """Capacity rescales between flushes re-derive the hoisted row."""
        tasks = _mixed_trace(57, 514)
        # The rescale must land on a chunk boundary so both twins apply
        # it at the same trace position.
        boundary = -(-128 // batch_size) * batch_size
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(NUM_STAGES),
            rescales=[(boundary, 1, 0.5), (2 * boundary, 1, 0.9)],
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_locking_controller_takes_scalar_path(self, batch_size):
        """Locking runs the batch loop with per-arrival previewed
        budgets — equal to request() and to the oracle loop."""
        tasks = _mixed_trace(71, 300, locking=True)
        reference, batched = _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(NUM_STAGES, locking=True),
        )
        assert reference.betas is not None

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_locking_contention_with_rescales(self, batch_size):
        """The contention trace (~60% critical sections on a two-lock
        pool) through degraded capacities on a locking controller."""
        tasks, _span, _horizon = build_contention_trace(5, 600)
        boundary = -(-150 // batch_size) * batch_size
        reference, _ = _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(2, alpha=0.9, locking=True),
            rescales=[(boundary, 0, 0.6), (2 * boundary, 0, 1.0)],
        )
        assert any(reference.betas)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("locking", [False, True])
    def test_in_flight_ids_are_duplicates(self, batch_size, locking):
        """Re-offered ids: in flight -> duplicate (nothing changes),
        lapsed at or before the decision -> decided afresh."""
        base = _mixed_trace(83, 240, locking=locking)
        rng = random.Random(83)
        tasks = []
        for task in base:
            if tasks and rng.random() < 0.3:
                task = dataclasses.replace(
                    task, task_id=rng.choice(tasks).task_id
                )
            tasks.append(task)
        _run_differential(
            tasks,
            batch_size,
            lambda: PipelineAdmissionController(NUM_STAGES, locking=locking),
        )
        fresh = PipelineAdmissionController(NUM_STAGES, locking=locking)
        seen = set()
        duplicates = readmitted = 0
        for task in tasks:
            decision = fresh.request(task, task.arrival_time)
            duplicates += decision.duplicate
            readmitted += decision.admitted and task.task_id in seen
            seen.add(task.task_id)
        assert duplicates and readmitted

    def test_saturating_burst_shares_reject_region_value(self):
        """Consecutive rejections at an unchanged region report the same
        region value the scalar loop would recompute."""
        heavy = [
            make_task(
                arrival_time=1.0,
                deadline=0.4,
                computation_times=[0.3] * NUM_STAGES,
                task_id=k,
            )
            for k in range(64)
        ]
        _run_differential(heavy, 32, lambda: PipelineAdmissionController(NUM_STAGES))

    def test_underflowed_capacity_product_raises_like_scalar(self):
        """``capacity * deadline`` underflowing to 0.0 raises the same
        ZeroDivisionError from the same expression on both paths."""
        tiny = 5e-324
        controller = PipelineAdmissionController(NUM_STAGES)
        controller.set_stage_capacity(1, tiny)
        task = make_task(
            arrival_time=0.0,
            deadline=tiny,
            computation_times=[0.0] * NUM_STAGES,
            task_id=0,
        )
        with pytest.raises(ZeroDivisionError):
            controller.request(task, 0.0)
        batched = PipelineAdmissionController(NUM_STAGES)
        batched.set_stage_capacity(1, tiny)
        with pytest.raises(ZeroDivisionError):
            batched.admit_many([task])


class TestProbeCache:
    """would_admit probes leave request() decisions untouched."""

    def test_probe_does_not_perturb_decisions(self):
        """Bitwise pin: interleaving probes changes nothing."""
        tasks = _mixed_trace(11, 200, locking=True)
        plain = PipelineAdmissionController(NUM_STAGES, locking=True)
        probed = PipelineAdmissionController(NUM_STAGES, locking=True)
        for task in tasks:
            want = plain.request(task, task.arrival_time)
            probe = probed.would_admit(task, task.arrival_time)
            got = probed.request(task, task.arrival_time)
            assert probe == got.admitted == want.admitted
            assert got.region_value == want.region_value
        _assert_state_equal(plain, probed)

    def test_probe_cache_invalidated_by_capacity_change(self):
        """A rescale between probe and request must re-derive."""
        controller = PipelineAdmissionController(NUM_STAGES)
        task = make_task(
            arrival_time=0.0,
            deadline=1.0,
            computation_times=[0.2] * NUM_STAGES,
            task_id=0,
        )
        assert controller.would_admit(task, 0.0)
        controller.set_stage_capacity(0, 0.25)
        # 0.2 / (0.25 * 1.0) = 0.8 -> f(0.8) = 2.4 > 1: must be refused.
        assert not controller.request(task, 0.0).admitted

    def test_probe_cache_invalidated_by_admissions(self):
        """The epoch only covers blocking/capacity state; installs are
        covered by identity — a *different* task re-derives."""
        controller = PipelineAdmissionController(NUM_STAGES, locking=True)
        tasks = _mixed_trace(17, 20, locking=True)
        reference = PipelineAdmissionController(NUM_STAGES, locking=True)
        for task in tasks:
            controller.would_admit(task, task.arrival_time)
        for task in tasks:
            got = controller.request(task, task.arrival_time)
            want = reference.request(task, task.arrival_time)
            assert (got.admitted, got.region_value) == (
                want.admitted,
                want.region_value,
            )


class TestGatewayFingerprint:
    """Whole-gateway differential: fast path vs forcibly-scalar path."""

    @staticmethod
    def _drive(gateway, tasks, batch):
        lines = []
        lines.append(
            encode(
                {
                    "op": "register",
                    "pipeline": "web",
                    "policy": {"num_stages": NUM_STAGES, "max_batch": batch},
                    "id": 0,
                }
            )
        )
        for k, task in enumerate(tasks):
            lines.append(
                encode(
                    {
                        "op": "admit",
                        "pipeline": "web",
                        "task": task_to_wire(task),
                        "id": k + 1,
                    }
                )
            )
        responses = []
        for line in lines:
            responses.extend(resp for _origin, resp in gateway.handle_line(line))
        responses.extend(resp for _origin, resp in gateway.drain())
        return responses

    @pytest.mark.parametrize("batch", [1, 2, 32])
    def test_fingerprint_and_bytes_equal_forced_scalar(self, monkeypatch, batch):
        tasks = _mixed_trace(3, 300)
        fast = AdmissionGateway()
        fast_responses = self._drive(fast, tasks, batch)

        _force_oracle(monkeypatch)
        scalar = AdmissionGateway()
        scalar_responses = self._drive(scalar, tasks, batch)

        assert fast_responses == scalar_responses
        assert registry_fingerprint(fast) == registry_fingerprint(scalar)

    def test_fingerprint_equal_with_rescale_mid_stream(self, monkeypatch):
        """A set_capacity barrier between flushes keeps the twins equal."""
        tasks = _mixed_trace(23, 200)
        rescale = encode(
            {
                "op": "set_capacity",
                "pipeline": "web",
                "stage": 1,
                "capacity": 0.6,
                "id": 9999,
            }
        )

        def drive(gateway):
            responses = self._drive(gateway, tasks[:100], 32)
            responses.extend(resp for _o, resp in gateway.handle_line(rescale))
            for k, task in enumerate(tasks[100:]):
                line = encode(
                    {
                        "op": "admit",
                        "pipeline": "web",
                        "task": task_to_wire(task),
                        "id": 10000 + k,
                    }
                )
                responses.extend(resp for _o, resp in gateway.handle_line(line))
            responses.extend(resp for _o, resp in gateway.drain())
            return responses

        fast = AdmissionGateway()
        fast_responses = drive(fast)
        _force_oracle(monkeypatch)
        scalar = AdmissionGateway()
        scalar_responses = drive(scalar)
        assert fast_responses == scalar_responses
        assert registry_fingerprint(fast) == registry_fingerprint(scalar)

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    def test_locking_contention_equal_forced_oracle(self, monkeypatch, batch):
        """A locking contention pipeline, with a set_capacity rescale
        deep enough to make repair_region sacrifice admitted tasks."""
        tasks, _span, _horizon = build_contention_trace(9, 500)

        def admit(task, request_id):
            return encode(
                {
                    "op": "admit",
                    "pipeline": "lock",
                    "task": task_to_wire(task),
                    "id": request_id,
                }
            )

        def set_capacity(capacity, request_id):
            return encode(
                {
                    "op": "set_capacity",
                    "pipeline": "lock",
                    "stage": 0,
                    "capacity": capacity,
                    "id": request_id,
                }
            )

        lines = [
            encode(
                {
                    "op": "register",
                    "pipeline": "lock",
                    "policy": {
                        "num_stages": 2,
                        "alpha": 0.9,
                        "locking": True,
                        "max_batch": batch,
                    },
                    "id": 0,
                }
            )
        ]
        lines.extend(admit(task, k + 1) for k, task in enumerate(tasks[:250]))
        lines.append(set_capacity(0.2, 9000))
        lines.extend(admit(task, k + 251) for k, task in enumerate(tasks[250:]))
        lines.append(set_capacity(1.0, 9001))

        def drive(gateway):
            responses = []
            for line in lines:
                responses.extend(resp for _o, resp in gateway.handle_line(line))
            responses.extend(resp for _o, resp in gateway.drain())
            return responses

        fast = AdmissionGateway()
        fast_responses = drive(fast)
        _force_oracle(monkeypatch)
        oracle = AdmissionGateway()
        oracle_responses = drive(oracle)
        assert fast_responses == oracle_responses
        assert registry_fingerprint(fast) == registry_fingerprint(oracle)
        rescale = next(r for r in fast_responses if '"id":9000' in r)
        assert json.loads(rescale)["sacrificed"]

    def test_locking_pipeline_fingerprint_stable(self):
        """Two batched locking gateways fed the same arrivals
        fingerprint equal (the batch loop is deterministic)."""
        tasks = _mixed_trace(31, 150, locking=True)

        def drive(gateway, batch):
            lines = [
                encode(
                    {
                        "op": "register",
                        "pipeline": "web",
                        "policy": {
                            "num_stages": NUM_STAGES,
                            "locking": True,
                            "max_batch": batch,
                        },
                        "id": 0,
                    }
                )
            ]
            lines.extend(
                encode(
                    {
                        "op": "admit",
                        "pipeline": "web",
                        "task": task_to_wire(task),
                        "id": k + 1,
                    }
                )
                for k, task in enumerate(tasks)
            )
            responses = []
            for line in lines:
                responses.extend(resp for _o, resp in gateway.handle_line(line))
            responses.extend(resp for _o, resp in gateway.drain())
            return responses

        a = AdmissionGateway()
        b = AdmissionGateway()
        responses_a = drive(a, 32)
        responses_b = drive(b, 32)
        assert responses_a == responses_b
        assert registry_fingerprint(a) == registry_fingerprint(b)
