"""Crash recovery and the serve-layer crash/partition chaos harness.

Recovery rebuilds a gateway from its durable state directory: load the
compaction snapshot (if one exists), replay the journal suffix through
a fresh :class:`~repro.serve.gateway.AdmissionGateway`, audit every
recovered controller with the PR-2 invariant checks, and hand back a
:class:`~repro.serve.journal.DurableGateway` ready to serve.  Because
the core is deterministic and the journal is written *before* each
mutation, the recovered gateway is bitwise identical to the pre-crash
one — :func:`registry_fingerprint` makes that comparable as a single
canonical JSON string covering policies, clocks, counters, controller
snapshots, pending admission batches, and the idempotency window.

The chaos harness (:func:`run_crash_chaos`) drives a durable gateway
and an in-memory *shadow* gateway in lockstep through a seeded op
stream, injecting serve-layer faults:

``torn``
    ``kill -9`` mid-journal-write: a prefix of the record reaches
    disk.  The op was never acknowledged; recovery truncates the tail
    and the client's retry re-runs it.
``after_journal``
    Crash between the journal append and the in-memory mutation.  The
    op *is* durable — replay applies it — but the client never saw a
    response and retries; the dedup window serves the replayed
    decision instead of double-admitting.
``after_apply``
    Crash (or connection drop) after the mutation but before the
    response is delivered.  The retry is served from the dedup cache.
``stall``
    No crash: the response is delivered late enough that the client
    retries anyway, exercising live deduplication.

After every recovery the harness retries each unacknowledged request
id and asserts that the recovered gateway matches the shadow
fingerprint — zero lost admissions, zero duplicated admissions, and no
decision ever changing across a crash.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .gateway import DEFAULT_DEDUP_WINDOW, AdmissionGateway
from .journal import (
    DEFAULT_SNAPSHOT_EVERY,
    GATEWAY_SNAPSHOT_FORMAT,
    DurableGateway,
    Journal,
    scan_journal,
)
from .protocol import encode, task_to_wire
from .registry import ServedPipeline
from .snapshot import controller_snapshot, restore_controller, verify_restored

__all__ = [
    "SNAPSHOT_FILE",
    "JOURNAL_FILE",
    "CRASH_CHAOS_REPORT_FORMAT",
    "RecoveryError",
    "RecoveryReport",
    "restore_gateway_snapshot",
    "recover",
    "registry_fingerprint",
    "run_crash_chaos",
    "crash_chaos_gate_failures",
]

#: File names inside a gateway state directory.
SNAPSHOT_FILE = "snapshot.json"
JOURNAL_FILE = "journal.ndjson"

#: Version tag of the chaos-harness report document.
CRASH_CHAOS_REPORT_FORMAT = "repro.serve.crash-chaos-report/1"


class RecoveryError(ValueError):
    """Durable state that cannot be recovered into a clean gateway."""


@dataclass
class RecoveryReport:
    """What one recovery pass found and did.

    Attributes:
        snapshot_loaded: Whether a compaction snapshot was restored.
        snapshot_seq: Journal sequence the snapshot covered (0 if none).
        last_seq: Highest journal sequence after replay.
        replayed: Journal records applied.
        skipped: Records at or below ``snapshot_seq`` (a crash between
            snapshot write and journal reset leaves these behind).
        truncated_bytes: Torn-tail bytes removed from the journal.
        pipelines: Recovered pipeline names, sorted.
        region_values: Post-recovery region value per pipeline.
    """

    snapshot_loaded: bool = False
    snapshot_seq: int = 0
    last_seq: int = 0
    replayed: int = 0
    skipped: int = 0
    truncated_bytes: int = 0
    pipelines: List[str] = field(default_factory=list)
    region_values: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_seq": self.snapshot_seq,
            "last_seq": self.last_seq,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "truncated_bytes": self.truncated_bytes,
            "pipelines": list(self.pipelines),
            "region_values": dict(self.region_values),
        }


def restore_gateway_snapshot(
    gateway: AdmissionGateway, doc: Dict[str, Any]
) -> int:
    """Load a gateway-level snapshot document into a fresh gateway.

    Returns:
        The journal sequence number the snapshot covers.

    Raises:
        RecoveryError: On a wrong format tag or an unloadable pipeline.
    """
    if not isinstance(doc, dict) or doc.get("format") != GATEWAY_SNAPSHOT_FORMAT:
        raise RecoveryError(
            f"expected a {GATEWAY_SNAPSHOT_FORMAT!r} snapshot document, "
            f"got format {doc.get('format') if isinstance(doc, dict) else doc!r}"
        )
    try:
        for pipeline_doc in doc["pipelines"]:
            gateway.registry.adopt(ServedPipeline.from_snapshot(pipeline_doc))
        gateway.draining = bool(doc["draining"])
        gateway.errors = int(doc["errors"])
        gateway.op_counts = {
            key: int(value) for key, value in doc["op_counts"].items()
        }
        gateway.dedup_hits = int(doc["dedup_hits"])
        gateway.load_dedup_state(doc["dedup"])
        return int(doc["seq"])
    except RecoveryError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise RecoveryError(f"unloadable gateway snapshot: {exc}") from exc


def recover(
    state_dir: Union[str, Path],
    fsync: bool = False,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    dedup_window: int = DEFAULT_DEDUP_WINDOW,
) -> Tuple[DurableGateway, RecoveryReport]:
    """Rebuild a durable gateway from its state directory.

    An empty (or missing) directory recovers to a fresh gateway, so
    this is also the way to *open* durable state for the first time.
    Every recovered controller is audited — on a **copy**, because the
    auditor's expiry sweep mutates state and the recovered gateway must
    stay bitwise identical to the pre-crash one.

    Raises:
        RecoveryError: On an unloadable snapshot or a recovered
            controller that fails the invariant audit.
        JournalError: On mid-journal corruption or a sequence gap.
    """
    state_dir = Path(state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    snapshot_path = state_dir / SNAPSHOT_FILE
    journal_path = state_dir / JOURNAL_FILE

    gateway = AdmissionGateway(dedup_window=dedup_window)
    report = RecoveryReport()
    if snapshot_path.exists():
        with open(snapshot_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        report.snapshot_seq = restore_gateway_snapshot(gateway, doc)
        report.snapshot_loaded = True

    scan = scan_journal(journal_path)
    report.truncated_bytes = scan.truncated_bytes
    report.last_seq = report.snapshot_seq
    for record in scan.records:
        if record["seq"] <= report.snapshot_seq:
            # The snapshot already covers this record: the pre-crash
            # gateway checkpointed but died before resetting the
            # journal.  Replaying it would double-apply the op.
            report.skipped += 1
            continue
        op = record["op"]
        if op.get("synthetic") and op.get("op") == "drain":
            gateway.drain()
        else:
            gateway.handle_line(encode(op), origin=None)
        report.replayed += 1
        report.last_seq = record["seq"]

    for pipeline in gateway.registry:
        # Audit a restored copy: ControllerAuditor.audit runs an expiry
        # sweep, and mutating the live recovered controller would break
        # the bitwise-equivalence contract recovery exists to provide.
        audit_copy = restore_controller(controller_snapshot(pipeline.controller))
        check_at = pipeline.clock if pipeline.clock is not None else 0.0
        violations = verify_restored(audit_copy, check_at)
        if violations:
            raise RecoveryError(
                f"recovered pipeline {pipeline.name!r} failed audit: "
                + "; ".join(f"{v.kind}: {v.detail}" for v in violations)
            )
        report.pipelines.append(pipeline.name)
        report.region_values[pipeline.name] = pipeline.controller.region_value()
    report.pipelines.sort()

    journal = Journal(journal_path, fsync=fsync, next_seq=report.last_seq + 1)
    durable = DurableGateway(
        gateway,
        journal,
        snapshot_path,
        snapshot_every=snapshot_every,
        last_snapshot_seq=report.snapshot_seq,
    )
    # Replayed ops count toward the compaction period — otherwise a
    # gateway that crashes faster than ``snapshot_every`` fresh ops
    # arrive replays an ever-growing journal on every recovery.
    durable._ops_since_snapshot = report.replayed
    if durable._compaction_due():
        durable.compact()
    return durable, report


def registry_fingerprint(gateway: Union[AdmissionGateway, DurableGateway]) -> str:
    """Canonical JSON string of everything the durability contract covers.

    Includes per-pipeline policy, virtual clock, serving counters,
    controller snapshot, degradation-manager state (capacity estimator
    + sacrifice ledger), and the *pending* admission-batch queue, plus
    the gateway's drain flag and idempotency window.  Deliberately
    excludes ``op_counts``/``errors``/``dedup_hits`` — those are
    diagnostics (dedup hits, for one, are served without journaling).
    Two gateways with equal fingerprints make identical future
    decisions.
    """
    core = gateway.gateway if isinstance(gateway, DurableGateway) else gateway
    doc = {
        "draining": core.draining,
        "dedup": core.dedup_state(),
        "pipelines": [
            {
                "name": pipeline.name,
                "policy": pipeline.policy.to_dict(),
                "clock": pipeline.clock,
                "counters": pipeline.counters.to_dict(),
                "controller": controller_snapshot(pipeline.controller),
                "degradation": pipeline.degradation.fingerprint_doc(),
                "pending": [
                    task_to_wire(task) for task in pipeline.pending_tasks()
                ],
            }
            for pipeline in core.registry
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


# ----------------------------------------------------------------------
# Crash/partition chaos harness
# ----------------------------------------------------------------------

_CRASH_KINDS = ("torn", "after_journal", "after_apply")

_CHAOS_POLICIES: Dict[str, Dict[str, Any]] = {
    "batched": {"num_stages": 3, "alpha": 0.9, "max_batch": 3},
    "direct": {"num_stages": 2, "alpha": 1.0},
    # Online PCP blocking bounds: admits carry shared-resource
    # declarations and the controller derives beta_j from the admitted
    # set, so crash/replay must rebuild the blocking state bitwise too.
    "locked": {"num_stages": 2, "alpha": 0.9, "locking": True},
}

#: Resource ids the chaos op stream contends on (locking pipeline).
_CHAOS_RESOURCES = ("lock-a", "lock-b")


def run_crash_chaos(
    seed: int = 0,
    cycles: int = 24,
    ops_per_cycle: int = 12,
    state_dir: Optional[Union[str, Path]] = None,
    snapshot_every: int = 25,
    fsync: bool = False,
    dedup_window: int = DEFAULT_DEDUP_WINDOW,
) -> Dict[str, Any]:
    """Crash/recover a durable gateway ``cycles`` times; prove equivalence.

    Every cycle ends in an injected crash (``torn`` / ``after_journal``
    / ``after_apply``, chosen by the seeded RNG) followed by recovery,
    outstanding-request retries, and a fingerprint comparison against a
    shadow gateway that never crashed.  Slow-response stalls inject
    redundant retries mid-cycle.  The returned report is byte-stable
    for a given parameter set (no wall-clock, no paths).

    Args:
        seed: RNG seed driving the op stream and fault choices.
        cycles: Crash/recover cycles to run.
        ops_per_cycle: Ops generated per cycle (the crash lands on one).
        state_dir: Durable state directory; a private temporary
            directory (removed afterwards) if ``None``.
        snapshot_every: Compaction period of the durable gateway.
        fsync: Run the journal with per-record fsync.
        dedup_window: Idempotency window size for both gateways.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    if ops_per_cycle < 2:
        raise ValueError(f"ops_per_cycle must be >= 2, got {ops_per_cycle}")
    owns_dir = state_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-serve-chaos-") if owns_dir else state_dir)
    try:
        return _run_crash_chaos(
            rng=random.Random(seed),
            seed=seed,
            cycles=cycles,
            ops_per_cycle=ops_per_cycle,
            root=root,
            snapshot_every=snapshot_every,
            fsync=fsync,
            dedup_window=dedup_window,
        )
    finally:
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)


def _run_crash_chaos(
    rng: random.Random,
    seed: int,
    cycles: int,
    ops_per_cycle: int,
    root: Path,
    snapshot_every: int,
    fsync: bool,
    dedup_window: int,
) -> Dict[str, Any]:
    durable, _ = recover(
        root, fsync=fsync, snapshot_every=snapshot_every, dedup_window=dedup_window
    )
    shadow = AdmissionGateway(dedup_window=dedup_window)

    next_id = 0
    next_task_id = 0
    now = 0.0
    id_to_rid: Dict[int, str] = {}
    unacked: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    ledger: Dict[str, Any] = {}
    crash_counts = {kind: 0 for kind in _CRASH_KINDS}
    crashes_with_pending = 0
    stall_retries = 0
    contended_admits = 0
    response_mismatches = 0
    decision_mismatches = 0
    fingerprint_matches = 0
    fingerprint_mismatches = 0
    ops_issued = 0
    recoveries: List[RecoveryReport] = []

    def fresh_id() -> int:
        nonlocal next_id
        next_id += 1
        return next_id

    def ack(response: Dict[str, Any]) -> None:
        nonlocal decision_mismatches
        rid = id_to_rid.get(response.get("id"))
        if rid is None:
            return
        if response.get("error") == "duplicate-request":
            # "Still queued, retry later" — not a final answer.
            return
        unacked.pop(rid, None)
        decision = response.get("admitted")
        if rid in ledger:
            if ledger[rid] != decision:
                decision_mismatches += 1
        else:
            ledger[rid] = decision

    def apply(doc: Dict[str, Any]) -> None:
        nonlocal response_mismatches
        line = encode(doc)
        got = [response for _, response in durable.handle_line(line)]
        want = [response for _, response in shadow.handle_line(line)]
        if got != want:
            response_mismatches += 1
        for response in got:
            ack(json.loads(response))

    def issue(doc: Dict[str, Any]) -> None:
        id_to_rid[doc["id"]] = doc["rid"]
        if doc["rid"] not in ledger:
            unacked[doc["rid"]] = doc

    def retry(doc: Dict[str, Any]) -> None:
        again = dict(doc)
        again["id"] = fresh_id()
        id_to_rid[again["id"]] = doc["rid"]
        apply(again)

    def gen_op() -> Dict[str, Any]:
        nonlocal now, next_task_id, ops_issued, contended_admits
        ops_issued += 1
        now += rng.uniform(0.05, 0.3)
        request_id = fresh_id()
        name = rng.choice(sorted(_CHAOS_POLICIES))
        stages = _CHAOS_POLICIES[name]["num_stages"]
        doc: Dict[str, Any] = {
            "id": request_id,
            "rid": f"r{request_id}",
            "pipeline": name,
        }
        roll = rng.random()
        if roll < 0.60:
            next_task_id += 1
            doc["op"] = "admit"
            doc["task"] = {
                "task_id": next_task_id,
                "arrival": now,
                "deadline": now + rng.uniform(0.8, 2.5),
                "costs": [rng.uniform(0.02, 0.15) for _ in range(stages)],
            }
            if _CHAOS_POLICIES[name].get("locking") and rng.random() < 0.7:
                # Contention workload: most admits on the locking
                # pipeline declare critical sections on a tiny shared
                # pool, so B_ij/beta_j churn on every admit/expire and
                # recovery has real blocking state to rebuild.
                contended_admits += 1
                picks = rng.sample(
                    [(s, r) for s in range(stages) for r in _CHAOS_RESOURCES],
                    rng.randrange(1, 3),
                )
                doc["task"]["resources"] = [
                    {
                        "stage": stage,
                        "resource": resource,
                        "max_length": rng.uniform(0.0, 0.08),
                    }
                    for stage, resource in sorted(picks)
                ]
        elif roll < 0.72:
            doc["op"] = "depart"
            doc["task_id"] = rng.randrange(1, max(2, next_task_id + 1))
            doc["stage"] = rng.randrange(stages)
        elif roll < 0.82:
            doc["op"] = "expire"
            doc["now"] = now
        elif roll < 0.88:
            doc["op"] = "idle"
            doc["stage"] = rng.randrange(stages)
        elif roll < 0.94:
            doc["op"] = "capacity"
            doc["stage"] = rng.randrange(stages)
            doc["capacity"] = rng.uniform(0.6, 1.0)
        else:
            doc["op"] = "stats"
        return doc

    def settle_outstanding() -> None:
        """Client retry protocol after a recovery: retry everything
        unacknowledged; if retries bounce off a still-pending batch,
        force a flush with a drain request and retry once more."""
        for doc in list(unacked.values()):
            retry(doc)
        if unacked:
            drain_id = fresh_id()
            drain_doc = {"id": drain_id, "op": "drain", "rid": f"r{drain_id}"}
            issue(drain_doc)
            apply(drain_doc)
            for doc in list(unacked.values()):
                retry(doc)

    def crash_and_recover() -> None:
        nonlocal durable, fingerprint_matches, fingerprint_mismatches
        durable.close()
        durable, report = recover(
            root,
            fsync=fsync,
            snapshot_every=snapshot_every,
            dedup_window=dedup_window,
        )
        recoveries.append(report)
        if registry_fingerprint(durable) == registry_fingerprint(shadow):
            fingerprint_matches += 1
        else:
            fingerprint_mismatches += 1
        settle_outstanding()

    for name in sorted(_CHAOS_POLICIES):
        register_id = fresh_id()
        register_doc = {
            "id": register_id,
            "rid": f"r{register_id}",
            "op": "register",
            "pipeline": name,
            "policy": dict(_CHAOS_POLICIES[name]),
        }
        issue(register_doc)
        apply(register_doc)

    for _cycle in range(cycles):
        kind = _CRASH_KINDS[rng.randrange(len(_CRASH_KINDS))]
        crash_at = rng.randrange(1, ops_per_cycle)
        for index in range(ops_per_cycle):
            doc = gen_op()
            issue(doc)
            if index == crash_at:
                if kind == "torn":
                    # kill -9 mid-write: a prefix of the record lands on
                    # disk; neither gateway applied the op.
                    durable.journal.append_torn(doc, keep=rng.uniform(0.1, 0.9))
                elif kind == "after_journal":
                    # Crash between WAL append and the mutation: the op
                    # is durable (replay applies it), the response is
                    # lost.  The shadow applies it now to stay in step.
                    durable.journal.append(doc)
                    shadow.handle_line(encode(doc))
                else:  # after_apply — connection drop mid-response
                    line = encode(doc)
                    got = [response for _, response in durable.handle_line(line)]
                    want = [response for _, response in shadow.handle_line(line)]
                    if got != want:
                        response_mismatches += 1
                crash_counts[kind] += 1
                if any(p.pending for p in shadow.registry):
                    crashes_with_pending += 1
                crash_and_recover()
                break
            apply(doc)
            if rng.random() < 0.2:
                # Slow-write / slow-response stall: the answer arrives
                # so late the client has already retried.
                stall_retries += 1
                retry(doc)

    final_drain_id = fresh_id()
    final_drain = {"id": final_drain_id, "op": "drain", "rid": f"r{final_drain_id}"}
    issue(final_drain)
    apply(final_drain)
    for doc in list(unacked.values()):
        retry(doc)

    final_identical = registry_fingerprint(durable) == registry_fingerprint(shadow)
    acked_admitted = sum(1 for decision in ledger.values() if decision is True)
    counted_admitted = sum(
        pipeline.counters.admitted for pipeline in durable.gateway.registry
    )
    shadow_admitted = sum(
        pipeline.counters.admitted for pipeline in shadow.registry
    )
    durable.close()

    return {
        "format": CRASH_CHAOS_REPORT_FORMAT,
        "seed": seed,
        "cycles": cycles,
        "ops_per_cycle": ops_per_cycle,
        "snapshot_every": snapshot_every,
        "fsync": fsync,
        "ops_issued": ops_issued,
        "crashes": {**crash_counts, "total": sum(crash_counts.values())},
        "crashes_with_pending_batch": crashes_with_pending,
        "stall_retries": stall_retries,
        "contended_admits": contended_admits,
        "recoveries": {
            "count": len(recoveries),
            "snapshot_loads": sum(1 for r in recoveries if r.snapshot_loaded),
            "replayed": sum(r.replayed for r in recoveries),
            "skipped": sum(r.skipped for r in recoveries),
            "truncated_bytes": sum(r.truncated_bytes for r in recoveries),
        },
        "dedup_hits": {
            "durable": durable.gateway.dedup_hits,
            "shadow": shadow.dedup_hits,
        },
        "admissions": {
            "acked_admitted": acked_admitted,
            "counted_admitted": counted_admitted,
            "shadow_admitted": shadow_admitted,
            "lost": max(0, acked_admitted - counted_admitted),
            "duplicated": max(0, counted_admitted - acked_admitted),
            "decision_mismatches": decision_mismatches,
            "response_mismatches": response_mismatches,
            "unresolved": len(unacked),
        },
        "equivalence": {
            "fingerprint_matches": fingerprint_matches,
            "fingerprint_mismatches": fingerprint_mismatches,
            "final_identical": final_identical,
        },
        "region_values": {
            pipeline.name: pipeline.controller.region_value()
            for pipeline in durable.gateway.registry
        },
    }


def crash_chaos_gate_failures(
    report: Dict[str, Any], min_recoveries: int = 20
) -> List[str]:
    """Check a chaos report against the durability acceptance gates."""
    failures: List[str] = []
    admissions = report["admissions"]
    if admissions["lost"]:
        failures.append(f"{admissions['lost']} acked admissions lost to crashes")
    if admissions["duplicated"]:
        failures.append(f"{admissions['duplicated']} admissions double-counted")
    if admissions["decision_mismatches"]:
        failures.append(
            f"{admissions['decision_mismatches']} retries changed their decision"
        )
    if admissions["response_mismatches"]:
        failures.append(
            f"{admissions['response_mismatches']} durable/shadow response divergences"
        )
    if admissions["unresolved"]:
        failures.append(
            f"{admissions['unresolved']} requests never acknowledged"
        )
    equivalence = report["equivalence"]
    if equivalence["fingerprint_mismatches"]:
        failures.append(
            f"{equivalence['fingerprint_mismatches']} post-recovery fingerprint "
            "mismatches"
        )
    if not equivalence["final_identical"]:
        failures.append("final durable/shadow fingerprints differ")
    if report["recoveries"]["count"] < min_recoveries:
        failures.append(
            f"only {report['recoveries']['count']} crash/recover cycles ran "
            f"(need >= {min_recoveries})"
        )
    for kind in _CRASH_KINDS:
        if report["crashes"][kind] == 0:
            failures.append(f"crash kind {kind!r} was never exercised")
    if report["crashes_with_pending_batch"] == 0:
        failures.append("no crash landed while an admission batch was pending")
    if report["recoveries"]["snapshot_loads"] == 0:
        failures.append("no recovery ever loaded a compaction snapshot")
    if report["stall_retries"] == 0:
        failures.append("no slow-response stall retries were injected")
    if report.get("contended_admits", 0) == 0:
        failures.append(
            "no resource-bearing admissions exercised the locking pipeline"
        )
    return failures
