"""Shadow-lockstep chaos driver: crash, degradation and fleet profiles.

The serve layer's durability claim is that a crash never loses an
acknowledged admission, never duplicates one, and never changes a
decision: a recovered gateway is bitwise identical to one that never
crashed.  This module is the executable proof.  One driver runs a
*target* :class:`~repro.serve.fleet.FleetSupervisor` and a never-killed
*shadow* through the same seeded request stream in lockstep, injects
crashes into the target, and diffs the two line for line and
fingerprint for fingerprint.  It has three parts:

**Ledger.**  The client side: request ids and their idempotency
``rid``s, the unacknowledged set, the first decision seen per ``rid``
(a retry that changes it is a mismatch), the retry protocol that
settles everything outstanding after a recovery, and the report blocks
every profile shares (``recoveries``, ``admissions``, ``equivalence``).

**Target.**  A fleet of :class:`~repro.serve.fleet.InProcessWorker` s
with their own state directories, next to its shadow.  For the
one-worker profiles the shadow is a plain in-memory
:class:`~repro.serve.gateway.AdmissionGateway` -- no journal, no
recovery, no shard wrapper -- so the comparison is a differential check
of the whole durable stack against plain gateway semantics.  The fleet
profile's shadow is a never-killed second fleet, because migration and
wrong-shard bounces have no plain-gateway counterpart.  Crashes go
through :meth:`~repro.serve.fleet.InProcessWorker.kill` only:

``torn``
    ``kill -9`` mid-journal-write: a prefix of the record reaches
    disk.  The op was never acknowledged; recovery truncates the tail
    and the client's retry re-runs it.
``after_journal``
    Crash between the journal append and the in-memory mutation.  The
    op *is* durable -- replay applies it -- but the client never saw a
    response and retries; the dedup window serves the replayed
    decision instead of double-admitting.
``after_apply``
    Crash after the mutation but before the response is delivered.
    The retry is served from the dedup cache.

After every restart the recovered worker's ``registry_fingerprint``
is compared with its shadow and every unacknowledged request is
retried.

**Profile.**  What one gate adds on top: its pipelines, its op mix,
its per-cycle faults, its extra report fields and its coverage checks.

``crash``
    One worker, one crash per cycle at a seeded op and of a seeded
    kind, plus slow-response stalls that make the client retry early.
``degradation``
    One worker under capacity waves: an explicit ``set_capacity`` drop
    (every fourth cycle a full outage) and restore per cycle, a
    ``report`` burst that must pass hysteresis every other cycle, a
    crash per cycle rotating over the kinds, and a v3 -> v4 snapshot
    upgrade halfway.  After every op the Eq. 12/15 region test is
    re-run on each live admitted set; it must never fail.
``fleet``
    N shards under a :class:`~repro.faults.schedule.NetworkFaultSchedule`
    per cycle: one worker kill (every kind x every worker x both
    detection paths over ``3 * workers`` cycles), a torn frame, a
    partial write, a slow-client stall and a connection storm, plus a
    live migration halfway whose stale route must bounce and
    re-resolve.

Every report is byte-stable for a given parameter set (no wall clock,
no paths); :func:`chaos_gate_failures` turns one into a pass/fail gate.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..faults.schedule import (
    ConnectionStorm,
    NetworkFaultSchedule,
    PartialWrite,
    SlowClientStall,
    TornFrame,
    WorkerKill,
    WORKER_KILL_DETECTIONS,
    WORKER_KILL_KINDS,
)
from .fleet import DEFAULT_MISS_THRESHOLD, WORKER_UNAVAILABLE, FleetSupervisor
from .gateway import DEFAULT_DEDUP_WINDOW, AdmissionGateway
from .protocol import encode
from .recovery import registry_fingerprint
from .registry import ServedPipeline
from .router import ShardMap
from .snapshot import SNAPSHOT_FORMAT_V3

__all__ = [
    "CHAOS_MIN_RECOVERIES",
    "CHAOS_PROFILES",
    "CRASH_CHAOS_REPORT_FORMAT",
    "DEGRADATION_CHAOS_REPORT_FORMAT",
    "FLEET_CHAOS_REPORT_FORMAT",
    "run_chaos",
    "chaos_gate_failures",
]

#: Version tags of the three report documents.
CRASH_CHAOS_REPORT_FORMAT = "repro.serve.crash-chaos-report/1"
DEGRADATION_CHAOS_REPORT_FORMAT = "repro.serve.degradation-chaos-report/1"
FLEET_CHAOS_REPORT_FORMAT = "repro.serve.fleet-chaos-report/1"

@dataclass(frozen=True)
class _OpMix:
    """The shape of a profile's background op stream.

    Attributes:
        cuts: Cumulative roll thresholds for admit, depart, expire and
            idle; a roll above the last goes to the profile's tail op.
        deadline / costs: Uniform ranges of a task's relative deadline
            and per-stage cost.
        importance: Draw an importance level (0-2) for every task.
        resources: Resource ids a locking pipeline's tasks contend on.
        contended: Probability that such a task declares sections.
        max_length: Upper bound of a declared section's length.
    """

    cuts: Tuple[float, float, float, float]
    deadline: Tuple[float, float]
    costs: Tuple[float, float]
    importance: bool
    resources: Tuple[str, str]
    contended: float
    max_length: float


Doc = Dict[str, Any]
#: A profile's last-resort op: fills in ``doc`` given the roll and the
#: pipeline's stage count.
Tail = Callable[[Doc, float, int], None]
#: A run's shadow: a plain gateway (one-worker profiles) or a fleet.
Side = Union[AdmissionGateway, FleetSupervisor]


class _Lockstep:
    """The ledger and the target/shadow pair of one chaos run."""

    def __init__(
        self,
        rng: random.Random,
        root: Path,
        snapshot_every: int,
        fsync: bool,
        dedup_window: int,
    ) -> None:
        self.rng = rng
        self.root = root
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.dedup_window = dedup_window
        self.fleets: List[FleetSupervisor] = []
        self.next_id = 0
        self.next_task_id = 0
        self.now = 0.0
        self.ops_issued = 0
        self.contended_admits = 0
        self.id_to_rid: Dict[Any, str] = {}
        self.unacked: "OrderedDict[str, Doc]" = OrderedDict()
        self.ledger: Dict[str, Any] = {}
        self.response_mismatches = 0
        self.decision_mismatches = 0
        self.fingerprint_matches = 0
        self.fingerprint_mismatches = 0
        #: Called after every ``apply`` (the degradation region check).
        self.on_apply: Callable[[], None] = lambda: None
        self.blocks: Dict[str, Any] = {}

    # -- setup and teardown -------------------------------------------

    def start(
        self,
        policies: Dict[str, Doc],
        mix: _OpMix,
        tail: Tail,
        workers: int = 1,
        miss_threshold: int = DEFAULT_MISS_THRESHOLD,
        shadow_fleet: bool = False,
    ) -> None:
        """Open the target and its shadow; register every pipeline.

        The shadow is an in-memory :class:`AdmissionGateway` unless
        ``shadow_fleet`` asks for a second fleet of ``workers``.
        """
        self.policies = policies
        self.names = sorted(policies)
        self.mix = mix
        self.tail = tail
        shard_map = ShardMap.balanced(self.names, workers)

        def open_fleet(side: str, fsync: bool) -> FleetSupervisor:
            return FleetSupervisor(
                workers,
                self.root / side,
                shard_map=shard_map,
                fsync=fsync,
                snapshot_every=self.snapshot_every,
                dedup_window=self.dedup_window,
                miss_threshold=miss_threshold,
            )

        self.target = open_fleet("fleet", self.fsync)
        self.fleets.append(self.target)
        self.shadow: Side
        if shadow_fleet:
            self.shadow = open_fleet("shadow", False)
            self.fleets.append(self.shadow)
        else:
            self.shadow = AdmissionGateway(dedup_window=self.dedup_window)
        for fleet in self.fleets:
            fleet.start()
        for name in self.names:
            doc = self.envelope(name)
            doc["op"] = "register"
            doc["policy"] = dict(policies[name])
            self.send(doc)

    def close(self) -> None:
        for fleet in self.fleets:
            fleet.close()

    # -- the client ledger --------------------------------------------

    def fresh_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def envelope(self, name: Optional[str] = None) -> Doc:
        request_id = self.fresh_id()
        doc: Doc = {"id": request_id, "rid": f"r{request_id}"}
        if name is not None:
            doc["pipeline"] = name
        return doc

    def ack(self, response: Doc) -> None:
        rid = self.id_to_rid.get(response.get("id"))
        if rid is None:
            return
        if response.get("error") == "duplicate-request":
            return  # "still queued, retry later" -- not a final answer
        self.unacked.pop(rid, None)
        decision = response.get("admitted")
        if rid in self.ledger:
            if self.ledger[rid] != decision:
                self.decision_mismatches += 1
        else:
            self.ledger[rid] = decision

    def compare(self, got: List[str], want: List[str]) -> None:
        if got != want:
            self.response_mismatches += 1

    def shadow_dispatch(self, doc: Doc) -> List[str]:
        if isinstance(self.shadow, AdmissionGateway):
            return [response for _, response in self.shadow.handle_line(encode(doc))]
        return self.shadow.dispatch(doc)

    def apply(self, doc: Doc) -> List[str]:
        """Deliver one request to both sides; ack the target's answers."""
        got = self.target.dispatch(doc)
        self.compare(got, self.shadow_dispatch(doc))
        for response in got:
            self.ack(json.loads(response))
        self.on_apply()
        return got

    def issue(self, doc: Doc) -> None:
        self.id_to_rid[doc["id"]] = doc["rid"]
        if doc["rid"] not in self.ledger:
            self.unacked[doc["rid"]] = doc

    def send(self, doc: Doc) -> List[str]:
        self.issue(doc)
        return self.apply(doc)

    def retry(self, doc: Doc) -> None:
        """Re-send under a fresh wire id and the same ``rid``."""
        again = dict(doc)
        again["id"] = self.fresh_id()
        self.id_to_rid[again["id"]] = doc["rid"]
        self.apply(again)

    def settle(self) -> None:
        """Client retry protocol after a recovery: retry everything
        unacknowledged; if retries bounce off a still-pending batch,
        force a flush with a drain request and retry once more."""
        for doc in list(self.unacked.values()):
            self.retry(doc)
        if self.unacked:
            self.drain()

    def drain(self) -> None:
        drain_doc = self.envelope()
        drain_doc["op"] = "drain"
        self.send(drain_doc)
        for doc in list(self.unacked.values()):
            self.retry(doc)

    # -- the op stream ------------------------------------------------

    def op(self, name: Optional[str] = None) -> Doc:
        """One seeded background op from the profile's mix."""
        rng, mix = self.rng, self.mix
        self.ops_issued += 1
        self.now += rng.uniform(0.05, 0.3)
        if name is None:
            name = self.names[rng.randrange(len(self.names))]
        stages = self.policies[name]["num_stages"]
        doc = self.envelope(name)
        roll = rng.random()
        if roll < mix.cuts[0]:
            self.next_task_id += 1
            task: Doc = {
                "task_id": self.next_task_id,
                "arrival": self.now,
                "deadline": self.now + rng.uniform(*mix.deadline),
                "costs": [rng.uniform(*mix.costs) for _ in range(stages)],
            }
            if mix.importance:
                task["importance"] = rng.randrange(3)
            doc["op"] = "admit"
            doc["task"] = task
            if self.policies[name].get("locking") and rng.random() < mix.contended:
                # Most admits on the locking pipeline declare critical
                # sections on a tiny shared pool, so B_ij/beta_j churn
                # on every admit/expire and recovery has real blocking
                # state to rebuild.
                self.contended_admits += 1
                picks = rng.sample(
                    [(s, r) for s in range(stages) for r in mix.resources],
                    rng.randrange(1, 3),
                )
                task["resources"] = [
                    {
                        "stage": stage,
                        "resource": resource,
                        "max_length": rng.uniform(0.0, mix.max_length),
                    }
                    for stage, resource in sorted(picks)
                ]
        elif roll < mix.cuts[1]:
            doc["op"] = "depart"
            doc["task_id"] = rng.randrange(1, max(2, self.next_task_id + 1))
            doc["stage"] = rng.randrange(stages)
        elif roll < mix.cuts[2]:
            doc["op"] = "expire"
            doc["now"] = self.now
        elif roll < mix.cuts[3]:
            doc["op"] = "idle"
            doc["stage"] = rng.randrange(stages)
        else:
            self.tail(doc, roll, stages)
        return doc

    # -- crashes ------------------------------------------------------

    def pipelines(self, side: Side, shard: Optional[int] = None) -> Iterator[ServedPipeline]:
        """Pipelines served by one side's live workers (or one shard)."""
        if isinstance(side, AdmissionGateway):
            yield from side.registry
            return
        for worker in side.workers:
            if worker.durable is not None and shard in (None, worker.shard):
                yield from worker.durable.gateway.registry

    def dedup_hits(self, side: Side) -> int:
        if isinstance(side, AdmissionGateway):
            return side.dedup_hits
        return sum(w.durable.gateway.dedup_hits for w in side.workers if w.durable)

    def fingerprints(self, side: Side) -> List[str]:
        """Per-shard registry fingerprints, in shard order."""
        if isinstance(side, AdmissionGateway):
            return [registry_fingerprint(side)]
        return side.fingerprints()

    def crash(
        self, shard: int, kind: str, doc: Doc, keep: Optional[float] = None
    ) -> bool:
        """Kill target worker ``shard`` with ``doc`` in flight.

        The shadow applies whatever the crash made durable, so the pair
        stays in step; the responses an ``after_apply`` crash swallowed
        are compared with the shadow's.  ``keep`` is the torn prefix fraction, drawn from
        the run's RNG when a torn crash needs one and none is given.

        Returns:
            Whether an admission batch was pending when the worker died,
            read off its twin while the twin is in the victim's state.
        """
        if keep is None:
            keep = self.rng.uniform(0.1, 0.9) if kind == "torn" else 0.5
        lost = self.target.workers[shard].kill(kind, doc, keep)
        if kind == "after_apply":
            self.compare(lost, self.shadow_dispatch(doc))
        died_pending = self.pending(shard)
        if kind == "after_journal":
            self.shadow_dispatch(doc)  # replay applies it on the target
        return died_pending

    def pending(self, shard: int) -> bool:
        """Whether the shadow of ``shard`` holds a pending batch."""
        return any(p.pending for p in self.pipelines(self.shadow, shard))

    def recovered(self, shard: int) -> None:
        """Compare a restarted worker with its shadow; settle the client."""
        if self.target.workers[shard].fingerprint() == self.fingerprints(self.shadow)[shard]:
            self.fingerprint_matches += 1
        else:
            self.fingerprint_mismatches += 1
        self.settle()

    # -- the shared report blocks ---------------------------------------

    def finish(self, extras: bool = True) -> None:
        """Final drain and retries; freeze the shared report blocks.

        ``extras`` adds ``recoveries.skipped`` and
        ``admissions.shadow_admitted``, which the degradation report
        has never carried.
        """
        self.drain()
        acked_admitted = sum(1 for decision in self.ledger.values() if decision is True)
        counted_admitted = sum(p.counters.admitted for p in self.pipelines(self.target))
        recoveries = self.target.recoveries
        optional: Dict[str, Dict[str, Any]] = {"recoveries": {}, "admissions": {}}
        if extras:
            optional["recoveries"]["skipped"] = sum(r.skipped for r in recoveries)
            optional["admissions"]["shadow_admitted"] = sum(
                p.counters.admitted for p in self.pipelines(self.shadow)
            )
        self.blocks = {
            "ops_issued": self.ops_issued,
            "recoveries": {
                "count": len(recoveries),
                "snapshot_loads": sum(1 for r in recoveries if r.snapshot_loaded),
                "replayed": sum(r.replayed for r in recoveries),
                "truncated_bytes": sum(r.truncated_bytes for r in recoveries),
                **optional["recoveries"],
            },
            "admissions": {
                "acked_admitted": acked_admitted,
                "counted_admitted": counted_admitted,
                **optional["admissions"],
                "lost": max(0, acked_admitted - counted_admitted),
                "duplicated": max(0, counted_admitted - acked_admitted),
                "decision_mismatches": self.decision_mismatches,
                "response_mismatches": self.response_mismatches,
                "unresolved": len(self.unacked),
            },
            "equivalence": {
                "fingerprint_matches": self.fingerprint_matches,
                "fingerprint_mismatches": self.fingerprint_mismatches,
                "final_identical": self.target.fingerprints()
                == self.fingerprints(self.shadow),
            },
        }

    def region_values(self) -> Dict[str, float]:
        return {
            pipeline.name: pipeline.controller.region_value()
            for pipeline in self.pipelines(self.target)
        }


# ----------------------------------------------------------------------
# crash profile
# ----------------------------------------------------------------------

_CRASH_POLICIES: Dict[str, Doc] = {
    "batched": {"num_stages": 3, "alpha": 0.9, "max_batch": 3},
    "direct": {"num_stages": 2, "alpha": 1.0},
    # Online PCP blocking bounds: admits carry shared-resource
    # declarations and the controller derives beta_j from the admitted
    # set, so crash/replay must rebuild the blocking state bitwise too.
    "locked": {"num_stages": 2, "alpha": 0.9, "locking": True},
}

_CRASH_MIX = _OpMix(
    cuts=(0.60, 0.72, 0.82, 0.88),
    deadline=(0.8, 2.5),
    costs=(0.02, 0.15),
    importance=False,
    resources=("lock-a", "lock-b"),
    contended=0.7,
    max_length=0.08,
)


def _drive_crash(run: _Lockstep, cycles: int, ops_per_cycle: int) -> Doc:
    rng = run.rng

    def tail(doc: Doc, roll: float, stages: int) -> None:
        if roll < 0.94:
            doc["op"] = "capacity"
            doc["stage"] = rng.randrange(stages)
            doc["capacity"] = rng.uniform(0.6, 1.0)
        else:
            doc["op"] = "stats"

    run.start(_CRASH_POLICIES, _CRASH_MIX, tail)
    crash_counts = dict.fromkeys(WORKER_KILL_KINDS, 0)
    crashes_with_pending = 0
    stall_retries = 0
    for _cycle in range(cycles):
        kind = WORKER_KILL_KINDS[rng.randrange(len(WORKER_KILL_KINDS))]
        crash_at = rng.randrange(1, ops_per_cycle)
        for index in range(ops_per_cycle):
            doc = run.op()
            run.issue(doc)
            if index == crash_at:
                run.crash(0, kind, doc)
                crash_counts[kind] += 1
                # Counted with the crashed op made durable: a batch the
                # recovered gateway has to rebuild by replay.
                crashes_with_pending += run.pending(0)
                run.target.restart(0)
                run.recovered(0)
                break
            run.apply(doc)
            if rng.random() < 0.2:
                # Slow-write / slow-response stall: the answer arrives
                # so late the client has already retried.
                stall_retries += 1
                run.retry(doc)
    run.finish()
    return {
        "crashes": {**crash_counts, "total": sum(crash_counts.values())},
        "crashes_with_pending_batch": crashes_with_pending,
        "stall_retries": stall_retries,
        "contended_admits": run.contended_admits,
        "dedup_hits": {
            "durable": run.dedup_hits(run.target),
            "shadow": run.dedup_hits(run.shadow),
        },
        "region_values": run.region_values(),
    }


def _crash_coverage(report: Doc) -> List[str]:
    failures: List[str] = []
    for kind in WORKER_KILL_KINDS:
        if report["crashes"][kind] == 0:
            failures.append(f"crash kind {kind!r} was never exercised")
    if report["crashes_with_pending_batch"] == 0:
        failures.append("no crash landed while an admission batch was pending")
    if report["stall_retries"] == 0:
        failures.append("no slow-response stall retries were injected")
    if report["contended_admits"] == 0:
        failures.append("no resource-bearing admissions exercised the locking pipeline")
    return failures


# ----------------------------------------------------------------------
# degradation profile
# ----------------------------------------------------------------------

#: Aggressive hysteresis so seeded report bursts confirm within a
#: cycle; quantum 0.1 keeps confirmed levels on a coarse grid.
_HYSTERESIS = {"confirm_drops": 2, "confirm_restores": 2, "quantum": 0.1, "floor": 0.2}

#: ``web`` takes the report waves (observation-driven estimation);
#: ``locked`` and ``batched`` take the explicit ``set_capacity`` waves,
#: covering the locking beta re-preview and the batch-barrier path.
_DEGRADATION_POLICIES: Dict[str, Doc] = {
    "web": {"num_stages": 3, "alpha": 0.9, "degradation": _HYSTERESIS},
    "locked": {
        "num_stages": 2,
        "alpha": 0.9,
        "locking": True,
        "degradation": _HYSTERESIS,
    },
    "batched": {
        "num_stages": 2,
        "alpha": 0.9,
        "max_batch": 3,
        "degradation": _HYSTERESIS,
    },
}

_WAVE_TARGETS = ("locked", "batched")

#: Capacity levels explicit drop waves choose from (0.0 = full outage).
_DROP_LEVELS = (0.0, 0.3, 0.5, 0.7)

_DEGRADATION_MIX = _OpMix(
    cuts=(0.62, 0.74, 0.84, 0.92),
    deadline=(1.5, 4.0),
    costs=(0.02, 0.12),
    importance=True,
    resources=("lock-a", "lock-b"),
    contended=0.6,
    max_length=0.06,
)


def _stats_tail(doc: Doc, roll: float, stages: int) -> None:
    doc["op"] = "stats"
    del doc["pipeline"]


def _drive_degradation(run: _Lockstep, cycles: int, ops_per_cycle: int) -> Doc:
    rng = run.rng
    region_violations = 0

    def check_region() -> None:
        """The post-repair feasibility invariant, after every op."""
        nonlocal region_violations
        for pipeline in run.pipelines(run.shadow):
            if not pipeline.controller.region_ok():
                region_violations += 1

    def wave_op(name: str, op: str, stage: int, **operands: Any) -> Doc:
        run.ops_issued += 1
        doc = run.envelope(name)
        doc.update(op=op, stage=stage, **operands)
        return doc

    upgrade = {"attempted": False, "restored": False}

    def snapshot_upgrade() -> None:
        """Harvest a live snapshot, downgrade to v3, restore it (v3->v4)."""
        upgrade["attempted"] = True
        doc = run.envelope("web")
        doc["op"] = "snapshot"
        snapshot_doc = None
        for line in run.send(doc):
            response = json.loads(line)
            if response.get("op") == "snapshot" and response.get("ok"):
                snapshot_doc = response["snapshot"]
        if snapshot_doc is None:
            return
        legacy = json.loads(json.dumps(snapshot_doc))
        legacy.pop("degradation", None)
        controller_doc = legacy["controller"]
        controller_doc["format"] = SNAPSHOT_FORMAT_V3
        controller_doc.pop("admission_seq", None)
        controller_doc.pop("charges_follow_capacity", None)
        for record in controller_doc["admitted"]:
            record.pop("demand", None)
            record.pop("seq", None)
        # The clone serves fresh traffic counts, not web's history --
        # carrying the counters over would double-count acked
        # admissions against the ledger.
        legacy["counters"] = {}
        restore_doc = run.envelope("web-v3")
        restore_doc["op"] = "restore"
        restore_doc["snapshot"] = legacy
        upgrade["restored"] = any(
            response.get("op") == "restore" and response.get("ok")
            for response in map(json.loads, run.send(restore_doc))
        )

    run.on_apply = check_region
    run.start(_DEGRADATION_POLICIES, _DEGRADATION_MIX, _stats_tail)
    crash_counts = dict.fromkeys(WORKER_KILL_KINDS, 0)
    drops = outages = restores = report_waves = stall_retries = 0
    for cycle in range(cycles):
        kind = WORKER_KILL_KINDS[cycle % len(WORKER_KILL_KINDS)]
        crash_at = rng.randrange(2, ops_per_cycle)
        # This cycle's waves: an explicit drop + restore on one wave
        # pipeline, and (every other cycle) a report wave on "web" -- a
        # drop burst followed by a restoring ok burst.
        wave_target = _WAVE_TARGETS[cycle % len(_WAVE_TARGETS)]
        wave_stage = rng.randrange(_DEGRADATION_POLICIES[wave_target]["num_stages"])
        # Every fourth cycle is a full outage so the coverage gates
        # hold for any seed; the rest draw a partial level.
        if cycle % 4 == 1:
            level = 0.0
            outages += 1
        else:
            level = _DROP_LEVELS[1 + rng.randrange(len(_DROP_LEVELS) - 1)]
            drops += 1
        scheduled = [wave_op(wave_target, "set_capacity", wave_stage, capacity=level)]
        if cycle % 2 == 0:
            report_stage = rng.randrange(_DEGRADATION_POLICIES["web"]["num_stages"])
            drop_kind = "slowdown" if cycle % 4 == 0 else "overrun"
            ratio = 0.5 if drop_kind == "slowdown" else 2.0
            scheduled.extend(
                wave_op("web", "report", report_stage, kind=drop_kind, ratio=ratio)
                for _ in range(_HYSTERESIS["confirm_drops"])
            )
            scheduled.extend(
                wave_op("web", "report", report_stage, kind="ok")
                for _ in range(_HYSTERESIS["confirm_restores"])
            )
            report_waves += 1
        scheduled.append(wave_op(wave_target, "set_capacity", wave_stage, capacity=1.0))
        restores += 1
        # Interleave the wave ops into the background stream at seeded
        # positions, keeping their relative order (drop before restore).
        slots = sorted(rng.randrange(ops_per_cycle) for _ in scheduled)
        by_slot: Dict[int, List[Doc]] = {}
        for slot, doc in zip(slots, scheduled):
            by_slot.setdefault(slot, []).append(doc)
        for index in range(ops_per_cycle):
            for doc in by_slot.get(index, []):
                run.send(doc)
            doc = run.op()
            run.issue(doc)
            if index == crash_at:
                run.crash(0, kind, doc)
                crash_counts[kind] += 1
                run.target.restart(0)
                run.recovered(0)
                check_region()
                break
            run.apply(doc)
            if rng.random() < 0.15:
                stall_retries += 1
                run.retry(doc)
        # Deliver the wave ops the crash preempted: degradation waves
        # must complete (restore follows drop) even across a crash,
        # exactly like a monitoring client would retry them.
        for slot, docs in sorted(by_slot.items()):
            if slot > crash_at:
                for doc in docs:
                    run.send(doc)
        if cycle == cycles // 2:
            snapshot_upgrade()
    run.finish(extras=False)
    shadow = list(run.pipelines(run.shadow))
    return {
        "crashes": {**crash_counts, "total": sum(crash_counts.values())},
        "stall_retries": stall_retries,
        "waves": {
            "drops": drops,
            "outages": outages,
            "restores": restores,
            "report_waves": report_waves,
        },
        "degradation": {
            "rescales": sum(p.counters.rescales for p in shadow),
            "sacrificed": sum(p.counters.sacrificed for p in shadow),
            "confirmed_drops": sum(
                p.degradation.estimator.confirmed_drops for p in shadow
            ),
            "confirmed_restores": sum(
                p.degradation.estimator.confirmed_restores for p in shadow
            ),
            "region_violations": region_violations,
        },
        "snapshot_upgrade": upgrade,
        "region_values": run.region_values(),
    }


def _degradation_coverage(report: Doc) -> List[str]:
    failures: List[str] = []
    degradation = report["degradation"]
    if degradation["region_violations"]:
        failures.append(
            f"{degradation['region_violations']} post-repair region violations"
        )
    if degradation["rescales"] == 0:
        failures.append("no capacity rescale was ever applied")
    if degradation["sacrificed"] == 0:
        failures.append("no repair ever had to sacrifice a task")
    if degradation["confirmed_drops"] == 0:
        failures.append("no observation-driven capacity drop was confirmed")
    if degradation["confirmed_restores"] == 0:
        failures.append("no observation-driven capacity restore was confirmed")
    waves = report["waves"]
    if waves["drops"] == 0:
        failures.append("no explicit capacity drop wave ran")
    if waves["outages"] == 0:
        failures.append("no full-outage (capacity 0.0) wave ran")
    if waves["restores"] == 0:
        failures.append("no capacity restore wave ran")
    for kind in WORKER_KILL_KINDS:
        if report["crashes"][kind] == 0:
            failures.append(f"crash kind {kind!r} was never exercised")
    if not report["snapshot_upgrade"]["restored"]:
        failures.append("the v3-to-v4 snapshot upgrade restore did not succeed")
    if report["stall_retries"] == 0:
        failures.append("no slow-response stall retries were injected")
    return failures


# ----------------------------------------------------------------------
# fleet profile
# ----------------------------------------------------------------------

#: More pipelines than shards, so every worker owns at least one and
#: the mid-run migration has a donor and a receiver on distinct shards.
_FLEET_POLICIES: Dict[str, Doc] = {
    "api": {"num_stages": 3, "alpha": 0.9, "max_batch": 3},
    "img": {"num_stages": 2, "alpha": 1.0},
    "web": {"num_stages": 2, "alpha": 0.8, "max_batch": 2},
    "etl": {"num_stages": 4, "alpha": 0.95},
    # Online PCP blocking bounds: worker failover must rebuild the
    # derived beta_j / budget state bitwise as well.
    "mtx": {"num_stages": 2, "alpha": 0.9, "locking": True},
}

_FLEET_MIX = _OpMix(
    cuts=(0.62, 0.74, 0.84, 0.92),
    deadline=(0.8, 2.5),
    costs=(0.02, 0.15),
    importance=False,
    resources=("gpu", "cache"),
    contended=0.7,
    max_length=0.08,
)


def _build_schedule(
    rng: random.Random, cycle: int, workers: int, ops_per_cycle: int
) -> NetworkFaultSchedule:
    """One cycle's deterministic fault mix.

    Every family fires every cycle (coverage is guaranteed, the gate
    need not hope); *where* in the cycle each lands, which worker dies,
    and how, rotate deterministically so ``cycles >= 3 * workers``
    covers the full (worker x kind) matrix and both detection paths.
    """
    at = lambda: rng.randrange(1, ops_per_cycle)  # noqa: E731
    return NetworkFaultSchedule(
        torn_frames=(TornFrame(at_op=at(), keep=rng.uniform(0.2, 0.8)),),
        partial_writes=(PartialWrite(at_op=at(), cut=rng.uniform(0.2, 0.8)),),
        stalls=(SlowClientStall(at_op=at(), retries=1 + rng.randrange(2)),),
        storms=(ConnectionStorm(at_op=at(), count=2 + rng.randrange(3)),),
        kills=(
            WorkerKill(
                at_op=at(),
                worker=cycle % workers,
                # cycle // workers walks the kind axis while cycle %
                # workers walks the worker axis.
                kind=WORKER_KILL_KINDS[(cycle // workers) % len(WORKER_KILL_KINDS)],
                detect=WORKER_KILL_DETECTIONS[cycle % len(WORKER_KILL_DETECTIONS)],
            ),
        ),
    )


def _drive_fleet(
    run: _Lockstep,
    cycles: int,
    ops_per_cycle: int,
    workers: int = 3,
    miss_threshold: int = DEFAULT_MISS_THRESHOLD,
    degradation: bool = False,
) -> Doc:
    """Fleet profile; ``degradation`` mixes ``set_capacity``/``report``
    ops into the stream, so failover also replays rescales bitwise."""
    rng = run.rng
    degradation_ops = 0

    def tail(doc: Doc, roll: float, stages: int) -> None:
        nonlocal degradation_ops
        # The `degradation` guard short-circuits before the extra
        # rng.random() call, keeping default-mode op streams unchanged.
        if degradation and rng.random() < 0.67:
            degradation_ops += 1
            doc["stage"] = rng.randrange(stages)
            if rng.random() < 0.7:
                doc["op"] = "set_capacity"
                doc["capacity"] = rng.choice((0.5, 0.7, 1.0))
            else:
                doc["op"] = "report"
                doc["kind"] = "slowdown"
                doc["ratio"] = rng.choice((0.5, 1.0))
        else:
            doc["op"] = "capacity"
            doc["stage"] = rng.randrange(stages)
            doc["capacity"] = rng.uniform(0.6, 1.0)

    run.start(_FLEET_POLICIES, _FLEET_MIX, tail, workers, miss_threshold, shadow_fleet=True)
    fleet, shadow = run.target, run.shadow
    kill_counts = dict.fromkeys(WORKER_KILL_KINDS, 0)
    detect_counts = dict.fromkeys(WORKER_KILL_DETECTIONS, 0)
    killed_workers = [0] * workers
    kills_with_pending = 0
    fault_counts = {"torn_frames": 0, "partial_writes": 0, "stalls": 0, "storms": 0}
    torn_frame_errors = stall_retries = storm_probes = heartbeat_rounds = 0
    stale_routes = stale_route_failures = 0
    partial_pending: List[Doc] = []
    migrations: List[Doc] = []

    def torn_frame(fault: TornFrame) -> None:
        """A request line cut mid-byte must bounce as a structured error."""
        nonlocal torn_frame_errors
        doc = run.op()  # never issued: the client sees the connection die
        line = encode(doc)
        torn = line[: max(1, min(len(line) - 1, int(len(line) * fault.keep)))]
        shard = fleet.shard_for(doc)
        target = shard if shard is not None else 0
        got = fleet.workers[target].handle_line(torn)
        run.compare(got, shadow.workers[target].handle_line(torn))
        if len(got) == 1:
            answer = json.loads(got[0])
            if answer.get("ok") is False and answer.get("error") in (
                "bad-json",
                "bad-request",
            ):
                torn_frame_errors += 1
        fault_counts["torn_frames"] += 1

    def partial_write(fault: PartialWrite) -> None:
        """The newline never lands: no worker sees the op; retry later."""
        doc = run.op()
        run.issue(doc)
        partial_pending.append(doc)
        fault_counts["partial_writes"] += 1

    def slow_client_stall(fault: SlowClientStall) -> None:
        nonlocal stall_retries
        doc = run.op()
        run.send(doc)
        for _ in range(fault.retries):
            stall_retries += 1
            run.retry(doc)
        fault_counts["stalls"] += 1

    def connection_storm(fault: ConnectionStorm) -> None:
        """A probe burst: liveness churn that must never touch a journal."""
        nonlocal storm_probes, heartbeat_rounds
        before = [w.durable.journal.last_seq for w in fleet.workers if w.durable]
        for _ in range(fault.count):
            heartbeat_rounds += 1
            fleet.probe()
            storm_probes += workers
        after = [w.durable.journal.last_seq for w in fleet.workers if w.durable]
        if before != after:
            fault_counts["storm_journal_writes"] = (
                fault_counts.get("storm_journal_writes", 0) + 1
            )
        fault_counts["storms"] += 1

    def kill_worker(fault: WorkerKill) -> None:
        nonlocal kills_with_pending, heartbeat_rounds
        victim = fault.worker
        # The in-flight op must be headed for the victim, so generate
        # it against a pipeline the victim owns.
        owned = fleet.shard_map.owned_by(victim)
        doc = run.op(name=owned[rng.randrange(len(owned))])
        run.issue(doc)
        kills_with_pending += run.crash(
            victim, fault.kind, doc, keep=rng.uniform(0.1, 0.9)
        )
        kill_counts[fault.kind] += 1
        detect_counts[fault.detect] += 1
        killed_workers[victim] += 1
        if fault.detect == "heartbeat":
            # The supervisor only learns of the death when seq-stamped
            # probes go unanswered past the miss threshold.
            while fleet.monitor.states[victim] != WORKER_UNAVAILABLE:
                heartbeat_rounds += 1
                fleet.probe()
            fleet.heal()
        else:
            # Exit-status detection: the supervisor reaps the dead
            # child immediately and restarts it.
            fleet.restart(victim)
        heartbeat_rounds += 1
        fleet.probe()  # the recovered worker re-arms to healthy
        run.recovered(victim)

    def exercise_stale_route(pipeline: str, old_shard: int) -> None:
        """Replay the pre-migration route; the bounce must re-resolve."""
        nonlocal stale_routes, stale_route_failures
        doc = run.op(name=pipeline)
        run.issue(doc)
        line = encode(doc)
        got = fleet.workers[old_shard].handle_line(line)
        run.compare(got, shadow.workers[old_shard].handle_line(line))
        bounce = json.loads(got[0]) if got else {}
        if bounce.get("error") != "wrong-shard" or "map" not in bounce:
            stale_route_failures += 1
            return
        resolved = ShardMap.from_wire(bounce["map"])
        if resolved.shard_of(pipeline) == old_shard or resolved.version <= 1:
            stale_route_failures += 1
            return
        stale_routes += 1
        # Re-issue on the authoritative owner with the SAME rid: the
        # re-route must not double-apply.
        run.retry(doc)

    handlers: Dict[type, Callable[[Any], None]] = {
        TornFrame: torn_frame,
        PartialWrite: partial_write,
        SlowClientStall: slow_client_stall,
        ConnectionStorm: connection_storm,
        WorkerKill: kill_worker,
    }
    for cycle in range(cycles):
        schedule = _build_schedule(rng, cycle, workers, ops_per_cycle)
        fault_at: Dict[int, List[Any]] = {}
        for fault in (
            schedule.torn_frames
            + schedule.partial_writes
            + schedule.stalls
            + schedule.storms
            + schedule.kills
        ):
            fault_at.setdefault(fault.at_op, []).append(fault)
        kills_before = sum(kill_counts.values())
        for index in range(ops_per_cycle):
            for fault in fault_at.get(index, []):
                handlers[type(fault)](fault)
            run.send(run.op())
        if sum(kill_counts.values()) == kills_before:
            raise RuntimeError(f"fleet chaos cycle {cycle} ran without a worker kill")

        if cycle == cycles // 2:
            migrated = run.names[0]
            old_shard = fleet.shard_map.shard_of(migrated)
            new_shard = (old_shard + 1) % workers
            fleet.migrate(migrated, new_shard)
            shadow.migrate(migrated, new_shard)
            migrations.append(
                {
                    "pipeline": migrated,
                    "from": old_shard,
                    "to": new_shard,
                    "map_version": fleet.shard_map.version,
                }
            )
            exercise_stale_route(migrated, old_shard)
            run.settle()

        # Retried partial writes: the connection died before the
        # newline, so the op reaches the fleet for the first time here.
        for doc in partial_pending:
            run.retry(doc)
        partial_pending.clear()

    run.finish()
    health = fleet.fleet_health()
    stats = fleet.fleet_stats()
    served = list(run.pipelines(fleet))
    return {
        "workers": workers,
        "miss_threshold": miss_threshold,
        "kills": {
            **kill_counts,
            "total": sum(kill_counts.values()),
            "by_worker": killed_workers,
            "with_pending_batch": kills_with_pending,
        },
        "detection": {
            **detect_counts,
            "heartbeat_rounds": heartbeat_rounds,
            "seq_regressions": fleet.monitor.seq_regressions,
            "transitions": len(fleet.monitor.transitions),
        },
        "faults": {
            **fault_counts,
            "torn_frame_errors": torn_frame_errors,
            "stall_retries": stall_retries,
            "storm_probes": storm_probes,
            "contended_admits": run.contended_admits,
        },
        "routing": {
            "map_version": fleet.shard_map.version,
            "migrations": migrations,
            "stale_routes_resolved": stale_routes,
            "stale_route_failures": stale_route_failures,
            "wrong_shard_bounces": sum(
                w.gateway.bounced for w in fleet.workers if w.gateway is not None
            ),
        },
        "dedup_hits": {"fleet": run.dedup_hits(fleet), "shadow": run.dedup_hits(shadow)},
        "degradation": {
            "ops": degradation_ops,
            "rescales": sum(p.counters.rescales for p in served),
            "sacrificed": sum(p.counters.sacrificed for p in served),
        },
        "aggregation": {
            "health_degraded": health["degraded"],
            "health_unavailable": health["unavailable"],
            "stats_pipelines": sorted(stats["pipelines"]),
            "stats_shards_reporting": sum(
                1 for entry in stats["shards"].values() if entry["stats"] is not None
            ),
        },
    }


def _fleet_coverage(report: Doc) -> List[str]:
    failures: List[str] = []
    kills = report["kills"]
    for kind in WORKER_KILL_KINDS:
        if kills[kind] == 0:
            failures.append(f"kill kind {kind!r} was never exercised")
    for worker, count in enumerate(kills["by_worker"]):
        if count == 0:
            failures.append(f"worker {worker} was never killed")
    if kills["with_pending_batch"] == 0:
        failures.append("no kill landed while an admission batch was pending")
    detection = report["detection"]
    for detect in WORKER_KILL_DETECTIONS:
        if detection[detect] == 0:
            failures.append(f"detection path {detect!r} was never exercised")
    if detection["seq_regressions"]:
        failures.append(
            f"{detection['seq_regressions']} heartbeats saw the journal "
            "sequence regress (recovered worker lost durable state)"
        )
    faults = report["faults"]
    if faults["torn_frames"] == 0:
        failures.append("no torn frames were injected")
    if faults["torn_frame_errors"] != faults["torn_frames"]:
        failures.append(
            f"{faults['torn_frames'] - faults['torn_frame_errors']} torn frames "
            "did not come back as structured errors"
        )
    if faults["partial_writes"] == 0:
        failures.append("no partial writes were injected")
    if faults["stall_retries"] == 0:
        failures.append("no slow-client stall retries were injected")
    if faults["storms"] == 0:
        failures.append("no connection storms were injected")
    if faults["contended_admits"] == 0:
        failures.append("no resource-bearing admissions exercised the locking pipeline")
    if faults.get("storm_journal_writes"):
        failures.append("a connection storm wrote to a journal")
    routing = report["routing"]
    if not routing["migrations"]:
        failures.append("no live migration was exercised")
    if routing["stale_routes_resolved"] == 0:
        failures.append("no stale route was bounced and re-resolved")
    if routing["stale_route_failures"]:
        failures.append(
            f"{routing['stale_route_failures']} stale routes failed to re-resolve"
        )
    aggregation = report["aggregation"]
    if aggregation["stats_shards_reporting"] != report["workers"]:
        failures.append(
            "cross-shard stats aggregation missing "
            f"{report['workers'] - aggregation['stats_shards_reporting']} shards"
        )
    return failures


# ----------------------------------------------------------------------
# public surface
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Profile:
    report_format: str
    drive: Callable[..., Doc]
    coverage: Callable[[Doc], List[str]]
    cycles: int
    ops_per_cycle: int
    snapshot_every: int
    min_cycles: int
    min_ops_per_cycle: int
    min_recoveries: int


_PROFILES: Dict[str, _Profile] = {
    "crash": _Profile(
        CRASH_CHAOS_REPORT_FORMAT, _drive_crash, _crash_coverage,
        cycles=24, ops_per_cycle=12, snapshot_every=25,
        min_cycles=1, min_ops_per_cycle=2, min_recoveries=20,
    ),
    "degradation": _Profile(
        DEGRADATION_CHAOS_REPORT_FORMAT, _drive_degradation, _degradation_coverage,
        cycles=24, ops_per_cycle=16, snapshot_every=40,
        min_cycles=2, min_ops_per_cycle=4, min_recoveries=12,
    ),
    "fleet": _Profile(
        FLEET_CHAOS_REPORT_FORMAT, _drive_fleet, _fleet_coverage,
        cycles=12, ops_per_cycle=16, snapshot_every=20,
        min_cycles=1, min_ops_per_cycle=4, min_recoveries=10,
    ),
}

#: Profile names, as accepted by :func:`run_chaos`.
CHAOS_PROFILES = tuple(sorted(_PROFILES))

#: Each profile's default recovery-count bar in :func:`chaos_gate_failures`.
CHAOS_MIN_RECOVERIES = {name: spec.min_recoveries for name, spec in _PROFILES.items()}


def run_chaos(
    profile: str,
    seed: int = 0,
    cycles: Optional[int] = None,
    ops_per_cycle: Optional[int] = None,
    state_dir: Optional[Union[str, Path]] = None,
    snapshot_every: Optional[int] = None,
    fsync: bool = False,
    dedup_window: int = DEFAULT_DEDUP_WINDOW,
    **profile_args: Any,
) -> Dict[str, Any]:
    """Run one chaos profile; return its byte-stable report.

    Args:
        profile: One of :data:`CHAOS_PROFILES`.
        seed: RNG seed driving the op stream and every fault choice.
        cycles: Fault cycles; each crashes one worker once.  Defaults
            per profile (crash 24, degradation 24, fleet 12).
        ops_per_cycle: Background ops per cycle (crash 12, else 16).
        state_dir: Root of the fleets' state directories; a private
            temporary directory (removed afterwards) if ``None``.
        snapshot_every: Compaction period of every worker (crash 25,
            degradation 40, fleet 20).
        fsync: Run the target's journals with per-write fsync.
        dedup_window: Idempotency window size of every worker.
        **profile_args: The fleet profile's ``workers`` (3),
            ``miss_threshold`` and ``degradation`` (``False``).
    """
    try:
        spec = _PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown chaos profile {profile!r}; choose one of {CHAOS_PROFILES}"
        ) from None
    cycles = spec.cycles if cycles is None else cycles
    ops_per_cycle = spec.ops_per_cycle if ops_per_cycle is None else ops_per_cycle
    snapshot_every = spec.snapshot_every if snapshot_every is None else snapshot_every
    if cycles < spec.min_cycles:
        raise ValueError(f"cycles must be >= {spec.min_cycles}, got {cycles}")
    if ops_per_cycle < spec.min_ops_per_cycle:
        raise ValueError(
            f"ops_per_cycle must be >= {spec.min_ops_per_cycle}, got {ops_per_cycle}"
        )
    owns_dir = state_dir is None
    root = Path(tempfile.mkdtemp(prefix="repro-serve-chaos-") if owns_dir else state_dir)
    run = _Lockstep(random.Random(seed), root, snapshot_every, fsync, dedup_window)
    try:
        fields = spec.drive(run, cycles, ops_per_cycle, **profile_args)
    finally:
        run.close()
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "format": spec.report_format,
        "seed": seed,
        "cycles": cycles,
        "ops_per_cycle": ops_per_cycle,
        "snapshot_every": snapshot_every,
        "fsync": fsync,
        **run.blocks,
        **fields,
    }


def chaos_gate_failures(
    report: Dict[str, Any], min_recoveries: Optional[int] = None
) -> List[str]:
    """Check a :func:`run_chaos` report against its acceptance gates.

    The shared gates (nothing lost, duplicated, changed or divergent;
    every recovery bitwise identical; enough recoveries, one of them
    from a compaction snapshot) plus the profile's coverage checks.
    ``min_recoveries`` defaults to the profile's bar
    (:data:`CHAOS_MIN_RECOVERIES`: crash 20, degradation 12, fleet 10).
    """
    spec = next(
        (p for p in _PROFILES.values() if p.report_format == report.get("format")),
        None,
    )
    if spec is None:
        raise ValueError(f"not a chaos report: format {report.get('format')!r}")
    if min_recoveries is None:
        min_recoveries = spec.min_recoveries
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
            f"{admissions['response_mismatches']} target/shadow response divergences"
        )
    if admissions["unresolved"]:
        failures.append(f"{admissions['unresolved']} requests never acknowledged")
    equivalence = report["equivalence"]
    if equivalence["fingerprint_mismatches"]:
        failures.append(
            f"{equivalence['fingerprint_mismatches']} post-recovery fingerprint "
            "mismatches"
        )
    if not equivalence["final_identical"]:
        failures.append("final target/shadow fingerprints differ")
    recoveries = report["recoveries"]
    if recoveries["count"] < min_recoveries:
        failures.append(
            f"only {recoveries['count']} crash/recover cycles ran "
            f"(need >= {min_recoveries} recoveries)"
        )
    if recoveries["snapshot_loads"] == 0:
        failures.append("no recovery ever loaded a compaction snapshot")
    return failures + spec.coverage(report)
