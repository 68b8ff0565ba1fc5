"""Invariant auditing for the admission controller's bookkeeping state.

The zero-miss guarantee rests on the synthetic-utilization counters
being *exactly* the bookkeeping of Section 4: one contribution
``C_ij / D_i`` per current task per stage, removed at deadline expiry,
and released at stage-idle instants for departed tasks.  In a real
deployment (and in the chaos harness of :mod:`repro.faults`) that
bookkeeping is fed by notifications that can be lost, duplicated, or
delayed — so the controller's view silently drifts away from ground
truth and the admission test becomes either unsafe or needlessly
pessimistic.

:class:`ControllerAuditor` checks two families of invariants:

*Internal consistency* (no ground truth needed):

- ``sum-drift`` — a tracker's cached running sum disagrees with its
  exact accumulator, or the accumulator disagrees with a ground-truth
  re-summation of the tracked contributions (floating-point corruption
  or a bookkeeping bug);
- ``negative-utilization`` — the running sum is materially negative
  (double removal);
- ``orphan-contribution`` — a stage holds a contribution for a task the
  controller has no admitted record of;
- ``expired-contribution`` — a contribution outlived its task's
  deadline even after ``expire(now)`` ran (expiry-heap corruption);
- ``blocking-drift`` — on a locking controller, the cached online
  ``beta_j`` vector (or the blocking engine's tracked set) disagrees
  *bitwise* with a ground-truth PCP recomputation from the admitted
  records' resource declarations;
- ``budget-drift`` — the cached region budget is not bitwise equal to
  ``alpha (1 - sum_j beta_j)`` over the current beta vector — the
  transactional budget update was skipped somewhere;
- ``capacity-drift`` — a stage capacity is outside ``[0, 1]``, or (on a
  controller whose charges follow the capacities, i.e. after an
  authoritative ``rescale_stage_capacity``) an admitted record's
  charged contribution is not bitwise equal to the charge re-derived
  from its raw demand and the current capacity vector — a rescale that
  skipped records, or a capacity mutated without re-charging;
- ``post-repair-feasibility`` — the live admitted set violates the
  Eq. 12/15 region test (``region_ok``): a capacity drop shrank the
  region and no repair (sacrifice) pass restored feasibility.

*Ground-truth cross-checks* (fed by the simulation or a monitoring
layer):

- ``missed-departure`` — ground truth says the task departed the stage
  but the tracker never recorded it, so the idle-reset rule cannot
  release the contribution (a lost ``notify_subtask_departure``);
- ``missed-idle-reset`` — the stage is idle but departed contributions
  are still counted (a lost ``notify_stage_idle``).

Recovery is :meth:`~repro.core.admission.PipelineAdmissionController.resync`,
which rebuilds the canonical state from the same ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional

from ..locking.bounds import compute_betas
from .admission import PipelineAdmissionController
from .bounds import region_budget
from .numeric import EPS

__all__ = [
    "InvariantViolation",
    "ControllerAuditor",
    "AUDIT_KINDS",
    "diff_controllers",
]

#: Every violation kind the auditor can emit, in report order.
AUDIT_KINDS = (
    "sum-drift",
    "negative-utilization",
    "orphan-contribution",
    "expired-contribution",
    "blocking-drift",
    "budget-drift",
    "capacity-drift",
    "post-repair-feasibility",
    "missed-departure",
    "missed-idle-reset",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant breach.

    Attributes:
        kind: One of :data:`AUDIT_KINDS`.
        stage: Stage index the violation anchors to (or ``None``).
        task_id: Task involved (or ``None`` for stage-level checks).
        detail: Human-readable specifics.
    """

    kind: str
    stage: Optional[int]
    task_id: Optional[Hashable]
    detail: str

    def render(self) -> str:
        where = f"stage {self.stage}" if self.stage is not None else "controller"
        who = f" task {self.task_id}" if self.task_id is not None else ""
        return f"[{self.kind}] {where}{who}: {self.detail}"


class ControllerAuditor:
    """Audits a :class:`PipelineAdmissionController` against its invariants.

    Args:
        controller: The controller under audit.
        tolerance: Absolute slack allowed on sum comparisons; defaults
            to the shared :data:`repro.core.numeric.EPS`.
    """

    def __init__(
        self,
        controller: PipelineAdmissionController,
        tolerance: float = EPS,
    ) -> None:
        self.controller = controller
        self.tolerance = tolerance
        self.audits_run = 0
        self.violations_found = 0

    def audit(
        self,
        now: float,
        frontier: Optional[Dict[Hashable, int]] = None,
        idle_stages: Optional[Iterable[int]] = None,
    ) -> List[InvariantViolation]:
        """Run every applicable check and return the violations.

        ``expire(now)`` is applied first — lazily pending expirations
        are normal operation, not corruption, so the auditor must not
        report them.

        Args:
            now: Current time.
            frontier: Ground-truth execution frontier per live task (the
                stage index each task currently occupies;
                ``num_stages`` once fully departed).  ``None`` skips the
                ``missed-departure`` cross-check.
            idle_stages: Ground-truth indices of currently idle stages.
                ``None`` skips the ``missed-idle-reset`` cross-check.

        Returns:
            All violations found, internal checks first.
        """
        controller = self.controller
        controller.expire(now)
        violations: List[InvariantViolation] = []
        admitted = controller.admitted_snapshot()
        for j, tracker in enumerate(controller.trackers):
            incremental, exact = tracker.audit_sums()
            if abs(incremental - exact) > self.tolerance * max(1.0, abs(exact)):
                violations.append(
                    InvariantViolation(
                        "sum-drift",
                        j,
                        None,
                        f"incremental sum {incremental!r} != exact sum {exact!r}",
                    )
                )
            # Deep check: the accumulator itself against a ground-truth
            # re-summation of the tracked contributions.  O(n), but the
            # auditor is diagnostics, not the hot path.
            ground_truth = tracker.fsum_contributions()
            if abs(exact - ground_truth) > self.tolerance * max(
                1.0, abs(ground_truth)
            ):
                violations.append(
                    InvariantViolation(
                        "sum-drift",
                        j,
                        None,
                        f"exact accumulator {exact!r} != contribution "
                        f"re-summation {ground_truth!r}",
                    )
                )
            if incremental < -self.tolerance:
                violations.append(
                    InvariantViolation(
                        "negative-utilization",
                        j,
                        None,
                        f"running sum is {incremental!r}",
                    )
                )
            for task_id in sorted(tracker.tracked_ids(), key=repr):
                if task_id not in admitted:
                    violations.append(
                        InvariantViolation(
                            "orphan-contribution",
                            j,
                            task_id,
                            f"contribution {tracker.contribution_of(task_id)!r} "
                            "has no admitted record",
                        )
                    )
        violations.extend(self._check_expired(now))
        violations.extend(self._check_blocking())
        violations.extend(self._check_capacity())
        violations.extend(self._check_region())
        if frontier is not None:
            violations.extend(self._check_departures(frontier))
        if idle_stages is not None:
            violations.extend(self._check_idle(idle_stages))
        self.audits_run += 1
        self.violations_found += len(violations)
        return violations

    # ------------------------------------------------------------------
    # Individual checks
    # ------------------------------------------------------------------

    def _check_expired(self, now: float) -> List[InvariantViolation]:
        violations: List[InvariantViolation] = []
        for task_id, record in self.controller._admitted.items():
            if record.expiry <= now:
                violations.append(
                    InvariantViolation(
                        "expired-contribution",
                        None,
                        task_id,
                        f"record expired at {record.expiry!r} but survived "
                        f"expire({now!r})",
                    )
                )
        return violations

    def _check_blocking(self) -> List[InvariantViolation]:
        """Bitwise blocking/budget invariants (Eq. 15 bookkeeping).

        The budget must equal ``region_budget(alpha, betas)`` on every
        controller.  On a locking controller the cached ``beta_j``
        vector must additionally match a ground-truth PCP recomputation
        from the admitted records' ``(deadline, resources)`` pairs —
        the canonical blocking state is a pure function of those, just
        as the synthetic-utilization state is of the contributions.
        """
        controller = self.controller
        violations: List[InvariantViolation] = []
        blocking = getattr(controller, "_blocking", None)
        if blocking is not None:
            tracked = set(blocking._tasks)
            admitted = set(controller._admitted)
            if tracked != admitted:
                extra = sorted(tracked - admitted, key=repr)
                missing = sorted(admitted - tracked, key=repr)
                violations.append(
                    InvariantViolation(
                        "blocking-drift",
                        None,
                        None,
                        f"blocking engine tracks {extra!r} without admitted "
                        f"records and misses admitted {missing!r}",
                    )
                )
            ground_truth = compute_betas(
                (
                    (task_id, record.deadline, record.resources)
                    for task_id, record in controller._admitted.items()
                ),
                controller.num_stages,
            )
            cached = blocking.betas()
            recomputed = blocking.recompute()
            if cached != recomputed:
                violations.append(
                    InvariantViolation(
                        "blocking-drift",
                        None,
                        None,
                        f"cached beta vector {cached!r} != engine "
                        f"recomputation {recomputed!r}",
                    )
                )
            elif cached != ground_truth:
                violations.append(
                    InvariantViolation(
                        "blocking-drift",
                        None,
                        None,
                        f"cached beta vector {cached!r} != ground-truth "
                        f"recomputation {ground_truth!r} from admitted records",
                    )
                )
            if controller.betas != cached:
                violations.append(
                    InvariantViolation(
                        "blocking-drift",
                        None,
                        None,
                        f"controller.betas {controller.betas!r} != blocking "
                        f"engine vector {cached!r}",
                    )
                )
        expected_budget = region_budget(controller.alpha, controller.betas)
        if controller.budget != expected_budget:  # repro: noqa[FLT001] — drift check is bitwise by design
            violations.append(
                InvariantViolation(
                    "budget-drift",
                    None,
                    None,
                    f"budget {controller.budget!r} != "
                    f"alpha (1 - sum beta) = {expected_budget!r}",
                )
            )
        return violations

    def _check_capacity(self) -> List[InvariantViolation]:
        """Capacity vector sanity plus the charge/capacity identity.

        Capacities must be finite and in ``[0, 1]`` always.  When the
        controller's charges follow the capacities (after an
        authoritative rescale), every demand-bearing admitted record's
        charged contribution must be *bitwise* the charge re-derived
        from its raw demand, its deadline, and the current capacity —
        the same pure function fresh admissions are charged with.
        Outage stages (capacity 0.0) are exempt: they retain the
        pre-outage charge until the repair pass evicts the task.
        """
        controller = self.controller
        violations: List[InvariantViolation] = []
        capacities = controller.stage_capacities()
        for j, capacity in enumerate(capacities):
            if not math.isfinite(capacity) or not (0.0 <= capacity <= 1.0):
                violations.append(
                    InvariantViolation(
                        "capacity-drift",
                        j,
                        None,
                        f"stage capacity {capacity!r} is outside [0, 1]",
                    )
                )
        if violations or not getattr(controller, "charges_follow_capacity", False):
            return violations
        for task_id, record in controller._admitted.items():
            if record.demand is None:
                continue
            for j, (c, capacity) in enumerate(zip(record.demand, capacities)):
                if capacity == 0.0:
                    continue
                expected = (
                    c / record.deadline
                    if capacity == 1.0
                    else c / (capacity * record.deadline)
                )
                if record.contributions[j] != expected:
                    violations.append(
                        InvariantViolation(
                            "capacity-drift",
                            j,
                            task_id,
                            f"charged contribution {record.contributions[j]!r} "
                            f"!= demand/capacity re-derivation {expected!r} at "
                            f"capacity {capacity!r}",
                        )
                    )
        return violations

    def _check_region(self) -> List[InvariantViolation]:
        """The live admitted set must satisfy Eq. 12/15 (post-repair check).

        Fresh admissions are tested incrementally, so a violation here
        means a capacity rescale (or state corruption) moved already
        charged utilization outside the region and no sacrifice pass
        repaired it.
        """
        controller = self.controller
        if controller.region_ok():
            return []
        return [
            InvariantViolation(
                "post-repair-feasibility",
                None,
                None,
                f"admitted set violates the region: value "
                f"{controller.region_value()!r}, budget "
                f"{controller.budget!r}, utilizations "
                f"{controller.utilizations()!r}",
            )
        ]

    def _check_departures(
        self, frontier: Dict[Hashable, int]
    ) -> List[InvariantViolation]:
        """Cross-check departed-stage marks against the execution frontier."""
        violations: List[InvariantViolation] = []
        controller = self.controller
        for task_id, record in controller._admitted.items():
            stage_frontier = frontier.get(task_id, controller.num_stages)
            for j in range(min(stage_frontier, controller.num_stages)):
                tracker = controller.trackers[j]
                if task_id in tracker and not tracker.is_departed(task_id):
                    violations.append(
                        InvariantViolation(
                            "missed-departure",
                            j,
                            task_id,
                            "task departed this stage but was never marked "
                            "departed — a lost notify_subtask_departure",
                        )
                    )
        return violations

    def _check_idle(
        self, idle_stages: Iterable[int]
    ) -> List[InvariantViolation]:
        """An idle stage must not be holding departed contributions."""
        violations: List[InvariantViolation] = []
        if not self.controller.reset_on_idle:
            return violations
        for j in sorted(set(idle_stages)):
            pending = self.controller.trackers[j].pending_idle_release()
            if pending > self.tolerance:
                violations.append(
                    InvariantViolation(
                        "missed-idle-reset",
                        j,
                        None,
                        f"stage is idle but {pending!r} of departed "
                        "utilization is still counted — a lost "
                        "notify_stage_idle",
                    )
                )
        return violations


def diff_controllers(
    a: PipelineAdmissionController, b: PipelineAdmissionController
) -> List[str]:
    """Exact structural diff between two controllers.

    Compares every piece of decision-relevant state *bitwise* — scalar
    configuration, per-stage capacities, admitted records (charged
    contributions, expiry, importance), each tracker's tracked and
    departed sets, per-task live contributions, and the raw running
    sums.  An empty result means the controllers are observationally
    identical: every future decision sequence produces the same
    answers and the same region values, down to the last ulp.

    Crash-recovery verification uses this to turn "the fingerprints
    differ" into "stage 2's running sum is off by one ulp".

    Returns:
        Human-readable difference descriptions (empty if identical).
    """
    diffs: List[str] = []
    for field in ("num_stages", "alpha", "betas", "budget", "reset_on_idle", "locking"):
        va, vb = getattr(a, field), getattr(b, field)
        if va != vb:
            diffs.append(f"{field}: {va!r} != {vb!r}")
    if diffs:
        return diffs  # structurally incomparable below this point
    # Degradation bookkeeping: plain state, not structure — reported
    # alongside the record/tracker diffs rather than masking them.
    for field in ("admission_seq", "charges_follow_capacity"):
        va, vb = getattr(a, field), getattr(b, field)
        if va != vb:
            diffs.append(f"{field}: {va!r} != {vb!r}")
    if a.stage_capacities() != b.stage_capacities():
        diffs.append(
            f"capacities: {a.stage_capacities()!r} != {b.stage_capacities()!r}"
        )
    rec_a = {t[0]: t[1:] for t in a.iter_admitted()}
    rec_b = {t[0]: t[1:] for t in b.iter_admitted()}
    for task_id in sorted(rec_a.keys() | rec_b.keys(), key=repr):
        if task_id not in rec_b:
            diffs.append(f"admitted task {task_id!r}: only in first")
        elif task_id not in rec_a:
            diffs.append(f"admitted task {task_id!r}: only in second")
        elif rec_a[task_id] != rec_b[task_id]:
            diffs.append(
                f"admitted task {task_id!r}: record "
                f"{rec_a[task_id]!r} != {rec_b[task_id]!r}"
            )
    for j, (ta, tb) in enumerate(zip(a.trackers, b.trackers)):
        if ta.reserved != tb.reserved:
            diffs.append(f"stage {j}: reserved {ta.reserved!r} != {tb.reserved!r}")
        ids_a, ids_b = ta.tracked_ids(), tb.tracked_ids()
        for task_id in sorted(ids_a ^ ids_b, key=repr):
            side = "first" if task_id in ids_a else "second"
            diffs.append(f"stage {j}: task {task_id!r} tracked only in {side}")
        for task_id in sorted(ids_a & ids_b, key=repr):
            ca, cb = ta.contribution_of(task_id), tb.contribution_of(task_id)
            if ca != cb:
                diffs.append(
                    f"stage {j}: task {task_id!r} contribution {ca!r} != {cb!r}"
                )
        if ta.departed_ids() != tb.departed_ids():
            diffs.append(
                f"stage {j}: departed sets differ: "
                f"{sorted(ta.departed_ids(), key=repr)!r} != "
                f"{sorted(tb.departed_ids(), key=repr)!r}"
            )
        sum_a, sum_b = ta.audit_sums()[0], tb.audit_sums()[0]
        if sum_a != sum_b:
            diffs.append(f"stage {j}: running sum {sum_a!r} != {sum_b!r}")
        if ta.exact_state() != tb.exact_state():
            diffs.append(
                f"stage {j}: exact accumulator state "
                f"{ta.exact_state()!r} != {tb.exact_state()!r}"
            )
    return diffs
