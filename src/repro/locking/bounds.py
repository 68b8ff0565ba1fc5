"""Online priority-ceiling blocking bounds ``B_ij`` / ``beta_j`` (Eq. 15).

Under the priority-ceiling protocol a job of task ``T_i`` is blocked at
most once per stage, and only for the duration of a single critical
section of some *lower-priority* task on a resource whose priority
ceiling is at least ``T_i``'s priority (Sha, Rajkumar & Lehoczky; the
per-task bound schedcat's ``locking/bounds.py`` computes).  Stage ``j``
therefore charges

    B_ij = max { L_kr : prio(T_k) < prio(T_i),
                 ceiling(r, j) >= prio(T_i) }

and the region's right-hand side shrinks by the normalized vector

    beta_j = max_i B_ij / D_i        (Eq. 15).

:class:`PCPBlockingState` maintains these quantities *online* over the
currently admitted set, with deadline-monotonic priorities (the paper's
``alpha = 1`` policy; ``repr`` of the task id breaks deadline ties).

A section of ``T_k`` on ``r`` at stage ``j`` blocks exactly the victims
whose priority key lies in ``[ceiling(r, j), key(T_k))``.  The smallest
key in that range is the ceiling holder's own, and keys sort by
deadline first; correctly rounded division is monotone, so bitwise

    beta_j = max_r  top(r, j) / D_ceiling(r, j)

where ``top(r, j)`` is the longest section of ``r``'s holders at stage
``j`` strictly below the ceiling.  Each ``(stage, resource)`` anchor
keeps its ceiling and ``top``: an arrival folds into its anchors in
``O(specs)`` and can only raise them, a departure rebuilds only the
anchors it held.  Every stored value is a max/min over the entry set,
so the vector is bitwise identical whatever the order of adds and
removes — what lets crash recovery land on the exact same budget.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .model import ResourceSpec, canonical_resources

__all__ = [
    "PCPBlockingState",
    "compute_betas",
]

#: Priority key: (relative deadline, repr(task_id)).  Smaller sorts
#: first = higher priority; the repr tie-break keeps mixed-type task
#: ids totally ordered.
_Key = Tuple[float, str]

#: A tracked task: (relative deadline, canonical resource declarations).
_Entry = Tuple[float, Tuple[ResourceSpec, ...]]


class _Anchor:
    """The holders of one resource at one stage, summarized for Eq. 15.

    ``ceiling`` is the smallest holder key, ``tied`` the longest section
    among holders at exactly that key (a section never blocks its own
    key), ``top`` the longest section strictly below the ceiling,
    starting at ``0.0`` with ``>`` comparisons, and ``value`` the
    anchor's normalized blocking ``top / D_ceiling``.
    """

    __slots__ = ("holders", "ceiling", "tied", "top", "value")

    def __init__(self) -> None:
        self.holders: Dict[Hashable, Tuple[_Key, float]] = {}
        self.ceiling: Optional[_Key] = None
        self.tied = 0.0
        self.top = 0.0
        self.value = 0.0

    def fold(self, key: _Key, length: float) -> Tuple[_Key, float, float]:
        """``(ceiling, tied, top)`` with one more holder; no mutation."""
        ceiling, tied, top = self.ceiling, self.tied, self.top
        if ceiling is None or key < ceiling:
            if ceiling is not None and tied > top:
                top = tied
            return key, length, top
        if key == ceiling:
            return ceiling, (length if length > tied else tied), top
        return ceiling, tied, (length if length > top else top)

    def push(self, task_id: Hashable, key: _Key, length: float) -> float:
        """Track one holder; returns the (never smaller) anchor value."""
        self.holders[task_id] = (key, length)
        ceiling, self.tied, self.top = self.fold(key, length)
        self.ceiling = ceiling
        self.value = self.top / ceiling[0]
        return self.value

    def drop(self, task_id: Hashable) -> None:
        """Forget one holder and re-derive the summary if it moved."""
        key, length = self.holders.pop(task_id)
        ceiling = self.ceiling
        assert ceiling is not None
        if key > ceiling and length < self.top:
            # Neither the ceiling nor the longest blocking section left.
            return
        self.ceiling, self.tied, self.top = None, 0.0, 0.0
        for key, length in self.holders.values():
            self.ceiling, self.tied, self.top = self.fold(key, length)
        self.value = 0.0 if self.ceiling is None else self.top / self.ceiling[0]


def _stage_beta(anchors: Iterable[_Anchor]) -> float:
    beta = 0.0
    for anchor in anchors:
        if anchor.value > beta:
            beta = anchor.value
    return beta


def _push(
    anchors: List[Dict[str, _Anchor]], task_id: Hashable, key: _Key, spec: ResourceSpec
) -> float:
    """Track one section in its anchor; returns the anchor's new value."""
    stage = anchors[spec.stage]
    anchor = stage.get(spec.resource)
    if anchor is None:
        anchor = stage[spec.resource] = _Anchor()
    return anchor.push(task_id, key, spec.max_length)


def _index(
    tasks: Dict[Hashable, _Entry], num_stages: int
) -> Tuple[List[Dict[str, _Anchor]], Tuple[float, ...]]:
    """Anchor index and ``beta_j`` vector built from scratch."""
    anchors: List[Dict[str, _Anchor]] = [{} for _ in range(num_stages)]
    for task_id, (deadline, specs) in tasks.items():
        for spec in specs:
            _push(anchors, task_id, (deadline, repr(task_id)), spec)
    return anchors, tuple(_stage_beta(stage.values()) for stage in anchors)


def compute_betas(
    entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]],
    num_stages: int,
) -> Tuple[float, ...]:
    """Pure ``beta_j`` vector for an arbitrary ``(id, deadline, specs)`` set.

    Ground-truth recomputation used by the auditor and by static
    worst-case bounds (feed it the whole anticipated population instead
    of the admitted set).  Independent of iteration order.
    """
    state = PCPBlockingState(num_stages)
    state.load(entries)
    return state.betas()


class PCPBlockingState:
    """Online ``B_ij`` / ``beta_j`` bookkeeping over the admitted set.

    :meth:`add` and :meth:`remove` keep the exact blocking vector
    current in time independent of the admitted-set size;
    :meth:`preview` evaluates a tentative arrival without committing
    it, which is how the admission controller refuses an admit whose
    own critical sections would push ``sum_j beta_j`` out of the
    region.

    Args:
        num_stages: Pipeline length; every spec's ``stage`` must be
            below it.
    """

    def __init__(self, num_stages: int) -> None:
        if num_stages < 1:
            raise ValueError(f"num_stages must be >= 1, got {num_stages}")
        self.num_stages = num_stages
        self._tasks: Dict[Hashable, _Entry] = {}
        self._anchors: List[Dict[str, _Anchor]] = [{} for _ in range(num_stages)]
        self._betas: Tuple[float, ...] = (0.0,) * num_stages

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, task_id: Hashable) -> bool:
        return task_id in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def betas(self) -> Tuple[float, ...]:
        """Current normalized blocking vector ``(beta_1, ..., beta_N)``."""
        return self._betas

    def recompute(self) -> Tuple[float, ...]:
        """Ground-truth ``beta_j`` rebuilt from the tracked entries.

        The cached vector maintained across mutations must equal this
        bitwise at all times; :class:`repro.core.audit.ControllerAuditor`
        enforces exactly that.
        """
        return _index(self._tasks, self.num_stages)[1]

    def blocking_matrix(self) -> Dict[Hashable, Tuple[float, ...]]:
        """Raw ``B_ij`` per tracked task (diagnostics / audit detail).

        Straight from the definition: the longest section, at an anchor
        whose ceiling is at or above the victim's priority, held by a
        strictly lower-priority task.  Victims come in priority order.
        """
        victims = sorted(
            (((deadline, repr(task_id)), task_id)
             for task_id, (deadline, _) in self._tasks.items()),
            key=lambda victim: victim[0],
        )
        matrix: Dict[Hashable, Tuple[float, ...]] = {}
        for key, task_id in victims:
            row = []
            for stage in self._anchors:
                blocking = 0.0
                for anchor in stage.values():
                    assert anchor.ceiling is not None
                    if anchor.ceiling > key:
                        continue
                    for owner, length in anchor.holders.values():
                        if owner > key and length > blocking:
                            blocking = length
                row.append(blocking)
            matrix[task_id] = tuple(row)
        return matrix

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(
        self,
        task_id: Hashable,
        deadline: float,
        resources: Sequence[ResourceSpec] = (),
    ) -> Tuple[float, ...]:
        """Track an admitted task; returns the updated ``beta_j`` vector.

        ``O(specs)``: an arrival can only lower ceilings and lengthen
        ``top``, so each touched anchor's value never shrinks and the
        new ``beta_j`` is the old one maxed with the touched values.

        Raises:
            ValueError: If the task is already tracked, the deadline is
                not positive and finite, or a spec's stage is out of
                range.
        """
        if task_id in self._tasks:
            raise ValueError(f"task {task_id!r} already tracked")
        entry = self._validated(task_id, deadline, resources)
        self._tasks[task_id] = entry
        deadline, specs = entry
        if specs:
            key = (deadline, repr(task_id))
            betas = list(self._betas)
            for spec in specs:
                value = _push(self._anchors, task_id, key, spec)
                if value > betas[spec.stage]:
                    betas[spec.stage] = value
            self._betas = tuple(betas)
        return self._betas

    def load(
        self,
        entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]],
    ) -> Tuple[float, ...]:
        """Track many tasks at once.

        Equivalent to calling :meth:`add` per entry — the vector is a
        pure function of the entry set — with every entry validated
        before any is tracked.
        """
        staged: Dict[Hashable, _Entry] = {}
        for task_id, deadline, resources in entries:
            if task_id in self._tasks or task_id in staged:
                raise ValueError(f"task {task_id!r} already tracked")
            staged[task_id] = self._validated(task_id, deadline, resources)
        self._tasks.update(staged)
        self._anchors, self._betas = _index(self._tasks, self.num_stages)
        return self._betas

    def remove(self, task_id: Hashable) -> Tuple[float, ...]:
        """Drop a departed/expired task; unknown ids are a no-op.

        Removal can only shrink (or preserve) every ``beta_j``: the
        task's sections disappear, its ceilings relax, and it leaves
        the victim max — so a departure always restores a budget at
        least as large as before the matching arrival.  Costs the
        holders of the task's anchors plus the anchors at their stages.
        """
        entry = self._tasks.pop(task_id, None)
        if entry is None or not entry[1]:
            return self._betas
        betas = list(self._betas)
        for spec in entry[1]:
            stage = self._anchors[spec.stage]
            anchor = stage[spec.resource]
            anchor.drop(task_id)
            if not anchor.holders:
                del stage[spec.resource]
        for j in {spec.stage for spec in entry[1]}:
            betas[j] = _stage_beta(self._anchors[j].values())
        self._betas = tuple(betas)
        return self._betas

    def preview(
        self,
        task_id: Hashable,
        deadline: float,
        resources: Sequence[ResourceSpec] = (),
    ) -> Tuple[float, ...]:
        """``beta_j`` vector *if* the task were admitted; no mutation.

        Bitwise identical to what :meth:`add` with the same arguments
        would cache — the admission test evaluates the exact budget the
        controller will hold after committing.  ``O(specs)`` for a new
        id; a resource-free arrival returns the current vector.  A task
        id that is already tracked is overlaid (what-if re-admission,
        rebuilt from scratch); duplicate detection stays with the
        caller.
        """
        entry = self._validated(task_id, deadline, resources)
        if task_id in self._tasks:
            overlay = dict(self._tasks)
            overlay[task_id] = entry
            return _index(overlay, self.num_stages)[1]
        deadline, specs = entry
        if not specs:
            return self._betas
        key = (deadline, repr(task_id))
        betas = list(self._betas)
        for spec in specs:
            anchor = self._anchors[spec.stage].get(spec.resource)
            if anchor is None:
                continue  # a lone holder blocks nobody
            ceiling, _, top = anchor.fold(key, spec.max_length)
            value = top / ceiling[0]
            if value > betas[spec.stage]:
                betas[spec.stage] = value
        return tuple(betas)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _validated(
        self,
        task_id: Hashable,
        deadline: float,
        resources: Sequence[ResourceSpec],
    ) -> _Entry:
        if not math.isfinite(deadline) or deadline <= 0:
            raise ValueError(
                f"task {task_id!r}: deadline must be finite and > 0, got {deadline}"
            )
        specs = canonical_resources(resources)
        for spec in specs:
            if spec.stage >= self.num_stages:
                raise ValueError(
                    f"task {task_id!r}: resource {spec.resource!r} declared at "
                    f"stage {spec.stage}, pipeline has {self.num_stages} stages"
                )
        return (float(deadline), specs)
