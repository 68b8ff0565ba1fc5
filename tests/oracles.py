"""Independent reference implementations for the differential suites.

Production code keeps one lane per job; the lanes it replaced live on
here, unoptimized, as the oracles the fast code is held to bitwise:

- :func:`sweep_betas` / :func:`sweep_blocking_matrix` — the
  priority-space sweep that used to back
  :class:`repro.locking.PCPBlockingState`: per stage, sort the section
  intervals ``[ceiling, owner)`` and the victim keys, and answer every
  ``B_ij`` with a heap-backed stabbing max.  It never uses the
  ceiling-holder identity the online engine is built on.
- :func:`admit_many_scalar` — the per-task admission loop: expiry,
  contributions, candidate budget and the ``_fits`` chain exactly as
  :meth:`~repro.core.admission.PipelineAdmissionController.request`
  runs them, with the region value served from a per-stage cache.
"""

import heapq
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.admission import AdmissionDecision, PipelineAdmissionController
from repro.core.bounds import stage_delay_factor
from repro.core.numeric import approx_ge, approx_le
from repro.core.task import PipelineTask
from repro.locking.model import ResourceSpec

_Key = Tuple[float, str]
_Section = Tuple[_Key, _Key, float]


# ----------------------------------------------------------------------
# PCP blocking: the priority-space sweep
# ----------------------------------------------------------------------


def _priority_key(task_id: Hashable, deadline: float) -> _Key:
    return (deadline, repr(task_id))


def _stage_blocking(
    victims: Sequence[Tuple[_Key, float]],
    sections: Sequence[_Section],
    per_victim: Optional[List[float]] = None,
) -> float:
    """Normalized blocking ``beta_j = max_i B_ij / D_i`` for one stage.

    ``victims`` must be sorted ascending by key.  A section blocks the
    victims whose key lies in ``[ceiling, owner)``; sweeping victims in
    key order, sections activate once the ceiling is reached and retire
    at the owner's own key (a task is never blocked by its own section,
    nor by an equal-or-higher-priority one).  The active multiset is a
    lazy-deletion max-heap, so each ``B_ij`` is the current stabbing
    max.

    When ``per_victim`` is given, the raw ``B_ij`` of every victim is
    appended to it in sweep (key) order.
    """
    if not sections:
        if per_victim is not None:
            per_victim.extend(0.0 for _ in victims)
        return 0.0
    activate = sorted(sections)
    retire = sorted(sections, key=lambda s: s[1])
    ai = ri = 0
    active: Dict[float, int] = {}
    heap: List[float] = []
    beta = 0.0
    for key, deadline in victims:
        while ai < len(activate) and activate[ai][0] <= key:
            length = activate[ai][2]
            active[length] = active.get(length, 0) + 1
            heapq.heappush(heap, -length)
            ai += 1
        while ri < len(retire) and retire[ri][1] <= key:
            active[retire[ri][2]] -= 1
            ri += 1
        while heap and active.get(-heap[0], 0) <= 0:
            heapq.heappop(heap)
        blocking = -heap[0] if heap else 0.0
        if per_victim is not None:
            per_victim.append(blocking)
        normalized = blocking / deadline
        if normalized > beta:
            beta = normalized
    return beta


def _prepare(
    tasks: Dict[Hashable, Tuple[float, Tuple[ResourceSpec, ...]]],
    num_stages: int,
) -> Tuple[Dict[Hashable, Tuple[_Key, float]], List[List[_Section]]]:
    """Victim keys and per-stage section intervals for the sweep."""
    victims: Dict[Hashable, Tuple[_Key, float]] = {}
    ceilings: Dict[Tuple[int, str], _Key] = {}
    raw: List[Tuple[int, str, _Key, float]] = []
    for task_id, (deadline, resources) in tasks.items():
        key = _priority_key(task_id, deadline)
        victims[task_id] = (key, deadline)
        for spec in resources:
            anchor = (spec.stage, spec.resource)
            ceiling = ceilings.get(anchor)
            if ceiling is None or key < ceiling:
                ceilings[anchor] = key
            raw.append((spec.stage, spec.resource, key, spec.max_length))
    by_stage: List[List[_Section]] = [[] for _ in range(num_stages)]
    for stage, resource, owner, length in raw:
        by_stage[stage].append((ceilings[(stage, resource)], owner, length))
    return victims, by_stage


def _task_map(
    entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]],
) -> Dict[Hashable, Tuple[float, Tuple[ResourceSpec, ...]]]:
    return {
        task_id: (float(deadline), tuple(specs))
        for task_id, deadline, specs in entries
    }


def sweep_betas(
    entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]],
    num_stages: int,
) -> Tuple[float, ...]:
    """``beta_j`` of an ``(id, deadline, specs)`` set by the sweep."""
    tasks = _task_map(entries)
    if not tasks:
        return (0.0,) * num_stages
    victims, by_stage = _prepare(tasks, num_stages)
    if all(not sections for sections in by_stage):
        return (0.0,) * num_stages
    sorted_victims = sorted(victims.values())
    return tuple(
        _stage_blocking(sorted_victims, by_stage[j]) for j in range(num_stages)
    )


def sweep_blocking_matrix(
    entries: Iterable[Tuple[Hashable, float, Sequence[ResourceSpec]]],
    num_stages: int,
) -> Dict[Hashable, Tuple[float, ...]]:
    """Raw ``B_ij`` per task of an ``(id, deadline, specs)`` set by the sweep."""
    tasks = _task_map(entries)
    victims, by_stage = _prepare(tasks, num_stages)
    order = [
        task_id
        for _, task_id in sorted(
            (key, task_id) for task_id, (key, _) in victims.items()
        )
    ]
    sorted_victims = [victims[task_id] for task_id in order]
    columns: List[List[float]] = []
    for j in range(num_stages):
        column: List[float] = []
        _stage_blocking(sorted_victims, by_stage[j], per_victim=column)
        columns.append(column)
    return {
        task_id: tuple(columns[j][i] for j in range(num_stages))
        for i, task_id in enumerate(order)
    }


# ----------------------------------------------------------------------
# Admission: the per-task loop
# ----------------------------------------------------------------------


def _expire_cached(
    controller: PipelineAdmissionController, now: float, cache: List[float]
) -> None:
    """``controller.expire(now)``, refreshing the cache of touched stages."""
    for j, tracker in enumerate(controller.trackers):
        if tracker.expire_until(now):
            cache[j] = stage_delay_factor(min(tracker.value, 1.0))
    heap = controller._expiry_heap
    while heap and heap[0][0] <= now:
        _, task_id = heapq.heappop(heap)
        record = controller._admitted.get(task_id)
        if record is not None and record.expiry <= now:
            del controller._admitted[task_id]
            controller._locking_discard(task_id)


def admit_many_scalar(
    controller: PipelineAdmissionController,
    tasks: Sequence[PipelineTask],
    times: Optional[Sequence[float]] = None,
) -> List[AdmissionDecision]:
    """Decide ``tasks`` one at a time, as sequential ``request`` calls do.

    Each candidate is tested against its own budget — the blocking
    preview on a locking controller — with the plain ``_fits`` chain,
    and an id still in flight gets a ``duplicate`` decision before its
    timestamp expires anything.
    """
    task_list = list(tasks)
    time_list = (
        [task.arrival_time for task in task_list]
        if times is None
        else [float(t) for t in times]
    )
    trackers = controller.trackers
    cache = [stage_delay_factor(min(t.value, 1.0)) for t in trackers]
    decisions: List[AdmissionDecision] = []
    last_now: Optional[float] = None
    for task, now in zip(task_list, time_list):
        record = controller._admitted.get(task.task_id)
        if record is not None and record.expiry > now:
            decisions.append(
                AdmissionDecision(
                    admitted=False, region_value=sum(cache), duplicate=True
                )
            )
            continue
        if last_now is None or now > last_now:
            _expire_cached(controller, now, cache)
            last_now = now
        contributions = controller._contributions(task)
        budget = controller._candidate_budget(task)
        fits = budget is not None
        if fits:
            value = 0.0
            for tracker, extra in zip(trackers, contributions):
                u = tracker.value + extra
                if approx_ge(u, 1.0):
                    fits = False
                    break
                value += stage_delay_factor(u)
                if not approx_le(value, budget):
                    fits = False
                    break
        if fits:
            controller._install(task, contributions)
            for j, tracker in enumerate(trackers):
                cache[j] = stage_delay_factor(min(tracker.value, 1.0))
        decisions.append(AdmissionDecision(admitted=fits, region_value=sum(cache)))
    return decisions


__all__ = [
    "admit_many_scalar",
    "sweep_betas",
    "sweep_blocking_matrix",
]
