"""Blocking-engine microbenchmarks for the online PCP bound.

Two costs the locking subsystem adds to the admission path:

- full ``beta_j`` recompute over the admitted set, swept across
  populations — the ground truth the auditor rebuilds from the
  admitted records.  It folds every critical section into its
  ``(stage, resource)`` anchor once, ``O(S + T)``; the assertion pins
  it against accidental regression to the naive ``O(tasks x
  sections)`` double loop;
- ``preview`` of one arrival — the exact extra work a locking
  controller spends deciding it.  It touches only the arrival's own
  anchors, ``O(specs)`` whatever the admitted-set size; a same-run
  ratio against a 100-task population pins that.

Run via ``make bench`` (folded into ``BENCH_core.json``) or, at
reduced iterations with a regression gate against the committed
baseline, via ``make bench-smoke``.
"""

import os
import random
import time

from repro.locking import PCPBlockingState, ResourceSpec

from conftest import run_once

NUM_STAGES = 3

#: Resource pool shared by the synthetic population.
RESOURCES = ("mtx-a", "mtx-b", "mtx-c", "mtx-d")

#: ``REPRO_BENCH_SMOKE=1`` shrinks the workloads so the CI regression
#: gate (``make bench-smoke``) finishes in seconds; the committed
#: baseline ``benchmarks/BASELINE_core.json`` was recorded in smoke
#: mode, so the gate compares like for like.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Admitted-set sweep for the recompute benchmark.
SWEEP = (100, 1000, 10_000)

#: Full recomputes measured per sweep point.
RECOMPUTE_REPEATS = (3 if SMOKE else 10)

#: Arrival previews measured at the largest population.
PREVIEW_ITERS = 50 if SMOKE else 400


def _populate(state, count, seed):
    """Bulk-track ``count`` synthetic tasks; ~60% declare 1-2 sections."""
    rng = random.Random(seed)
    entries = []
    for task_id in range(count):
        resources = []
        if rng.random() < 0.6:
            picks = rng.sample(
                [(s, r) for s in range(NUM_STAGES) for r in RESOURCES],
                rng.randrange(1, 3),
            )
            resources = [
                ResourceSpec(stage, resource, rng.uniform(0.0, 0.05))
                for stage, resource in picks
            ]
        entries.append((task_id, rng.uniform(0.25, 4.0), resources))
    state.load(entries)


def _recompute_seconds(state, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        state.recompute()
        best = min(best, time.perf_counter() - start)
    return best


def test_beta_recompute_sweep(benchmark):
    """Full ``beta_j`` recompute vs admitted-set size.

    Prints recomputes/sec at each population and asserts near-linear
    scaling: 100x the tasks must cost well under 1000x the time (the
    naive all-pairs bound would be ~10,000x).
    """
    results = {}

    def run():
        for count in SWEEP:
            state = PCPBlockingState(NUM_STAGES)
            _populate(state, count, seed=count)
            results[count] = _recompute_seconds(state, RECOMPUTE_REPEATS)
        return results

    run_once(benchmark, run)
    print("\nblocking-engine full beta recompute:")
    for count, seconds in results.items():
        print(
            f"  admitted {count:>6}: {seconds * 1e3:>9.3f} ms   "
            f"({1.0 / seconds:>10,.1f} recomputes/s)"
        )
    growth = results[10_000] / results[100]
    assert growth < 1000.0, (
        f"recompute cost grew {growth:.0f}x from 100 to 10k admitted tasks — "
        "the rebuild has regressed toward the quadratic double loop"
    )


def _candidates(count, seed):
    rng = random.Random(seed)
    return [
        (
            1_000_000 + i,
            rng.uniform(0.25, 4.0),
            [ResourceSpec(rng.randrange(NUM_STAGES), rng.choice(RESOURCES),
                          rng.uniform(0.0, 0.05))],
        )
        for i in range(count)
    ]


def _preview_all(state, candidates):
    checksum = 0.0
    for task_id, deadline, resources in candidates:
        checksum += state.preview(task_id, deadline, resources)[0]
    return checksum


def _per_preview_seconds(state, candidates, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _preview_all(state, candidates)
        best = min(best, time.perf_counter() - start)
    return best / len(candidates)


def test_admission_preview_at_10k(benchmark):
    """Per-arrival ``preview`` cost against a 10k-task admitted set.

    Also times the same previews against 100 admitted tasks, outside
    the benchmark fixture, and asserts the per-preview ratio stays
    under 10x: the cost must not grow with the admitted set.
    """
    state = PCPBlockingState(NUM_STAGES)
    _populate(state, 10_000, seed=7)
    candidates = _candidates(PREVIEW_ITERS, seed=11)

    run_once(benchmark, lambda: _preview_all(state, candidates))
    per_preview = benchmark.stats.stats.min / PREVIEW_ITERS
    print(
        f"\nadmission preview at 10k admitted: {per_preview * 1e3:.3f} ms "
        f"per arrival ({1.0 / per_preview:,.1f} previews/s)"
    )
    assert len(state) == 10_000  # previews never mutate

    small = PCPBlockingState(NUM_STAGES)
    _populate(small, 100, seed=7)
    at_100 = _per_preview_seconds(small, candidates, RECOMPUTE_REPEATS)
    at_10k = _per_preview_seconds(state, candidates, RECOMPUTE_REPEATS)
    ratio = at_10k / at_100
    print(f"preview cost 10k / 100 admitted: {ratio:.2f}x")
    assert ratio < 10.0, (
        f"preview cost grew {ratio:.1f}x from 100 to 10k admitted tasks — "
        "it has regressed from O(specs) toward a whole-set rebuild"
    )
