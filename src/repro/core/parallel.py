"""Process-parallel execution of characterization points.

The paper's evaluation matrix -- 19 workloads x several scales x multiple
stacks, each profiled independently (Section 6) -- is embarrassingly
parallel, but each point carries seconds of simulation.  This module fans
the points of :meth:`Harness.run_many` that are missing from both the
in-memory memo and the disk cache across a
``ProcessPoolExecutor`` and merges the returned
:class:`CharacterizationResult` objects back into the calling harness'
memo, so every downstream consumer (figures, tables, export, ranking)
is unchanged.

Determinism: a worker runs exactly the code the serial path runs -- a
fresh deterministic ``prepare(scale, seed)`` plus a fresh
``PerfContext(machine, seed)`` per point -- so event counts and metrics
are bit-identical to a serial run regardless of worker count or
scheduling order.  Traced points carry their span tree back in the
pickled result, so worker spans land in the parent's memo exactly as a
serial run's would.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from repro.core.harness import Harness
from repro.core.runspec import RunSpec


def default_jobs() -> int:
    """One worker per available CPU."""
    return os.cpu_count() or 1


# One harness per worker process, built once by the pool initializer so
# consecutive tasks in the same worker share prepared inputs.
_WORKER_HARNESS = None


def _init_worker(machine, cluster, seed, store_root=False) -> None:
    """Build the per-worker harness.

    ``store_root`` is the root of the parent's input store (or False when
    the parent runs without one): workers open the *same* store, so a
    spec never implies per-worker datagen -- inputs the parent (or any
    sibling) already spilled are re-opened memory-mapped, sharing page
    cache across the whole pool.
    """
    global _WORKER_HARNESS
    _WORKER_HARNESS = Harness(machine=machine, cluster=cluster, seed=seed,
                              artifacts=store_root)


def _run_point(spec: RunSpec):
    """Execute one resolved RunSpec in a worker process."""
    return _WORKER_HARNESS.run(spec)


def _mp_context():
    """Prefer fork (cheap on Linux; workers inherit loaded modules)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def parallel_characterize(harness, specs, jobs: int = None) -> None:
    """Fill ``harness``' memo for every missing point of ``specs``.

    ``specs`` is an iterable of :class:`RunSpec` objects.  Points
    already memoized or present in the disk cache are absorbed without
    spawning workers; if at most one point is actually missing, it is
    left for the caller's serial path (a pool would only add overhead).
    """
    jobs = jobs or harness.jobs
    missing = []
    seen = set()
    for spec in specs:
        spec = spec.resolved(harness)
        key = spec.memo_key()
        if key in harness._cache or key in seen:
            continue
        cached = harness._load_cached(spec)
        if cached is not None:
            harness._cache[key] = cached
            continue
        seen.add(key)
        missing.append((key, spec))
    if len(missing) <= 1 or jobs <= 1:
        return

    workers = min(jobs, len(missing))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_mp_context(),
        initializer=_init_worker,
        initargs=(harness.machine, harness.cluster, harness.seed,
                  harness.artifacts.root if harness.artifacts else False),
    ) as pool:
        outcomes = list(pool.map(_run_point, [spec for _, spec in missing]))
    for (key, spec), outcome in zip(missing, outcomes):
        harness._cache[key] = outcome
        harness._store_cached(spec, outcome)

