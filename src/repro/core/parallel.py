"""Process-parallel execution of characterization points.

The paper's evaluation matrix -- 19 workloads x several scales x multiple
stacks, each profiled independently (Section 6) -- is embarrassingly
parallel, but each point carries seconds of simulation.
:meth:`Harness.run_many` looks every point up in its memo and disk cache
itself and hands the missing ones here: this module only builds a
``ProcessPoolExecutor`` and maps the resolved specs to their
:class:`CharacterizationResult` objects, in order.

Determinism: a worker runs exactly the code the serial path runs -- a
fresh deterministic ``prepare(scale, seed)`` plus a fresh
``PerfContext(machine, seed)`` per point -- so event counts and metrics
are bit-identical to a serial run regardless of worker count or
scheduling order.  Workers share data sets, never prepared inputs: each
opens the parent's store, or keeps its own data-set memo when there is
none.  Traced points carry their span tree back in the pickled result,
so worker spans land in the parent's memo exactly as a serial run's
would.
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
# consecutive tasks in the same worker share data sets.
_WORKER_HARNESS = None


def _init_worker(store_root) -> None:
    """Build the per-worker harness.

    ``store_root`` is the root of the parent's input store (or False when
    the parent runs without one): workers open the *same* store, so a
    spec never implies per-worker datagen -- inputs the parent (or any
    sibling) already spilled are re-opened memory-mapped, sharing page
    cache across the whole pool.
    """
    global _WORKER_HARNESS
    _WORKER_HARNESS = Harness(artifacts=store_root)


def _run_point(spec: RunSpec):
    """Execute one resolved RunSpec in a worker process."""
    return _WORKER_HARNESS.run(spec)


def _mp_context():
    """Prefer fork (cheap on Linux; workers inherit loaded modules)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def execute_in_pool(harness, specs, jobs: int) -> list:
    """The outcomes of the resolved ``specs``, in order, executed on
    ``jobs`` worker processes that open ``harness``' input store."""
    store = harness.artifacts
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        mp_context=_mp_context(),
        initializer=_init_worker,
        initargs=(False if store is None else store.root,),
    ) as pool:
        return list(pool.map(_run_point, specs))
