"""Protocol throughput, wall-clock (``pytest -m slow``).

The scale-4 YCSB-A stream (update-heavy, zipfian) sustains a floor of
protocol ops per wall second on every backend.  The floors are per
backend: the lsm adapter does real memtable and SSTable work and the sql
adapter binds one prepared statement per op, so the dict baseline bounds
what the protocol layer itself costs.
"""

import time

import pytest

from repro.scenarios import library
from repro.scenarios.driver import BACKEND_NAMES, run_scenario

#: Protocol ops per wall second, best of three warm runs.  Measured
#: dict ~74k, lsm ~39k, sql ~13k: the floors leave 7-8x headroom.
OPS_FLOORS = {"dict": 10_000.0, "lsm": 5_000.0, "sql": 1_500.0}

SCENARIO, SCALE, SEED = "ycsb-a", 4, 7


@pytest.mark.slow
def test_every_backend_sustains_its_floor():
    ops = len(library.build(SCENARIO, scale=SCALE, seed=SEED).ops)
    digests = set()
    for backend in BACKEND_NAMES:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            result = run_scenario(SCENARIO, backend=backend, scale=SCALE,
                                  seed=SEED)
            best = min(best, time.perf_counter() - start)
        digests.add(result.digest)
        rate = ops / max(best, 1e-9)
        assert rate >= OPS_FLOORS[backend], (
            f"{backend} sustained {rate:,.0f} ops/s "
            f"(floor {OPS_FLOORS[backend]:,.0f})")
    # Throughput is never bought with a different answer.
    assert len(digests) == 1
