"""Multi-backend scenario plane: one logical workload, many engines.

The unified :class:`~repro.scenarios.backend.StorageBackend` protocol
(read/write/delete/scan/begin/commit/rollback with consistency knobs)
plus the deterministic scenario library and driver that run the *same*
logical scenario -- YCSB A-F mixes, transactional orders, social feed,
IoT firehose -- against the LSM store, the SQL engine, or an in-memory
dict, apples-to-apples.  See ``docs/SCENARIOS.md``.
"""

from repro.scenarios.backend import (
    BackendError,
    BackendStats,
    Knobs,
    StorageBackend,
    key_bytes,
)
from repro.scenarios.driver import (
    BACKEND_NAMES,
    ScenarioResult,
    make_backend,
    run_scenario,
)
from repro.scenarios.library import SCENARIO_NAMES, Scenario, build

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "BackendStats",
    "Knobs",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioResult",
    "StorageBackend",
    "build",
    "key_bytes",
    "make_backend",
    "run_scenario",
]
