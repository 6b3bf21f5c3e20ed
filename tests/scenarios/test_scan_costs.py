"""Simulated cost of scans, pinned across the ordered-scan rewrite.

The LSM store and the dict backend stopped walking the whole store per
scan; on a stream without buried deletes the rows a scan *examines* are
the same list as before, so every simulated charge must be too.
``scan_costs.json`` beside this file holds, recorded **on the commit
before that rewrite**: every phase field of ``ScenarioResult.cost`` plus
``work``, ``digest`` and ``records`` of ``ycsb-e`` / ``feed`` /
``orders`` / ``iot`` on all three backends at scale 2, seeds 0 and 3;
the same under a ``PerfContext`` (instruction charges become
``cpu_seconds``) for the scan-only stream on the two rewritten
backends; and ``repr(events)`` of the Cloud OLTP ``Scan`` workload
(the ``repr``: ``==`` does not see a ``float`` turning ``numpy.float64``,
the digests of ``bench/digests.json`` do).

One entry was re-recorded after the rewrite and is the only one allowed
to: ``iot`` on ``lsm``.  Its stream buries deletes, and the old adapter
over-fetched ``limit + num_tombstones`` rows and billed them all; see
:func:`test_iot_on_lsm_no_longer_bills_the_over_fetch`.

After an *intended* change to a simulated charge, re-record::

    PYTHONPATH=src python tests/scenarios/test_scan_costs.py --record
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.core.harness import Harness
from repro.scenarios.driver import BACKEND_NAMES, run_scenario
from repro.uarch import PerfContext, XEON_E5645

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "scan_costs.json")

SCALE = 2
#: ``(scenario, backend, seed, profiled)``: the three scan streams and
#: ``orders`` everywhere, plus the scan-only stream under a PerfContext
#: on the two backends whose scan was rewritten.
POINTS = [(scenario, backend, seed, False)
          for scenario in ("ycsb-e", "feed", "orders", "iot")
          for backend in BACKEND_NAMES for seed in (0, 3)]
POINTS += [("ycsb-e", backend, 0, True) for backend in ("lsm", "dict")]
SCAN_EVENTS = "Scan/1/events"

#: ``work["block_read_bytes"]`` of ``iot`` / ``lsm`` / scale 2 on the
#: commit before the rewrite, by seed: 1.65x what the scans examine (the
#: over-fetch grew with the tombstone count -- 2.7x at scale 4).
IOT_LSM_BLOCK_READ_BYTES_BEFORE = {0: 808813.0, 3: 869718.0}


def entry(scenario, backend, seed, profiled) -> str:
    return f"{scenario}/{backend}/{seed}" + ("/profiled" if profiled else "")


def observe(scenario, backend, seed, profiled) -> dict:
    ctx = PerfContext(XEON_E5645, seed=seed) if profiled else None
    result = run_scenario(scenario, backend=backend, scale=SCALE, seed=seed,
                          ctx=ctx)
    phases = [dataclasses.asdict(phase) for phase in result.cost.phases]
    return {
        # The sql backend charges one phase per statement (thousands):
        # pin them all by hash, and keep per-field sums to read a diff by.
        "phases": len(phases),
        "phases_sha256": hashlib.sha256(
            json.dumps(phases, sort_keys=True).encode()).hexdigest(),
        "totals": {name: sum(phase[name] for phase in phases)
                   for name in phases[0] if name != "name"},
        "work": result.work,
        "digest": result.digest,
        "records": result.records,
    }


def scan_workload_events() -> str:
    return repr(Harness(cache=False).characterize("Scan", scale=1).events)


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("point", POINTS, ids=lambda point: entry(*point))
def test_scenario_cost_and_work_match_the_record(point):
    assert observe(*point) == _golden()[entry(*point)]


def test_cloud_oltp_scan_events_repr_is_unchanged():
    assert scan_workload_events() == _golden()[SCAN_EVENTS]


@pytest.mark.parametrize("seed", sorted(IOT_LSM_BLOCK_READ_BYTES_BEFORE))
def test_iot_on_lsm_no_longer_bills_the_over_fetch(seed):
    """Same answer, same tombstones, fewer bytes: the scans used to be
    billed for ``limit + num_tombstones`` rows each."""
    lsm = run_scenario("iot", backend="lsm", scale=SCALE, seed=seed)
    reference = run_scenario("iot", backend="dict", scale=SCALE, seed=seed)
    assert lsm.digest == reference.digest
    assert lsm.work["tombstones"] > 0
    assert (lsm.work["block_read_bytes"]
            < IOT_LSM_BLOCK_READ_BYTES_BEFORE[seed])


def test_every_point_is_recorded():
    assert sorted(_golden()) == sorted(
        [entry(*point) for point in POINTS] + [SCAN_EVENTS])


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recorded = {entry(*point): observe(*point) for point in POINTS}
    recorded[SCAN_EVENTS] = scan_workload_events()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(recorded)} entries -> {GOLDEN_PATH}")
