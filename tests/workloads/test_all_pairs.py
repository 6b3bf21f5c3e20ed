"""One pin per (workload, stack) pair of the registry, against the
digests recorded in ``all_pairs.json``.

``stack_charges.json`` spells out the charge log of the six analytics
workloads on their three stacks; this file covers every registered pair
-- Table 4, streaming and scenario families, each on each of its stacks
-- with one sha256 over the charge log, the ``JobCost`` phases and the
result fields (``input_bytes``, ``metric_name``, ``metric_value``,
``details`` in key order).  A change to how a workload is dispatched or
how its result is assembled must leave every pin as recorded.
Re-record with ``PYTHONPATH=src python tests/workloads/test_all_pairs.py >
tests/workloads/all_pairs.json`` -- only for a deliberate change of what
a workload charges or reports.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core import registry
from test_stack_charges import CLUSTER, _plain, _StackRecorder

PAIRS = [(name, stack.lower())
         for name in registry.all_names()
         for stack in registry.info(name).stacks]


def pin(name: str, stack: str) -> str:
    workload = registry.create(name)
    ctx = _StackRecorder()
    result = workload.run(workload.prepare(1), ctx=ctx, cluster=CLUSTER,
                          stack=stack)
    record = _plain({
        "log": ctx.log,
        "phases": [asdict(p) for p in result.cost.phases],
        "input_bytes": result.input_bytes,
        "metric_name": result.metric_name,
        "metric_value": result.metric_value,
        "details": result.details,
    })
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(Path(__file__).with_name("all_pairs.json").read_text())


def test_every_pair_is_pinned(recorded):
    assert sorted(recorded) == sorted(f"{n}/{s}" for n, s in PAIRS)


@pytest.mark.parametrize("name,stack", PAIRS)
def test_pair_matches_its_pin(recorded, name, stack):
    assert pin(name, stack) == recorded[f"{name}/{stack}"]


if __name__ == "__main__":
    print(json.dumps({f"{n}/{s}": pin(n, s) for n, s in PAIRS}, indent=1))
