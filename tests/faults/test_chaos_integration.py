"""Harness-level chaos invariants.

The core guarantee of the fault layer: with recovery enabled, any fault
plan produces bit-identical workload *output* to the fault-free run --
only counters and modeled timings may differ.  Verified here for one
workload per engine family, plus event-sequence determinism and the
cache-key plumbing; process fan-out is
``tests/integration/test_determinism.py``.
"""

import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.faults import FaultPlan, diff_outputs, functional_fingerprint
from repro.faults.verify import TIMING_DETAIL_KEYS

#: One fast workload per engine family, with a plan arming the kinds
#: that family implements (exact `at=` triggers where probabilistic
#: rates might miss a short run's few opportunities).
FAMILY_POINTS = [
    ("mapreduce", "Grep", None,
     "task_crash:rate=0.5;straggler:rate=0.2;node_kill:node=1"),
    ("spark", "Sort", "spark", "task_crash:at=1"),
    ("bsp", "BFS", None, "rank_crash:at=2;msg_drop:rate=0.1"),
    ("nosql", "Write", None, "crash:at=700"),
    ("nosql-read", "Read", None, "block_corrupt:rate=0.05"),
    ("sql", "Select Query", None, "task_crash:rate=0.5"),
    ("sql-impala", "Aggregate Query", "impala", "task_crash:rate=1.0"),
    ("serving", "Nutch Server", None,
     "timeout:rate=0.1;straggler:rate=0.05;overload:rate=1.0"),
]


@pytest.fixture(scope="module")
def harness():
    return Harness(cache=None)


class TestOutputEquivalence:
    @pytest.mark.parametrize(
        "family,workload,stack,spec",
        FAMILY_POINTS, ids=[p[0] for p in FAMILY_POINTS])
    def test_recovered_run_matches_fault_free(self, harness, family,
                                              workload, stack, spec):
        clean = harness.run(RunSpec(workload=workload, stack=stack))
        chaos = harness.run(RunSpec(workload=workload, stack=stack,
                                    faults=spec))
        assert diff_outputs(clean, chaos) == [], (
            f"{workload} diverged under {spec}")
        assert chaos.fault_events, "plan should have injected something"
        assert clean.fault_events is None

    def test_no_recovery_divergence_is_observable(self, harness):
        clean = harness.run(RunSpec(workload="Grep"))
        chaos = harness.run(RunSpec(
            workload="Grep",
            faults=FaultPlan.parse("task_crash:rate=0.5", recovery=False)))
        assert diff_outputs(clean, chaos) != []


class TestEventDeterminism:
    SPEC = "task_crash:rate=0.5;straggler:rate=0.2;node_kill:node=1"

    def test_identical_specs_reproduce_event_sequences(self):
        runs = [
            Harness(cache=None).run(
                RunSpec(workload="Grep", faults=self.SPEC, seed=5))
            for _ in range(2)
        ]
        assert runs[0].fault_events == runs[1].fault_events
        assert runs[0].fault_events

    def test_seed_changes_fault_schedule(self):
        logs = [
            Harness(cache=None).run(RunSpec(
                workload="Grep", faults="task_crash:rate=0.5", seed=seed)
            ).fault_events
            for seed in (5, 6)
        ]
        assert logs[0] != logs[1]


class TestCacheKeying:
    def test_fault_plans_key_memo_and_cache(self):
        h = Harness(cache=None)
        base = RunSpec(workload="Grep").resolved(h)
        chaos = RunSpec(workload="Grep",
                        faults="task_crash:rate=0.5").resolved(h)
        norec = RunSpec(
            workload="Grep",
            faults=FaultPlan.parse("task_crash:rate=0.5", recovery=False),
        ).resolved(h)
        keys = {base.memo_key(), chaos.memo_key(), norec.memo_key()}
        assert len(keys) == 3
        cache_keys = {base.cache_key(), chaos.cache_key(), norec.cache_key()}
        assert len(cache_keys) == 3

    def test_faultless_key_layout_unchanged(self):
        # Fault-free specs must keep the legacy key shape so existing
        # cache entries stay valid.
        spec = RunSpec(workload="Grep").resolved(Harness(cache=None))
        assert all(not (isinstance(part, tuple) and part
                        and part[0] == "faults")
                   for part in spec.cache_key())

    def test_string_faults_normalized_to_plan(self):
        spec = RunSpec(workload="Grep", faults="task_crash:rate=0.5")
        assert isinstance(spec.faults, FaultPlan)
        assert spec.faults.recovery

    def test_fault_events_survive_the_disk_cache(self, tmp_path):
        from repro.core.store import Store

        cache = Store(str(tmp_path / "cache"))
        spec = RunSpec(workload="Select Query", faults="task_crash:rate=1.0")
        first = Harness(cache=cache).run(spec)
        second = Harness(cache=cache).run(spec)
        assert cache.hits >= 1
        assert second.fault_events == first.fault_events
        assert second.fault_events


class TestFingerprint:
    def test_timing_keys_excluded(self, harness):
        outcome = harness.run(RunSpec(workload="Nutch Server"))
        fingerprint = functional_fingerprint(outcome)
        assert not TIMING_DETAIL_KEYS & set(fingerprint["details"])
        assert fingerprint["workload"] == "Nutch Server"

    def test_diff_reports_changed_details(self, harness):
        clean = harness.run(RunSpec(workload="Grep"))
        chaos = harness.run(RunSpec(
            workload="Grep",
            faults=FaultPlan.parse("task_crash:rate=0.5", recovery=False)))
        diffs = diff_outputs(clean, chaos)
        assert any("matches" in d or "correct" in d for d in diffs)
