"""The streaming chaos contract, end to end through the harness.

For every registered streaming workload: any recovery-enabled fault
plan must commit bit-identical window output to the fault-free run
(exactly-once), serially and under process fan-out; the same plan in
at-least-once mode must *visibly* emit duplicate windows (the negative
control proving the transactional sink is doing real work).
"""

import pytest

from repro.core import registry
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.faults import FaultPlan, diff_outputs

STREAMING = registry.streaming_names()

#: Recovery-enabled plans that must leave output bit-identical.
#: operator_crash fires mid-window by construction (windows span ~4
#: source batches, crashes tick per processed batch).
EXACTLY_ONCE_PLANS = [
    "operator_crash:rate=0.1",
    "channel_drop:rate=0.3",
    "operator_crash:rate=0.1;channel_drop:rate=0.2;watermark_skew:factor=3",
]

#: The duplicate demonstration plan: crashes with a checkpoint cadence
#: wide enough that restores rewind past committed windows.
DUPLICATE_PLAN = "operator_crash:rate=0.1 [ckpt=24]"


@pytest.fixture(scope="module")
def harness():
    return Harness(cache=None)


class TestRegistryIntegration:
    def test_streaming_family_is_an_extension(self):
        assert len(registry.workload_names()) == 19
        assert set(STREAMING) == {
            "Streaming WordCount", "Streaming Grep", "Streaming Sessions"}
        # Extension tiers append after the paper's 19 in registration
        # order: streaming first, then the scenario family.
        assert registry.all_names()[19:22] == STREAMING

    @pytest.mark.parametrize("name", STREAMING)
    def test_constructible_with_both_modes(self, name):
        workload = registry.create(name)
        assert workload.info.metric == "DPS"
        assert set(workload.info.stacks) \
            == {"exactly-once", "at-least-once"}

    def test_fault_free_runs_are_correct(self, harness):
        for name in STREAMING:
            outcome = harness.run(RunSpec(workload=name))
            details = outcome.result.details
            assert details["correct"], f"{name}: {details}"
            assert details["events"] == details["expected_events"]
            assert details["duplicate_windows"] == 0
            assert details["checkpoints"] > 0


class TestExactlyOnceInvariant:
    @pytest.mark.parametrize("name", STREAMING)
    @pytest.mark.parametrize("spec", EXACTLY_ONCE_PLANS)
    def test_recovered_run_matches_fault_free(self, harness, name, spec):
        clean = harness.run(RunSpec(workload=name))
        chaos = harness.run(RunSpec(workload=name, faults=spec))
        assert diff_outputs(clean, chaos) == [], (
            f"{name} diverged under {spec}")
        assert chaos.fault_events, "plan should have injected something"

    @pytest.mark.parametrize("name", STREAMING)
    def test_invariant_holds_under_process_fanout(self, name):
        spec = EXACTLY_ONCE_PLANS[0]
        specs = [RunSpec(workload=name),
                 RunSpec(workload=name, faults=spec)]
        serial = Harness(cache=None).run_many(specs, jobs=1)
        parallel = Harness(cache=None).run_many(specs, jobs=2)
        assert diff_outputs(parallel[0], parallel[1]) == []
        for a, b in zip(serial, parallel):
            assert a.result.details["digest"] == b.result.details["digest"]
            assert a.fault_events == b.fault_events

    @pytest.mark.parametrize("name", STREAMING)
    def test_no_recovery_divergence_is_observable(self, harness, name):
        clean = harness.run(RunSpec(workload=name))
        chaos = harness.run(RunSpec(
            workload=name,
            faults=FaultPlan.parse("operator_crash:rate=0.1",
                                   recovery=False)))
        assert diff_outputs(clean, chaos) != []


class TestAtLeastOnceNegativeControl:
    @pytest.mark.parametrize("name", STREAMING)
    def test_replay_emits_duplicates(self, harness, name):
        outcome = harness.run(RunSpec(
            workload=name, stack="at-least-once", faults=DUPLICATE_PLAN))
        details = outcome.result.details
        assert details["restores"] > 0
        assert details["duplicate_windows"] > 0, (
            f"{name}: at-least-once replay should re-commit windows")

    @pytest.mark.parametrize("name", STREAMING)
    def test_same_plan_is_clean_in_exactly_once(self, harness, name):
        clean = harness.run(RunSpec(workload=name))
        chaos = harness.run(RunSpec(workload=name, faults=DUPLICATE_PLAN))
        assert diff_outputs(clean, chaos) == []
        assert chaos.result.details["duplicate_windows"] == 0


class TestCacheKeying:
    def test_mode_and_plan_key_the_memo(self):
        h = Harness(cache=None)
        variants = {
            RunSpec(workload="Streaming WordCount").resolved(h).memo_key(),
            RunSpec(workload="Streaming WordCount",
                    stack="at-least-once").resolved(h).memo_key(),
            RunSpec(workload="Streaming WordCount",
                    faults=DUPLICATE_PLAN).resolved(h).memo_key(),
            RunSpec(workload="Streaming WordCount",
                    faults=EXACTLY_ONCE_PLANS[0]).resolved(h).memo_key(),
        }
        assert len(variants) == 4

    def test_results_survive_the_disk_cache(self, tmp_path):
        from repro.core.store import Store

        cache = Store(str(tmp_path / "cache"))
        spec = RunSpec(workload="Streaming Grep",
                       faults=EXACTLY_ONCE_PLANS[0])
        first = Harness(cache=cache).run(spec)
        second = Harness(cache=cache).run(spec)
        assert cache.hits >= 1
        assert second.result.details["digest"] \
            == first.result.details["digest"]
        assert second.fault_events == first.fault_events
