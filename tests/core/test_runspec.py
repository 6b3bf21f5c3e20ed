"""Unit tests for RunSpec: validation, resolution, memo and cache keys."""

import pytest

from repro.cluster.node import PAPER_CLUSTER, SINGLE_NODE
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.obs.metrics import METRICS
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645


class TestValidation:
    def test_defaults(self):
        spec = RunSpec(workload="Sort")
        assert spec.scale == 1
        assert spec.stack is None
        assert spec.trace is False

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            RunSpec(workload="Sort", scale=0)

    def test_fan_out_is_not_part_of_a_point(self):
        # Worker count belongs to Harness.run_many(jobs=), not the spec.
        with pytest.raises(TypeError):
            RunSpec(workload="Sort", jobs=2)

    def test_frozen(self):
        spec = RunSpec(workload="Sort")
        with pytest.raises(AttributeError):
            spec.scale = 2


class TestResolution:
    def test_resolved_fills_harness_defaults(self):
        harness = Harness(machine=XEON_E5645, seed=7)
        spec = RunSpec(workload="Sort").resolved(harness)
        assert spec.is_resolved
        assert spec.machine is XEON_E5645
        assert spec.cluster is harness.cluster
        assert spec.seed == 7
        assert spec.stack == "hadoop"   # Sort's default stack

    def test_explicit_fields_win(self):
        harness = Harness(machine=XEON_E5645, seed=7)
        spec = RunSpec(workload="Sort", machine=XEON_E5310, seed=3,
                       stack="spark").resolved(harness)
        assert spec.machine is XEON_E5310
        assert spec.seed == 3
        assert spec.stack == "spark"

    def test_harness_trace_is_sticky(self):
        harness = Harness(trace=True)
        assert RunSpec(workload="Sort").resolved(harness).trace is True
        assert RunSpec(workload="Sort", trace=True).resolved(
            Harness()).trace is True

    def test_standalone_resolution_without_harness(self):
        spec = RunSpec(workload="Sort", machine=XEON_E5645,
                       cluster=PAPER_CLUSTER).resolved()
        assert spec.is_resolved
        assert spec.seed == 0

    def test_explicit_seed_zero_beats_harness_seed(self):
        harness = Harness(seed=7)
        assert RunSpec(workload="Sort", seed=0).resolved(harness).seed == 0
        assert RunSpec(workload="Sort").resolved(harness).seed == 7

    def test_unknown_stack_raises(self):
        with pytest.raises(Exception):
            RunSpec(workload="Sort", stack="flink").resolved(Harness())


class TestKeys:
    def _resolved(self, **kwargs):
        return RunSpec(workload="Sort", **kwargs).resolved(Harness())

    def test_unresolved_keying_raises(self):
        with pytest.raises(ValueError):
            RunSpec(workload="Sort").memo_key()
        with pytest.raises(ValueError):
            RunSpec(workload="Sort").cache_key()

    def test_memo_key_round_trip(self):
        assert self._resolved().memo_key() == self._resolved().memo_key()
        assert (self._resolved(scale=2).memo_key()
                != self._resolved().memo_key())

    def test_cache_key_round_trip(self):
        assert self._resolved().cache_key() == self._resolved().cache_key()

    def test_trace_gets_distinct_keys(self):
        base = self._resolved()
        traced = self._resolved(trace=True)
        assert traced.cache_key() == base.cache_key() + ("trace",)
        assert traced.memo_key() != base.memo_key()

    def test_untraced_key_layout_is_backward_compatible(self):
        # PR1 disk-cache entries were keyed exactly like this; RunSpec
        # must not invalidate them for untraced runs.
        spec = self._resolved()
        assert spec.cache_key() == (
            "characterize", "Sort", 1, "hadoop",
            repr(spec.machine), repr(spec.cluster), 0,
        )

    def test_machine_distinguishes_keys(self):
        a = RunSpec(workload="Sort").resolved(Harness(machine=XEON_E5645))
        b = RunSpec(workload="Sort").resolved(Harness(machine=XEON_E5310))
        assert a.cache_key() != b.cache_key()
        assert a.memo_key() != b.memo_key()

    def test_seed_distinguishes_keys(self):
        a = self._resolved(seed=1)
        b = self._resolved(seed=2)
        assert a.cache_key() != b.cache_key()
        assert a.memo_key() != b.memo_key()

    def test_cluster_distinguishes_keys(self):
        a = self._resolved(cluster=PAPER_CLUSTER)
        b = self._resolved(cluster=SINGLE_NODE)
        assert a.cache_key() != b.cache_key()
        assert a.memo_key() != b.memo_key()


class TestHarnessIntegration:
    def test_run_accepts_spec_and_memoizes(self):
        harness = Harness()
        first = harness.run(RunSpec(workload="Grep"))
        second = harness.run(RunSpec(workload="Grep"))
        assert first is second

    def test_characterize_is_run_of_a_spec(self):
        harness = Harness()
        via_kwargs = harness.characterize("Grep")
        assert via_kwargs is harness.run(RunSpec(workload="Grep"))
        assert harness.run_many([RunSpec(workload="Grep")]) == [via_kwargs]

    def test_runs_differing_only_in_seed_do_not_collide(self):
        generated = METRICS.counter("datagen.text.generated")
        before = generated.value
        harness = Harness(artifacts=False)
        a = harness.run(RunSpec(workload="Grep", seed=1))
        b = harness.run(RunSpec(workload="Grep", seed=2))
        assert a is not b
        assert a.report.events != b.report.events
        assert generated.value == before + 2     # one corpus per seed
        assert harness.run(RunSpec(workload="Grep", seed=1)) is a
        assert generated.value == before + 2

    def test_runspec_exported_from_core(self):
        import repro.core

        assert repro.core.RunSpec is RunSpec
