"""Backend equivalence: the tentpole invariant of the scenario plane.

The same deterministic scenario must produce the *identical* logical
answer -- the digest over every read result and transaction outcome --
on every backend and for every knob combination.  That it is the same
however the run executes (``jobs=2``, the disk cache) is
``tests/integration/test_determinism.py``.
"""

import dataclasses

import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.scenarios import Knobs, library
from repro.scenarios.driver import BACKEND_NAMES, run_scenario

ALL_SCENARIOS = library.SCENARIO_NAMES


class TestLibraryDeterminism:
    def test_same_seed_same_stream(self):
        a = library.build("ycsb-a", scale=1, seed=42)
        b = library.build("ycsb-a", scale=1, seed=42)
        assert a.preload == b.preload
        assert a.ops == b.ops

    def test_different_seed_different_stream(self):
        a = library.build("ycsb-a", seed=1)
        b = library.build("ycsb-a", seed=2)
        assert a.ops != b.ops

    def test_unknown_scenario_rejected(self):
        for _ in range(2):      # on every call: the memo keeps no errors
            with pytest.raises(ValueError, match="unknown scenario"):
                library.build("ycsb-z")
            with pytest.raises(ValueError, match="scale"):
                library.build("ycsb-a", scale=0)

    def test_build_is_memoized_and_the_memo_is_safe(self):
        """``build`` hands every caller the same object, so it must be
        keyed on all three arguments and immutable all the way down."""
        first = library.build("iot", scale=2, seed=5)
        assert library.build("iot", scale=2, seed=5) is first
        for other in (library.build("iot", scale=2, seed=6),
                      library.build("iot", scale=3, seed=5),
                      library.build("feed", scale=2, seed=5)):
            assert other != first
        # Evicting it and building again gives an equal value.
        library.build.cache_clear()
        again = library.build("iot", scale=2, seed=5)
        assert again is not first and again == first

        with pytest.raises(dataclasses.FrozenInstanceError):
            first.ops = ()
        assert type(first.preload) is tuple and type(first.ops) is tuple
        assert all(type(row) is tuple for row in first.preload + first.ops)
        assert all(type(field) in (str, int)
                   for row in first.preload + first.ops for field in row)
        # A derived view is built per call, not shared.
        first.op_counts().clear()
        assert first.op_counts()

    def test_mixes_match_ycsb_definitions(self):
        counts = library.build("ycsb-c").op_counts()
        assert set(counts) == {"read"}          # C is read-only
        counts = library.build("ycsb-e").op_counts()
        assert counts["scan"] > 15 * counts.get("write", 1)  # E is scans
        counts = library.build("orders").op_counts()
        assert counts["begin"] == counts["commit"] + counts["rollback"]
        assert counts["rollback"] > 0

    def test_scale_grows_stream(self):
        small = library.build("ycsb-a", scale=1)
        big = library.build("ycsb-a", scale=4)
        assert len(big.ops) == 4 * len(small.ops)
        assert len(big.preload) == 4 * len(small.preload)


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_identical_digest_across_backends(self, name):
        results = [run_scenario(name, backend=be, seed=3)
                   for be in BACKEND_NAMES]
        digests = {r.digest for r in results}
        assert len(digests) == 1, {r.backend: r.digest for r in results}
        # The logical state agrees too, not just the read stream.
        assert len({r.records for r in results}) == 1

    @pytest.mark.parametrize("knobs", [
        "wal=off",
        "consistency=eventual",
        "commit=write-behind",
        "consistency=eventual,commit=write-behind",
        "wal=off,consistency=eventual,commit=write-behind",
    ])
    def test_knob_combinations_stay_equivalent(self, knobs):
        digests = {
            be: run_scenario("ycsb-a", backend=be, knobs=Knobs.parse(knobs),
                             seed=3).digest
            for be in BACKEND_NAMES
        }
        assert len(set(digests.values())) == 1, digests

    def test_eventual_write_behind_changes_the_answer(self):
        """The consistency knob must be observable -- stale reads under
        eventual + write-behind see different values than ryw."""
        ryw = run_scenario("ycsb-a", backend="dict", seed=3).digest
        eventual = run_scenario(
            "ycsb-a", backend="dict", seed=3,
            knobs=Knobs.parse("consistency=eventual,commit=write-behind"),
        ).digest
        assert ryw != eventual

    def test_seed_stability(self):
        a = run_scenario("orders", backend="lsm", seed=11)
        b = run_scenario("orders", backend="lsm", seed=11)
        assert a.digest == b.digest
        assert a.counts == b.counts
        assert run_scenario("orders", backend="lsm", seed=12).digest != a.digest


class TestHarnessEquivalence:
    def test_memo_key_distinguishes_backend_and_seed(self):
        harness = Harness(cache=False)

        def key(stack, seed):
            spec = RunSpec(workload="Scenario YCSB", scale=1, stack=stack,
                           seed=seed).resolved(harness)
            return spec.memo_key()

        base = key("dict", 0)
        assert base != key("lsm", 0)
        assert base != key("dict", 1)
        assert base == key("dict", 0)
