"""Determinism invariants of the serving load plane.

Identical ``(seed, LoadProfile)`` must yield bit-identical arrival
timestamps and request mixes -- serially, across repeated calls, and
through the harness under ``jobs=N`` (workers receive pickled resolved
specs, so the stream is regenerated in another process and must land on
the same bits).
"""

import numpy as np
import pytest

from repro.cluster.node import SINGLE_NODE
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.serving import ServingSimulation
from repro.serving.load import (
    LoadProfile,
    ServingOptions,
    generate_stream,
)
from repro.serving.vector import replay

MIX = (("read", 0.6), ("write", 0.4))


class TestStreamDeterminism:
    @pytest.mark.parametrize("spec", [
        "constant:rps=700:duration=3",
        "diurnal:rps=400:peak=5",
        "flash:rps=900:peak=6",
        "sessions:rps=200:mean=6",
    ])
    def test_identical_inputs_identical_bits(self, spec):
        profile = LoadProfile.parse(spec)
        a = generate_stream(profile, MIX, seed=11)
        b = generate_stream(profile, MIX, seed=11)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.kinds, b.kinds)
        assert np.array_equal(a.service_mult, b.service_mult)
        assert np.array_equal(a.tail_u, b.tail_u)
        assert a.mix_counts() == b.mix_counts()

    def test_seed_changes_the_stream(self):
        profile = LoadProfile(rps=700.0, duration=3.0)
        a = generate_stream(profile, MIX, seed=11)
        b = generate_stream(profile, MIX, seed=12)
        assert not np.array_equal(a.times, b.times)

    def test_profile_identity_keys_the_rng(self):
        # Two distinct profiles at the same seed draw different streams
        # (the generator is keyed on the profile string, not just seed).
        a = generate_stream(LoadProfile(rps=700.0), MIX, seed=11)
        b = generate_stream(LoadProfile(shape="diurnal", rps=700.0),
                            MIX, seed=11)
        assert not np.array_equal(a.times, b.times)

    def test_replay_is_deterministic(self):
        profile = LoadProfile(rps=5000.0, duration=2.0)
        stream = generate_stream(profile, MIX, seed=4)
        a = replay(stream, SINGLE_NODE, 0.002, policy="all")
        b = replay(stream, SINGLE_NODE, 0.002, policy="all")
        assert np.array_equal(a.latencies, b.latencies)
        assert (a.requests, a.completed, a.shed, a.hedged, a.retries) \
            == (b.requests, b.completed, b.shed, b.hedged, b.retries)
        assert a.mix == b.mix


class TestHarnessDeterminism:
    SERVING = "constant:duration=5@shed"

    def _specs(self):
        # rps is left unset: each workload fills its default sweep rate.
        return [
            RunSpec(workload="Nutch Server", seed=3, serving=self.SERVING),
            RunSpec(workload="Rubis Server", seed=3, serving=self.SERVING),
        ]

    def test_serial_and_parallel_bit_identical(self):
        serial = Harness(cache=None).run_many(self._specs(), jobs=1)
        parallel = Harness(cache=None).run_many(self._specs(), jobs=2)
        for a, b in zip(serial, parallel):
            assert a.result.metric_value == b.result.metric_value
            assert a.result.details == b.result.details
            assert a.events.instructions == b.events.instructions


class TestServingKeying:
    def test_memo_and_cache_keys_include_serving(self):
        harness = Harness()
        base = RunSpec(workload="Nutch Server").resolved(harness)
        shaped = RunSpec(workload="Nutch Server",
                         serving="flash:rps=3200@shed").resolved(harness)
        assert base.memo_key() != shaped.memo_key()
        assert base.cache_key() != shaped.cache_key()
        assert ("serving", "flash:rps=3200@shed") in shaped.cache_key()
        # Runs without serving options keep the legacy key layout.
        assert all(not (isinstance(part, tuple) and part[0] == "serving")
                   for part in base.cache_key())

    def test_serving_spec_string_parsed(self):
        spec = RunSpec(workload="Nutch Server", serving="diurnal:rps=64@hedge")
        assert isinstance(spec.serving, ServingOptions)
        assert spec.serving.policy == "hedge"

    def test_policy_order_cannot_split_the_cache(self):
        harness = Harness()
        a = RunSpec(workload="Nutch Server",
                    serving="constant@hedge+shed").resolved(harness)
        b = RunSpec(workload="Nutch Server",
                    serving="constant@shed+hedge").resolved(harness)
        assert a.cache_key() == b.cache_key()

    def test_harness_parses_serving_kwarg(self):
        harness = Harness(serving="flash:rps=100@retry")
        assert isinstance(harness.serving, ServingOptions)
        resolved = RunSpec(workload="Nutch Server").resolved(harness)
        assert resolved.serving is harness.serving


class TestLegacyDeprecation:
    def test_serving_simulation_warns(self):
        from tests.serving.test_serving import small_nutch

        with pytest.warns(DeprecationWarning, match="run_serving"):
            ServingSimulation(small_nutch(), sample_requests=10)
