"""Determinism invariants of the serving load plane.

Identical ``(seed, LoadProfile)`` must yield bit-identical arrival
timestamps and request mixes, serially and across repeated calls.
Through the harness under ``jobs=N`` -- the stream regenerated in
another process -- is ``tests/integration/test_determinism.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.node import SINGLE_NODE
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
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

    #: sha256 (first 16 hex digits) of times, kinds, service_mult,
    #: dup_mult and tail_u at seed 11, recorded when open-loop streams
    #: still drew think times after them: dropping that last draw left
    #: every other array as it was.
    OPEN_LOOP_DIGESTS = {
        "constant:rps=700:duration=3": "093d435bbb525c03",
        "diurnal:rps=400:peak=5": "316b461d7e927530",
        "flash:rps=900:peak=6": "78862519f7d27252",
        "sessions:rps=200:mean=6": "c948ed1a6c3253b1",
    }

    @pytest.mark.parametrize("spec", sorted(OPEN_LOOP_DIGESTS))
    def test_open_loop_streams_draw_no_think_times(self, spec, tmp_path):
        from repro.core.store import Store

        stream = generate_stream(LoadProfile.parse(spec), MIX, seed=11,
                                 store=False)
        assert stream.think is None
        digest = hashlib.sha256()
        for name in ("times", "kinds", "service_mult", "dup_mult", "tail_u"):
            digest.update(np.ascontiguousarray(getattr(stream, name)).tobytes())
        assert digest.hexdigest()[:16] == self.OPEN_LOOP_DIGESTS[spec]
        _, arrays = stream.to_arrays()
        assert "think" not in arrays
        stored = Store(str(tmp_path))
        generate_stream(LoadProfile.parse(spec), MIX, seed=11, store=stored)
        assert generate_stream(LoadProfile.parse(spec), MIX, seed=11,
                               store=stored).think is None

    def test_closed_loop_streams_keep_their_think_times(self):
        profile = LoadProfile.parse("constant:loop=closed:users=30:duration=5")
        stream = generate_stream(profile, MIX, seed=11, store=False)
        assert stream.times is None
        assert len(stream.think) == stream.size

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

