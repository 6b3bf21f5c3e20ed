"""Unit tests for the serving load plane: profiles, streams, replay."""

import numpy as np
import pytest

from repro.cluster.node import MIXED_CLUSTER, SINGLE_NODE
from repro.errors import InputError
from repro.serving.load import (
    LoadProfile,
    POLICY_TOKENS,
    ServingOptions,
    TIMEOUT_SECONDS,
    canonical_policy,
    generate_stream,
    policy_tokens,
)
from repro.serving.vector import replay

#: A two-op request mix for stream tests.
MIX = (("read", 0.7), ("write", 0.3))


class TestLoadProfile:
    def test_default_renders_bare_shape(self):
        assert str(LoadProfile()) == "constant"

    @pytest.mark.parametrize("spec", [
        "constant",
        "constant:rps=2000",
        "diurnal:rps=800:peak=6:duration=40",
        "flash:rps=3200:peak=8:start=0.3:width=0.2",
        "sessions:rps=500:mean=12:alpha=1.8:think=0.5",
        "constant:rps=100:loop=closed:users=50",
        "constant:rps=64:cap=5000",
    ])
    def test_parse_str_round_trip(self, spec):
        profile = LoadProfile.parse(spec)
        assert LoadProfile.parse(str(profile)) == profile

    def test_parse_accepts_long_names(self):
        short = LoadProfile.parse("flash:peak=8:start=0.2:width=0.1")
        long = LoadProfile.parse(
            "flash:peak_factor=8:flash_start=0.2:flash_width=0.1")
        assert short == long

    def test_parse_is_idempotent_on_profiles(self):
        profile = LoadProfile(shape="diurnal", rps=100)
        assert LoadProfile.parse(profile) is profile

    def test_unknown_shape_rejected(self):
        with pytest.raises(InputError, match="unknown profile shape"):
            LoadProfile.parse("sawtooth:rps=100")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InputError, match="unknown parameter"):
            LoadProfile.parse("constant:qps=100")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(InputError, match="malformed parameter"):
            LoadProfile.parse("constant:rps")

    @pytest.mark.parametrize("spec", ["flash:rps=abc", "constant:cap=1.5"])
    def test_non_number_rejected(self, spec):
        with pytest.raises(InputError, match="is not"):
            LoadProfile.parse(spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(InputError):
            LoadProfile.parse("   ")

    @pytest.mark.parametrize("kwargs", [
        dict(rps=-1.0),
        dict(duration=0.0),
        dict(loop="pipelined"),
        dict(users=-2),
        dict(peak_factor=0.5),
        dict(flash_start=1.0),
        dict(flash_start=0.9, flash_width=0.2),
        dict(session_alpha=1.0),
        dict(max_requests=0),
        dict(shape="square"),
    ])
    def test_field_validation(self, kwargs):
        with pytest.raises(InputError):
            LoadProfile(**kwargs)

    def test_with_rate_fills_only_unset(self):
        assert LoadProfile().with_rate(250.0).rps == 250.0
        pinned = LoadProfile(rps=100.0)
        assert pinned.with_rate(250.0) is pinned


class TestPolicies:
    def test_canonical_order_is_stable(self):
        assert policy_tokens("hedge+shed") == ("shed", "hedge")
        assert canonical_policy("retry+hedge+shed") == "shed+hedge+retry"

    def test_aliases(self):
        assert policy_tokens("none") == ()
        assert policy_tokens("") == ()
        assert policy_tokens(None) == ()
        assert policy_tokens("all") == POLICY_TOKENS

    def test_duplicates_collapse(self):
        assert canonical_policy("shed+shed") == "shed"

    def test_unknown_policy_rejected(self):
        with pytest.raises(InputError, match="unknown policy"):
            policy_tokens("panic")


class TestServingOptions:
    def test_str_round_trip(self):
        options = ServingOptions(profile="flash:rps=3200", policy="hedge+shed")
        assert str(options) == "flash:rps=3200@shed+hedge"
        assert ServingOptions.parse(str(options)) == options

    def test_parse_without_policy_defaults_none(self):
        options = ServingOptions.parse("diurnal:rps=2000")
        assert options.policy == "none"
        assert options.profile.shape == "diurnal"

    def test_profile_string_coerced(self):
        options = ServingOptions(profile="constant:rps=64")
        assert isinstance(options.profile, LoadProfile)
        assert options.profile.rps == 64


class TestGenerateStream:
    def test_rateless_profile_rejected(self):
        with pytest.raises(ValueError, match="no rate"):
            generate_stream(LoadProfile(), MIX, seed=0)

    def test_constant_stream_geometry(self):
        profile = LoadProfile(rps=500.0, duration=4.0)
        stream = generate_stream(profile, MIX, seed=1)
        assert stream.size == 2000
        assert stream.duration == 4.0
        assert stream.offered_rps == pytest.approx(500.0)
        times = stream.times
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0 and times[-1] <= 4.0

    def test_mix_follows_probabilities(self):
        profile = LoadProfile(rps=1000.0, duration=10.0)
        stream = generate_stream(profile, MIX, seed=2)
        counts = stream.mix_counts()
        assert counts["read"] + counts["write"] == stream.size
        assert counts["read"] / stream.size == pytest.approx(0.7, abs=0.03)

    def test_diurnal_mass_concentrates_at_midday(self):
        profile = LoadProfile(shape="diurnal", rps=800.0, duration=10.0,
                              peak_factor=4.0)
        stream = generate_stream(profile, MIX, seed=3)
        times = stream.times
        center = ((times >= 2.5) & (times < 7.5)).sum()
        edges = stream.size - center
        # Analytic center/edge mass ratio for peak=4 is ~2.2.
        assert center > 1.7 * edges

    def test_flash_window_rate_ratio(self):
        profile = LoadProfile(shape="flash", rps=400.0, duration=5.0,
                              peak_factor=5.0, flash_start=0.4,
                              flash_width=0.2)
        stream = generate_stream(profile, MIX, seed=4)
        times = stream.times
        inside = ((times >= 2.0) & (times < 3.0)).sum()
        outside = stream.size - inside
        density_ratio = (inside / 1.0) / (outside / 4.0)
        assert density_ratio == pytest.approx(5.0, rel=0.15)

    def test_sessions_are_bursty(self):
        profile = LoadProfile(shape="sessions", rps=100.0, duration=10.0,
                              session_mean=10.0, think_seconds=0.05)
        stream = generate_stream(profile, MIX, seed=5)
        times = stream.times
        assert np.all(np.diff(times) >= 0)
        assert times[-1] < profile.duration
        # Index of dispersion of binned counts: 1 for Poisson, >> 1 for
        # clustered session arrivals.
        bins = np.histogram(times, bins=50, range=(0, 10.0))[0]
        dispersion = bins.var() / bins.mean()
        assert dispersion > 2.0

    def test_cap_shortens_window_at_same_rate(self):
        profile = LoadProfile(rps=2000.0, duration=20.0, max_requests=20000)
        stream = generate_stream(profile, MIX, seed=6)
        assert stream.size == 20000
        assert stream.duration == pytest.approx(10.0)
        # The cap never thins the stream: offered rate is preserved.
        assert stream.offered_rps == pytest.approx(2000.0)

    def test_closed_loop_defers_arrivals(self):
        profile = LoadProfile(rps=100.0, loop="closed", think_seconds=0.5,
                              max_requests=400)
        stream = generate_stream(profile, MIX, seed=7)
        assert stream.times is None
        # Little's law sizing: N = rate * think.
        assert stream.users == 50
        assert stream.size == 400

    def test_closed_loop_explicit_users(self):
        profile = LoadProfile(loop="closed", users=16, max_requests=100)
        stream = generate_stream(profile, MIX, seed=8)
        assert stream.users == 16


class TestReplayStream:
    SERVICE = 0.002  # 12-core single node => 6000 rps capacity

    def _stream(self, rps, duration=4.0, seed=0, **kwargs):
        profile = LoadProfile(rps=rps, duration=duration, **kwargs)
        return generate_stream(profile, MIX, seed=seed)

    def test_below_saturation_everything_completes(self):
        stream = self._stream(500.0)
        outcome = replay(stream, SINGLE_NODE, self.SERVICE)
        assert outcome.completed == outcome.requests == stream.size
        assert outcome.shed == outcome.failed == 0
        assert len(outcome.latencies) == outcome.completed
        assert outcome.busy_cpu_seconds > 0
        assert outcome.makespan >= outcome.duration
        assert outcome.achieved_rps == pytest.approx(500.0, rel=0.02)
        # Client latency includes the NIC wire legs on top of service.
        assert outcome.latencies.min() > self.SERVICE * 0.01

    def test_mix_counts_issued_requests(self):
        stream = self._stream(300.0)
        outcome = replay(stream, SINGLE_NODE, self.SERVICE)
        assert outcome.mix == stream.mix_counts()
        assert sum(outcome.mix.values()) == outcome.requests

    def test_shed_policy_bounds_queueing(self):
        stream = self._stream(18000.0, duration=1.0)
        plain = replay(stream, SINGLE_NODE, self.SERVICE)
        shed = replay(stream, SINGLE_NODE, self.SERVICE,
                      policy="shed", slo_seconds=0.2)
        assert shed.shed > 0
        assert shed.shed + shed.completed == shed.requests
        assert np.quantile(shed.latencies, 0.99) \
            < np.quantile(plain.latencies, 0.99)

    def test_hedge_policy_duplicates_slow_requests(self):
        stream = self._stream(1000.0, duration=6.0)
        outcome = replay(stream, SINGLE_NODE, self.SERVICE,
                         policy="hedge")
        plain = replay(stream, SINGLE_NODE, self.SERVICE)
        assert outcome.hedged > 0
        # Both copies run to completion: hedging buys tail for cpu.
        assert outcome.busy_cpu_seconds > plain.busy_cpu_seconds
        assert outcome.completed == outcome.requests

    def test_retry_policy_reissues_late_requests(self):
        stream = self._stream(14000.0, duration=1.0)
        outcome = replay(stream, SINGLE_NODE, self.SERVICE,
                         policy="retry")
        assert outcome.retries > 0
        # Bounded retries then the late answer is accepted: every issued
        # request still completes (no silent loss without faults).
        assert outcome.completed == outcome.requests
        assert outcome.latencies.max() > TIMEOUT_SECONDS

    def test_heterogeneous_cluster_replays(self):
        stream = self._stream(2000.0, duration=2.0)
        outcome = replay(stream, MIXED_CLUSTER, self.SERVICE)
        assert outcome.completed == outcome.requests

    def test_closed_loop_replay(self):
        profile = LoadProfile(loop="closed", users=12, think_seconds=0.05,
                              duration=4.0, max_requests=600)
        stream = generate_stream(profile, MIX, seed=9)
        outcome = replay(stream, SINGLE_NODE, self.SERVICE)
        assert 0 < outcome.completed == outcome.requests <= 600
        assert sum(outcome.mix.values()) == outcome.requests
