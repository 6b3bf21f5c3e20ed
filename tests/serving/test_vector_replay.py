"""Bit-identity gate for the serving replay engine.

The engine (:func:`repro.serving.vector.replay`) must reproduce the
per-event heap oracle (``reference_replay.replay_stream``)
*bit-for-bit*: same IEEE-754 operations on the same operands in the
same per-accumulator order.  The grid below crosses stream shapes,
recovery policies, fault plans, seeds, and cluster layouts (including
the heterogeneous ``MIXED_CLUSTER``) and asserts float equality of
every outcome field -- so every batched transformation in the vector
engine (frontier rounds, the NIC chains settled as fixpoints, the
merged event loop, the verified speculation of policies that never
fire) is pinned to the reference.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.node import (
    ClusterSpec,
    MIXED_CLUSTER,
    PAPER_CLUSTER,
    SINGLE_NODE,
)
from repro.faults.inject import FaultInjector, NULL_FAULTS
from repro.faults.plan import FaultPlan
from repro.obs.metrics import METRICS
from repro.serving import REQUEST_DTYPE
from repro.serving.load import (
    ArrivalStream,
    LoadProfile,
    ServingOptions,
    generate_stream,
)
from repro.serving import slo
from repro.serving.slo import ServingRun, _percentiles, run_serving
from repro.serving import vector as vector_engine
from repro.serving.vector import replay
from tests.serving import reference_replay
from tests.serving.reference_replay import replay_stream

MIX = (("read", 0.6), ("write", 0.4))


def run_both(profile, cluster, svc, policy="none", plan=None, seed=3,
             recovery=True):
    """One stream through the oracle and the engine with independent
    fault clocks."""
    stream = generate_stream(LoadProfile.parse(profile), MIX, seed=seed,
                             store=False)

    def injector():
        if plan is None:
            return NULL_FAULTS
        return FaultInjector(FaultPlan.parse(plan, recovery=recovery), seed)

    fs, fv = injector(), injector()
    scalar = replay_stream(stream, cluster, svc, policy=policy, faults=fs,
                           site="serving:eq")
    vector = replay(stream, cluster, svc, policy=policy, faults=fv,
                    site="serving:eq")
    if plan is not None:
        assert fs.event_log() == fv.event_log()
    return scalar, vector


def assert_bit_identical(scalar, vector):
    assert np.array_equal(scalar.latencies, vector.latencies)
    assert scalar.requests == vector.requests
    assert scalar.completed == vector.completed
    assert scalar.shed == vector.shed
    assert scalar.failed == vector.failed
    assert scalar.hedged == vector.hedged
    assert scalar.retries == vector.retries
    assert scalar.busy_cpu_seconds == vector.busy_cpu_seconds
    assert scalar.duration == vector.duration
    assert scalar.makespan == vector.makespan
    assert scalar.offered_rps == vector.offered_rps
    assert scalar.mix == vector.mix


class TestEquivalenceGrid:
    """The oracle and the engine agree on every float."""

    @pytest.mark.parametrize("profile", [
        "constant:rps=1500:duration=3",
        "diurnal:rps=600:peak=5:duration=8",
        "flash:rps=900:peak=8:duration=6",
        "sessions:rps=300:mean=6:duration=6",
    ])
    @pytest.mark.parametrize("policy", [
        "none", "shed", "hedge", "retry", "all",
    ])
    def test_shapes_by_policies(self, profile, policy):
        assert_bit_identical(
            *run_both(profile, MIXED_CLUSTER, 0.004, policy=policy))

    @pytest.mark.parametrize("plan,recovery", [
        ("timeout:rate=0.08", True),
        ("timeout:rate=0.08", False),
        ("straggler:rate=0.1:factor=6", True),
        ("overload:rate=1.0:factor=4", True),
        ("overload:rate=1.0:factor=4", False),
        ("timeout:rate=0.05;straggler:rate=0.05:factor=5", True),
    ])
    @pytest.mark.parametrize("policy", ["none", "all"])
    def test_fault_plans(self, plan, recovery, policy):
        assert_bit_identical(*run_both(
            "constant:rps=2500:duration=3", PAPER_CLUSTER, 0.01,
            policy=policy, plan=plan, recovery=recovery))

    @pytest.mark.parametrize("seed", [0, 7, 121])
    def test_seeds(self, seed):
        assert_bit_identical(*run_both(
            "diurnal:rps=800:peak=4:duration=6", PAPER_CLUSTER, 0.008,
            policy="shed", seed=seed))

    @pytest.mark.parametrize("cluster", [SINGLE_NODE, MIXED_CLUSTER,
                                         PAPER_CLUSTER.scaled(100)])
    def test_clusters(self, cluster):
        # Saturating SINGLE_NODE forces the scan path; the 100x cluster
        # keeps the frontier rounds wide; MIXED exercises the
        # heterogeneous slot-scale product order.
        assert_bit_identical(*run_both(
            "constant:rps=4000:duration=3", cluster, 0.004, policy="shed"))

    @pytest.mark.parametrize("profile", [
        "constant:loop=closed:users=40:duration=6",
        "constant:rps=2000:duration=4:loop=closed:users=25",
    ])
    def test_closed_loop(self, profile):
        assert_bit_identical(
            *run_both(profile, MIXED_CLUSTER, 0.003, policy="all"))

    def test_day_scale_slice(self):
        # A small slice of the million-user diurnal day the serving
        # bench replays in full (cap bounds the window, not the rate).
        assert_bit_identical(*run_both(
            "diurnal:rps=579:peak=4:duration=86400:cap=100000",
            PAPER_CLUSTER.scaled(100), 0.01, policy="shed"))


def scalar_chains(ready, nodes, cost, free):
    """The heap oracle's NIC step, one message at a time."""
    link = list(free)
    sent = []
    for r, v in zip(ready, nodes):
        link[v] = max(r, link[v]) + cost[v]
        sent.append(link[v])
    return sent


@st.composite
def nic_batches(draw):
    """Messages on a few links whose gaps are drawn against the wire
    time: idle links (gaps of many wire times), interacting ones (about
    one) and saturated ones (a small fraction: long busy runs)."""
    num_nodes = draw(st.integers(1, 5))
    cost = draw(st.lists(st.floats(1e-6, 1e-3), min_size=num_nodes,
                         max_size=num_nodes))
    regime = draw(st.sampled_from([50.0, 1.0, 0.02]))
    rows = draw(st.integers(0, 120))
    gaps = draw(st.lists(st.floats(0.0, 2.0), min_size=rows, max_size=rows))
    nodes = draw(st.lists(st.integers(0, num_nodes - 1), min_size=rows,
                          max_size=rows))
    ready, now = [], draw(st.floats(0.0, 10.0))
    for gap, node in zip(gaps, nodes):
        now += gap * regime * cost[node] / num_nodes
        ready.append(now)
    # Links still busy from an earlier batch, or long idle.
    free = draw(st.lists(st.floats(0.0, 10.0), min_size=num_nodes,
                         max_size=num_nodes))
    return ready, nodes, cost, free


class TestFifoChains:
    """``_fifo_chains`` is the scalar NIC loop, to the bit."""

    @staticmethod
    def solve(ready, nodes, cost, free):
        sent, passes = vector_engine._fifo_chains(
            np.array(ready, dtype=np.float64),
            np.array(nodes, dtype=np.int64), np.array(cost), np.array(free))
        assert sent.tolist() == scalar_chains(ready, nodes, cost, free)
        return passes

    @given(batch=nic_batches())
    @settings(max_examples=300, deadline=None)
    def test_is_the_scalar_loop(self, batch):
        self.solve(*batch)

    def test_idle_links_settle_in_one_pass(self):
        ready = [0.1 * k for k in range(40)]
        assert self.solve(ready, [k % 4 for k in range(40)],
                          [1e-3] * 4, [0.0, 0.05, 0.0, 0.0]) == 1

    def test_a_busy_link_at_the_opening_delays_its_chain(self):
        # Node 1 is busy until 5.0: its whole chain queues behind that.
        passes = self.solve([1.0, 1.0, 1.1, 1.1, 1.2, 1.2], [0, 1] * 3,
                            [1e-3, 0.25], [0.0, 5.0])
        assert 1 < passes <= 4

    def test_a_saturated_link_takes_the_scan(self):
        # 60 messages inside one wire time: the busy-run estimate (59)
        # is past _JACOBI_RUN_MAX, so no full-vector pass is made.
        ready = [1.0 + 1e-6 * k for k in range(60)]
        assert self.solve(ready, [0] * 60, [1e-3], [0.0]) == 0

    def test_a_cascade_past_the_estimate_is_scanned_in_the_end(self):
        # A burst of 20 (estimate: a run of 19), then messages spaced one
        # wire time apart that each still find the link busy: the run is
        # 120 long, the fixpoint does not land, the scan finishes it.
        ready = [0.0] * 20 + [float(k) for k in range(1, 101)]
        assert self.solve(ready, [0] * 120, [1.0], [0.0]) \
            == vector_engine._JACOBI_ITER_MAX


def counter(name):
    return METRICS.counter(f"serving.vector.{name}").value


def assert_same_arena(a, b):
    assert len(a) == len(b)
    assert a.dtype == b.dtype
    for name in a.dtype.names:
        assert np.array_equal(a[name], b[name], equal_nan=True), name


class TestVerifiedSpeculation:
    """Open loop, no armed fault rule: the fast path goes first and its
    outcome stands iff no latency crossed a policy's bound -- either way
    the result is the oracle's, arena and types included."""

    CLUSTER = PAPER_CLUSTER.scaled(4)

    def both(self, policy, profile, svc, window=0.0, longest=np.inf):
        """Scalar outcome, vector outcome, and the counter deltas of the
        vector replay -- checked against the event loop's own outcome
        and arena on the way.  ``window`` lengthens the offered window
        past the last arrival; ``longest`` caps the exponential service
        variates (4 % of them exceed the hedge delay of 4 services)."""
        stream = generate_stream(LoadProfile.parse(profile), MIX, seed=6,
                                 store=False)
        stream = dataclasses.replace(
            stream, duration=stream.duration + window,
            service_mult=np.minimum(stream.service_mult, longest))
        scalar = replay_stream(stream, self.CLUSTER, svc, policy=policy)
        looped = vector_engine._VectorReplay(
            stream, self.CLUSTER, svc, policy, NULL_FAULTS, "serving", 0.5,
            None)._run_events()
        names = ("fastpath", "eventpath", "trials_rejected")
        before = [counter(name) for name in names]
        vector = replay(stream, self.CLUSTER, svc, policy=policy)
        delta = dict(zip(names, (counter(name) - was
                                 for name, was in zip(names, before))))
        assert_bit_identical(scalar, vector)
        assert type(vector.makespan) is type(scalar.makespan)
        assert_bit_identical(scalar, looped)
        assert type(looped.makespan) is type(scalar.makespan)
        assert_same_arena(vector.events, looped.events)
        return scalar, vector, delta

    @pytest.mark.parametrize("policy", [
        "retry", "hedge", "hedge+retry", "shed+retry"])
    def test_nothing_fires_and_the_fast_path_stands(self, policy):
        # Light load, services of at most 1.5 x 2 ms: no latency near
        # 4 services or 0.5 s.  The last completion falls past the
        # window, so makespan is the event clock's np.float64, as the
        # oracle's is ...
        scalar, vector, delta = self.both(
            policy, "constant:rps=1500:duration=2", 0.002, longest=1.5)
        assert delta == {"fastpath": 1, "eventpath": 0, "trials_rejected": 0}
        assert vector.hedged == vector.retries == 0
        assert type(vector.makespan) is np.float64
        # ... and the window's own float when that outlasts them all.
        scalar, vector, delta = self.both(
            policy, "constant:rps=1500:duration=2", 0.002, window=1.0,
            longest=1.5)
        assert delta["fastpath"] == 1
        assert type(vector.makespan) is float

    @pytest.mark.parametrize("policy,fired", [
        ("retry", "retries"), ("hedge", "hedged"),
        ("hedge+retry", "hedged"), ("shed+retry", "retries")])
    def test_a_policy_fires_and_the_trial_is_rejected(self, policy, fired):
        # Saturated: 48 slots x 40 ms services against 3000 rps.
        scalar, vector, delta = self.both(
            policy, "flash:rps=1500:peak=6:duration=3", 0.04)
        assert delta == {"fastpath": 0, "eventpath": 1, "trials_rejected": 1}
        assert getattr(vector, fired) > 0

    def test_a_latency_on_the_bound_does_not_fire(self, monkeypatch):
        """Both policies fire on ``>``: a replay whose worst latency *is*
        the bound is accepted, one ulp lower a bound rejects it."""
        stream = generate_stream(
            LoadProfile.parse("constant:rps=800:duration=2"), MIX, seed=2,
            store=False)
        plain = replay(stream, self.CLUSTER, 0.001)
        worst = float(plain.latencies.max())
        for bound, rejected in ((worst, 0), (np.nextafter(worst, 0.0), 1)):
            monkeypatch.setattr(vector_engine, "TIMEOUT_SECONDS", bound)
            monkeypatch.setattr(reference_replay, "TIMEOUT_SECONDS", bound)
            was = counter("trials_rejected")
            vector = replay(stream, self.CLUSTER, 0.001, policy="retry")
            assert counter("trials_rejected") - was == rejected
            assert bool(vector.retries) == bool(rejected)
            assert_bit_identical(
                replay_stream(stream, self.CLUSTER, 0.001, policy="retry"),
                vector)

    def test_the_accepted_trial_is_marked_in_the_trace(self):
        from repro.obs.trace import Tracer
        from repro.uarch.perfctx import PerfContext

        def dispatch_spans(policy, svc):
            stream = generate_stream(
                LoadProfile.parse("constant:rps=1500:duration=2"), MIX,
                seed=6, store=False)
            ctx = PerfContext()
            ctx.tracer = Tracer("serve")
            with ctx.span("replay"):
                replay(stream, self.CLUSTER, svc, policy=policy, ctx=ctx)
            spans = list(ctx.tracer.finish().walk())
            return ([s for s in spans if s.name == "serve:round:dispatch"],
                    [s for s in spans if s.name == "serve:round:events"])

        fast, loop = dispatch_spans("retry", 0.0002)
        assert fast[0].attrs["speculated"] is True and not loop
        fast, loop = dispatch_spans("none", 0.0002)
        assert "speculated" not in fast[0].attrs and not loop
        fast, loop = dispatch_spans("retry", 0.2)       # rejected trial
        assert "speculated" not in fast[0].attrs and len(loop) == 1


class TestArrivalMerge:
    """The event loop merges sorted arrivals with a heap of feedback
    events: at equal times the arrival goes first (it holds the lower
    sequence number in the oracle's heap)."""

    def test_an_arrival_that_ties_a_completion_goes_first(self):
        # Two nodes, slots core-major: 0 on node 0, 1 on node 1, 2 on
        # node 0.  Request 0 (slot 0) serves for 6 services, so its
        # COMPLETE hedges; request 1 arrives exactly then.  Arrival
        # first: it takes slot 1, the duplicate slot 2 on node 0, whose
        # response queues behind the original's and loses.  Completion
        # first: the duplicate takes slot 1 on the idle node 1 and wins,
        # 15 ms sooner -- what an arrival one ulp later sees.
        cluster = ClusterSpec(num_nodes=2)
        svc = 0.01

        def stream_of(times):
            n = len(times)
            return ArrivalStream(
                profile=LoadProfile.parse("constant:rps=100:duration=1"),
                seed=1, ops=("read",), times=np.array(times),
                kinds=np.zeros(n, dtype=np.int64),
                service_mult=np.full(n, 6.0), dup_mult=np.full(n, 0.5),
                tail_u=np.zeros(n), think=np.zeros(n), duration=1.0,
                users=0)

        lone = replay(stream_of([0.125]), cluster, svc)
        end = float(lone.events["start"][0]) + svc * 6.0
        first_latency = {}
        for tie in (np.nextafter(end, 0.0), end, np.nextafter(end, 1.0)):
            stream = stream_of([0.125, tie])
            scalar = replay_stream(stream, cluster, svc, policy="hedge")
            vector = replay(stream, cluster, svc, policy="hedge")
            assert_bit_identical(scalar, vector)
            assert vector.hedged == 2
            first_latency[tie] = float(vector.latencies[0])
        before, tied, after = first_latency.values()
        assert tied == before
        assert after < tied - 0.01


class TestRunServingEquivalence:
    """The oracle in place of the engine leaves every SLOReport float."""

    def _report(self):
        from tests.serving.test_serving import small_nutch

        spec = ServingRun(
            server=small_nutch(),
            profile=LoadProfile.parse("flash:rps=2000:peak=6:duration=4"),
            policy="shed+hedge", seed=11, sample_requests=50)
        return run_serving(spec)

    def test_reports_float_equal(self, monkeypatch):
        b = self._report()
        monkeypatch.setattr(
            slo, "replay",
            lambda *args, ctx=None, **kwargs: replay_stream(*args, **kwargs))
        a = self._report()
        for name in ("requests", "completed", "offered_rps", "achieved_rps",
                     "goodput_rps", "mean_latency", "p50_latency",
                     "p99_latency", "p999_latency", "max_latency",
                     "shed_fraction", "hedged_fraction", "retried_fraction",
                     "failed_fraction", "utilization", "makespan"):
            assert getattr(a, name) == getattr(b, name), name
        assert a.request_mix == b.request_mix


def test_replay_takes_no_other_engine():
    stream = generate_stream(
        LoadProfile.parse("constant:rps=500:duration=2"), MIX, seed=1,
        store=False)
    with pytest.raises(ValueError, match="vector"):
        replay(stream, SINGLE_NODE, 0.002, engine="scalar")


class TestOneEngine:
    """The serving replay has one engine and no selector for it."""

    def test_options_take_no_engine(self):
        with pytest.raises(TypeError):
            ServingOptions(engine="vector")
        with pytest.raises(TypeError):
            ServingRun(server=object(), engine="vector")

    def test_scalar_env_var_changes_nothing(self, monkeypatch):
        stream = generate_stream(
            LoadProfile.parse("constant:rps=500:duration=2"), MIX, seed=1,
            store=False)
        before = replay(stream, SINGLE_NODE, 0.002)
        monkeypatch.setenv("REPRO_SCALAR_SERVE", "1")
        after = replay(stream, SINGLE_NODE, 0.002)
        assert_bit_identical(before, after)
        assert len(after.events) == after.requests

    def test_replay_span_names_no_engine(self):
        from repro.obs.trace import Tracer
        from repro.uarch.perfctx import PerfContext
        from tests.serving.test_serving import small_nutch

        ctx = PerfContext()
        ctx.tracer = Tracer("serve")
        spec = ServingRun(
            server=small_nutch(),
            profile=LoadProfile.parse("constant:rps=500:duration=2"),
            policy="shed", seed=1, sample_requests=50)
        with ctx.span("serve"):
            run_serving(spec, ctx=ctx)
        spans = [s for s in ctx.tracer.finish().walk()
                 if s.name.startswith("load:replay:")]
        assert len(spans) == 1
        assert spans[0].attrs == {
            "policy": "shed", "nodes": SINGLE_NODE.total_nodes}

    @pytest.mark.parametrize("profile,plan", [
        ("constant:rps=1500:duration=2", None),                 # fast path
        ("constant:rps=2500:duration=3", "timeout:rate=0.1"),   # armed rule
        ("constant:loop=closed:users=40:duration=6", None),     # closed loop
    ])
    def test_every_outcome_carries_its_arena(self, profile, plan):
        stream = generate_stream(LoadProfile.parse(profile), MIX, seed=4,
                                 store=False)
        faults = (FaultInjector(FaultPlan.parse(plan), 4) if plan
                  else NULL_FAULTS)
        outcome = replay(stream, MIXED_CLUSTER, 0.003, policy="retry",
                         faults=faults)
        events = outcome.events
        assert events.dtype == REQUEST_DTYPE
        assert len(events) == outcome.requests
        assert int(events["completed"].sum()) == outcome.completed


class TestPercentiles:
    def test_empty_reports_zero(self):
        assert _percentiles(np.empty(0)) == (0.0, 0.0, 0.0)

    def test_single_request_reports_itself(self):
        assert _percentiles(np.array([0.125])) == (0.125, 0.125, 0.125)

    @pytest.mark.parametrize("n", [2, 3, 10, 101, 4096])
    def test_matches_numpy_quantile(self, n):
        rng = np.random.default_rng(n)
        lat = rng.exponential(0.05, size=n)
        p50, p99, p999 = _percentiles(lat)
        assert p50 == float(np.quantile(lat, 0.50))
        assert p99 == float(np.quantile(lat, 0.99))
        assert p999 == float(np.quantile(lat, 0.999))

    def test_matches_numpy_on_ties(self):
        lat = np.array([0.2, 0.1, 0.1, 0.1, 0.3, 0.3, 0.2, 0.1])
        p50, p99, p999 = _percentiles(lat)
        assert p50 == float(np.quantile(lat, 0.50))
        assert p99 == float(np.quantile(lat, 0.99))
        assert p999 == float(np.quantile(lat, 0.999))


class TestRequestArena:
    def _vector(self, profile="flash:rps=3000:peak=8:duration=4",
                policy="shed", svc=0.002):
        stream = generate_stream(LoadProfile.parse(profile), MIX, seed=5,
                                 store=False)
        return stream, replay(stream, MIXED_CLUSTER, svc, policy=policy)

    def test_events_surface(self):
        stream, outcome = self._vector()
        events = outcome.events
        assert events.dtype == REQUEST_DTYPE
        assert len(events) == outcome.requests
        assert np.array_equal(events["arrival"], stream.times)
        assert int(events["shed"].sum()) == outcome.shed
        assert int(events["completed"].sum()) == outcome.completed
        assert (events["node"] >= 0).all()
        # Shed requests never started nor finished; completed ones did.
        assert np.isnan(events["start"][events["shed"]]).all()
        assert np.isnan(events["finish"][events["shed"]]).all()
        assert np.isfinite(events["finish"][events["completed"]]).all()

    def test_latency_multiset_matches(self):
        _, outcome = self._vector()
        done = outcome.events[outcome.events["completed"]]
        derived = np.sort(done["finish"] - done["admit"])
        assert np.array_equal(derived, np.sort(outcome.latencies))

    def test_requests_for_partitions_the_mix(self):
        _, outcome = self._vector()
        reads = outcome.requests_for("read")
        writes = outcome.requests_for("write")
        assert len(reads) + len(writes) == outcome.requests
        assert len(reads) == outcome.mix["read"]
        assert np.array_equal(writes, outcome.requests_for(1))
        with pytest.raises(KeyError, match="delete"):
            outcome.requests_for("delete")

    def test_event_path_flags(self):
        stream = generate_stream(
            LoadProfile.parse("constant:rps=2500:duration=3"), MIX,
            seed=9, store=False)
        faults = FaultInjector(FaultPlan.parse("timeout:rate=0.1"), 9)
        outcome = replay(stream, MIXED_CLUSTER, 0.004, policy="retry",
                         faults=faults, site="serving:arena")
        events = outcome.events
        assert int(events["retried"].sum()) > 0
        assert int(events["failed"].sum()) == outcome.failed
        assert (events["attempt"][events["retried"]] > 1).all()

    def test_rounds_metric_ticks(self):
        before = METRICS.counter("serving.vector.rounds").value
        self._vector()
        assert METRICS.counter("serving.vector.rounds").value > before


class TestStreamArtifacts:
    def test_store_round_trips_the_bits(self, tmp_path):
        from repro.core.store import Store

        base = Store(str(tmp_path))
        profile = LoadProfile.parse("diurnal:rps=700:peak=5:duration=6")
        misses = METRICS.counter("store.stream.misses").value
        hits = METRICS.counter("store.stream.hits").value
        first = generate_stream(profile, MIX, seed=17, store=base)
        assert METRICS.counter("store.stream.misses").value == misses + 1
        second = generate_stream(profile, MIX, seed=17, store=base)
        assert METRICS.counter("store.stream.hits").value == hits + 1
        reference = generate_stream(profile, MIX, seed=17, store=False)
        for stream in (first, second):
            assert np.array_equal(stream.times, reference.times)
            assert np.array_equal(stream.kinds, reference.kinds)
            assert np.array_equal(stream.service_mult,
                                  reference.service_mult)
            assert np.array_equal(stream.dup_mult, reference.dup_mult)
            assert np.array_equal(stream.tail_u, reference.tail_u)
            assert np.array_equal(stream.think, reference.think)
            assert stream.profile == reference.profile
            assert stream.ops == reference.ops
            assert stream.duration == reference.duration

    def test_closed_loop_stream_round_trips(self, tmp_path):
        from repro.core.store import Store

        base = Store(str(tmp_path))
        profile = LoadProfile.parse("constant:loop=closed:users=30:duration=5")
        first = generate_stream(profile, MIX, seed=2, store=base)
        second = generate_stream(profile, MIX, seed=2, store=base)
        assert first.times is None and second.times is None
        assert second.users == first.users
        assert np.array_equal(first.think, second.think)

    def test_replay_identical_through_the_store(self, tmp_path):
        from repro.core.store import Store

        base = Store(str(tmp_path))
        profile = LoadProfile.parse("constant:rps=1500:duration=3")
        cold = generate_stream(profile, MIX, seed=4, store=False)
        warm = generate_stream(profile, MIX, seed=4, store=base)
        warm = generate_stream(profile, MIX, seed=4, store=base)  # mmap hit
        a = replay(cold, MIXED_CLUSTER, 0.003, policy="shed")
        b = replay(warm, MIXED_CLUSTER, 0.003, policy="shed")
        assert np.array_equal(a.latencies, b.latencies)
        assert a.mix == b.mix
