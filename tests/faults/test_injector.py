"""FaultInjector determinism, event recording, and resolution."""

import pickle

from repro.faults import (
    NULL_FAULTS, FaultInjector, FaultPlan, NullFaultInjector, resolve_faults,
)


def drive(injector, n=200):
    """Exercise a fixed scripted sequence of fault opportunities."""
    for i in range(n):
        site = f"site{i % 7}"
        if injector.fires("task_crash", site) is not None:
            if injector.recovery:
                injector.recovered("task_retry", site, attempt=1)
            else:
                injector.lost("split", site)
        injector.node_killed(i % 5)
        injector.standing("overload", "svc")
    return injector.event_log()


class TestDeterminism:
    PLAN = FaultPlan.parse("task_crash:rate=0.3;node_kill:node=2;"
                           "overload:rate=1.0")

    def test_same_seed_same_events(self):
        a = drive(FaultInjector(self.PLAN, seed=7))
        b = drive(FaultInjector(self.PLAN, seed=7))
        assert a == b
        assert len(a) > 0

    def test_different_seed_different_events(self):
        a = drive(FaultInjector(self.PLAN, seed=7))
        b = drive(FaultInjector(self.PLAN, seed=8))
        assert a != b

    def test_decisions_independent_of_interleaving(self):
        # The decision at (site, tick) must not depend on what happened
        # at other sites in between -- the pure-function property that
        # makes parallel runs reproduce serial ones.
        plan = FaultPlan.parse("task_crash:rate=0.5")
        a = FaultInjector(plan, seed=3)
        b = FaultInjector(plan, seed=3)
        fired_a = [(s, a.fires("task_crash", s) is not None)
                   for s in ("x", "x", "y", "x", "y")]
        order_b = ["y", "x", "y", "x", "x"]
        fired_b = {(s, i): b.fires("task_crash", s) is not None
                   for i, s in enumerate(order_b)}
        # site x ticks 1..3 and site y ticks 1..2 agree across orders.
        assert fired_a[0][1] == fired_b[("x", 1)]
        assert fired_a[2][1] == fired_b[("y", 0)]


class TestTriggers:
    def test_at_trigger_fires_on_exact_tick(self):
        injector = FaultInjector(FaultPlan.parse("rank_crash:at=3"), seed=0)
        fired = [injector.fires("rank_crash", "r") is not None
                 for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_rate_one_always_fires(self):
        injector = FaultInjector(FaultPlan.parse("task_crash:rate=1.0"),
                                 seed=0)
        assert all(injector.fires("task_crash", "s") is not None
                   for _ in range(10))

    def test_scope_filters_sites(self):
        injector = FaultInjector(
            FaultPlan.parse("task_crash:rate=1.0:scope=mr:sort"), seed=0)
        assert injector.fires("task_crash", "mr:sort:split0") is not None
        assert injector.fires("task_crash", "mr:grep:split0") is None

    def test_unarmed_kind_never_ticks_the_clock(self):
        injector = FaultInjector(FaultPlan.parse("task_crash:rate=1.0"),
                                 seed=0)
        assert injector.fires("msg_drop", "s") is None
        assert injector.clock.peek("msg_drop@s") == 0
        assert not injector.active_for("msg_drop")
        assert injector.active_for("task_crash")

    def test_node_kill_records_once(self):
        injector = FaultInjector(FaultPlan.parse("node_kill:node=1"), seed=0)
        assert injector.node_killed(1)
        assert injector.node_killed(1)
        assert not injector.node_killed(0)
        kills = [e for e in injector.event_log() if e.kind == "node_kill"]
        assert len(kills) == 1

    def test_standing_records_once_per_site(self):
        injector = FaultInjector(FaultPlan.parse("overload:rate=1.0"), seed=0)
        assert injector.standing("overload", "a") is not None
        assert injector.standing("overload", "a") is not None
        assert injector.standing("overload", "b") is not None
        events = [e for e in injector.event_log() if e.kind == "overload"]
        assert len(events) == 2


class TestEventLog:
    def test_sequence_numbers_and_phases(self):
        injector = FaultInjector(FaultPlan.parse("task_crash:rate=1.0"),
                                 seed=0)
        injector.fires("task_crash", "s")
        injector.recovered("task_retry", "s", attempt=1)
        injector.lost("split", "s", records=10)
        log = injector.event_log()
        assert [e.seq for e in log] == [1, 2, 3]
        assert [e.phase for e in log] == ["fault", "recovery", "lost"]
        assert log[1].detail == (("attempt", 1),)

    def test_events_pickle_round_trip(self):
        # Events ride CharacterizationResult through the disk cache and
        # process-pool workers.
        injector = FaultInjector(FaultPlan.parse("task_crash:rate=1.0"),
                                 seed=0)
        injector.fires("task_crash", "s")
        log = injector.event_log()
        assert pickle.loads(pickle.dumps(log)) == log
        assert "fault:task_crash" in str(log[0])

    def test_summary_counts(self):
        injector = FaultInjector(
            FaultPlan.parse("task_crash:rate=1.0", recovery=False), seed=0)
        for _ in range(3):
            injector.fires("task_crash", "s")
            injector.lost("split", "s")
        summary = injector.summary()
        assert summary["faults"] == {"task_crash": 3}
        assert summary["lost"] == {"split": 3}
        assert summary["recoveries"] == {}

    def test_metrics_mirrored(self):
        from repro.obs.metrics import METRICS

        injected_before = METRICS.counter("faults.injected").value
        recovered_before = METRICS.counter("recovery.actions").value
        injector = FaultInjector(FaultPlan.parse("task_crash:rate=1.0"),
                                 seed=0)
        injector.fires("task_crash", "s")
        injector.recovered("task_retry", "s")
        assert METRICS.counter("faults.injected").value == injected_before + 1
        assert METRICS.counter("recovery.actions").value == recovered_before + 1


class TestResolution:
    def test_null_injector_is_inert(self):
        assert not NULL_FAULTS.enabled
        assert NULL_FAULTS.fires("task_crash", "s") is None
        assert NULL_FAULTS.standing("overload", "s") is None
        assert not NULL_FAULTS.node_killed(0)
        assert NULL_FAULTS.event_log() == ()
        NULL_FAULTS.recovered("x", "s")
        NULL_FAULTS.lost("x", "s")
        assert NULL_FAULTS.summary() == {
            "faults": {}, "recoveries": {}, "lost": {}}

    def test_explicit_wins_over_context(self):
        class Ctx:
            faults = FaultInjector(FaultPlan.parse("task_crash:rate=1.0"))

        explicit = NullFaultInjector()
        assert resolve_faults(Ctx(), explicit) is explicit
        assert resolve_faults(Ctx(), None) is Ctx.faults
        assert resolve_faults(None, None) is NULL_FAULTS

    def test_null_context_resolves_to_null_faults(self):
        from repro.uarch.perfctx import NULL_CONTEXT

        assert resolve_faults(NULL_CONTEXT, None) is NULL_FAULTS

    def test_string_plan_accepted(self):
        injector = FaultInjector("task_crash:rate=1.0", seed=0)
        assert injector.plan.for_kind("task_crash")
