"""End-to-end tests for the unified serving entrypoint and its SLO math.

Includes the analytic validation gate: below saturation, the open-loop
constant-rate replay must agree with the ``mm_c`` baseline on mean
latency (after normalizing the wire and straggler effects the
memoryless model does not see).
"""

import pytest

from repro.cluster.node import SINGLE_NODE
from repro.datagen.seeds import wikipedia_entries
from repro.errors import InputError
from repro.serving import (
    NutchServer,
    ServingRun,
    autoscale_sweep,
    measure_demand,
    run_serving,
)
from repro.serving.queueing import QueueingResult


@pytest.fixture(scope="module")
def server():
    return NutchServer(wikipedia_entries(num_docs=60))


@pytest.fixture(scope="module")
def demand(server):
    # Unprofiled sample: deterministic fallback demand, fast to measure.
    return measure_demand(server, SINGLE_NODE, sample_requests=40)


@pytest.fixture(scope="module")
def capacity(demand):
    return SINGLE_NODE.total_cores / demand.service_seconds


class TestServingRun:
    def test_profile_string_coerced_and_policy_canonicalized(self, server):
        spec = ServingRun(server=server, profile="flash:rps=3200",
                          policy="hedge+shed")
        assert spec.profile.shape == "flash"
        assert spec.policy == "shed+hedge"

    def test_validation(self, server):
        with pytest.raises(InputError):
            ServingRun(server=server, sample_requests=0)
        with pytest.raises(InputError):
            ServingRun(server=server, slo_seconds=0.0)

    def test_rateless_spec_rejected_at_run(self, server):
        with pytest.raises(ValueError, match="no request rate"):
            run_serving(ServingRun(server=server))


class TestRunServing:
    def test_report_shape_below_saturation(self, server, demand, capacity):
        rps = round(0.3 * capacity)
        spec = ServingRun(server=server,
                          profile=f"constant:rps={rps}:duration=4")
        report = run_serving(spec, demand=demand)
        assert report.server == server.name
        assert report.requests == report.completed == rps * 4
        assert report.offered_rps == pytest.approx(rps)
        assert report.achieved_rps == pytest.approx(rps, rel=0.02)
        assert 0 < report.p50_latency < report.p99_latency \
            < report.p999_latency <= report.max_latency
        assert report.mean_latency > demand.service_seconds
        assert 0.0 < report.utilization < 1.0
        assert report.shed_fraction == report.failed_fraction == 0.0
        assert report.request_mix == {"search": report.requests}
        assert isinstance(report.queueing, QueueingResult)
        assert report.queueing.offered_rps == pytest.approx(rps)

    def test_report_properties(self, server, demand, capacity):
        spec = ServingRun(server=server,
                          profile=f"constant:rps={round(0.2 * capacity)}")
        report = run_serving(spec, demand=demand)
        # An unprofiled sample charges the fixed fallback demand.
        assert report.instructions_per_request == 2_000_000.0
        assert 0.0 <= report.slo_attainment <= 1.0
        assert report.mips == pytest.approx(
            report.instructions_per_request * report.achieved_rps / 1e6)
        assert report.cost is demand.cost

    def test_validation_gate_against_analytic_baseline(
            self, server, demand, capacity):
        """The regression oracle: constant open-loop replay vs ``mm_c``."""
        for rho in (0.2, 0.6):
            rps = round(rho * capacity)
            duration = 6000 / rps
            spec = ServingRun(
                server=server,
                profile=f"constant:rps={rps}:duration={duration:g}")
            report = run_serving(spec, demand=demand)
            ratio = report.analytic_ratio()
            assert 0.85 < ratio < 1.2, (
                f"replay diverged from mm_c at rho={rho}: ratio={ratio:.3f}")

    def test_shed_policy_trades_goodput_for_tail(
            self, server, demand, capacity):
        rps = round(2.5 * capacity)
        base = ServingRun(server=server,
                          profile=f"flash:rps={rps}:duration=2",
                          slo_seconds=0.2)
        from dataclasses import replace

        plain = run_serving(base, demand=demand)
        shed = run_serving(replace(base, policy="shed"), demand=demand)
        assert shed.shed_fraction > 0.0
        assert shed.p99_latency < plain.p99_latency
        assert shed.completed < plain.completed

    def test_hedge_and_retry_fractions_reported(
            self, server, demand, capacity):
        rps = round(1.5 * capacity)
        spec = ServingRun(server=server,
                          profile=f"constant:rps={rps}:duration=2",
                          policy="hedge+retry")
        report = run_serving(spec, demand=demand)
        assert report.policy == "hedge+retry"
        assert report.hedged_fraction > 0.0
        assert report.retried_fraction > 0.0
        assert report.failed_fraction == 0.0


class TestAutoscaleSweep:
    def test_latency_improves_then_plateaus(self, server, demand):
        # Hold offered load fixed while the cluster grows: the tail
        # collapses toward the bare service time and never regresses.
        spec = ServingRun(server=server,
                          profile="constant:rps=3000:duration=2")
        reports = autoscale_sweep(spec, node_counts=(2, 8, 32),
                                  demand=demand)
        assert [n for n, _ in reports] == [2, 8, 32]
        p50 = [r.p50_latency for _, r in reports]
        assert p50[1] <= p50[0] * 1.05
        assert p50[2] <= p50[1] * 1.05
        utils = [r.utilization for _, r in reports]
        assert utils == sorted(utils, reverse=True)
        offered = {round(r.offered_rps) for _, r in reports}
        assert offered == {3000}

    def test_sweep_reuses_one_demand(self, server, demand):
        spec = ServingRun(server=server,
                          profile="constant:rps=500:duration=1")
        reports = autoscale_sweep(spec, node_counts=(2, 4), demand=demand)
        for _, report in reports:
            assert report.instructions_per_request \
                == demand.instructions_per_request
