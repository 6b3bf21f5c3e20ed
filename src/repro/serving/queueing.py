"""Queueing model for online services: throughput and latency vs load.

Online-service workloads are swept from 100 to 3200 requests/second in
the paper (Table 6) and measured in RPS plus latency (Section 6.1.2).
The serving study measures the per-request service demand, then
this M/M/c-style model turns offered load into achieved throughput and
mean latency: below saturation the Sakasegawa approximation for the
queueing delay, above saturation a capacity-bound throughput with
rapidly growing latency.

Since the open-loop load generator (:mod:`repro.serving.load`) became
the default serving path, this analytic model is the *validation
baseline*: below saturation the event replay's mean latency must agree
with :func:`mm_c` within a tolerance band (the regression oracle the
serving tests enforce, mirroring the analytic-vs-event gate of the
cluster plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QueueingResult:
    """Steady-state behavior at one offered load.

    ``offered_rps == 0`` is a *valid idle point*: utilization is 0,
    throughput is 0, and latency collapses to the bare service demand
    (an empty system serves the hypothetical next request immediately).
    SLO sweeps that include an idle rate therefore never divide by
    zero -- :attr:`utilization` is a derived property with an explicit
    idle guard, not a stored field.
    """

    offered_rps: float
    throughput_rps: float
    mean_latency: float
    service_seconds: float
    servers: int

    @property
    def utilization(self) -> float:
        """Offered utilization ``rho = lambda * s / c`` (0.0 when idle)."""
        if self.offered_rps <= 0.0:
            return 0.0
        return self.offered_rps * self.service_seconds / self.servers

    @property
    def saturated(self) -> bool:
        return self.utilization >= 1.0

    def latency_percentile(self, quantile: float) -> float:
        """Approximate response-time percentile.

        The M/M/c sojourn-time tail is roughly exponential around the
        mean, so the q-quantile is ``mean * -ln(1 - q)`` -- exact for
        M/M/1, a standard approximation for M/M/c.  At
        ``offered_rps == 0`` the mean is the bare service time, so the
        percentiles are those of the service distribution alone (still
        finite and well-defined -- no special-casing needed downstream).
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        return self.mean_latency * -math.log(1.0 - quantile)

    @property
    def p95_latency(self) -> float:
        return self.latency_percentile(0.95)

    @property
    def p99_latency(self) -> float:
        return self.latency_percentile(0.99)

    @property
    def p999_latency(self) -> float:
        return self.latency_percentile(0.999)


def mm_c(offered_rps: float, service_seconds: float, servers: int) -> QueueingResult:
    """Approximate M/M/c steady state.

    ``service_seconds`` is the mean per-request service demand on one
    server (core); ``servers`` the number of cores serving the mix.
    ``offered_rps`` may be zero (the idle sweep point); negative load,
    non-positive service time, or non-positive server counts raise.
    """
    if offered_rps < 0 or service_seconds <= 0 or servers <= 0:
        raise ValueError("load, service time, and servers must be positive")
    capacity = servers / service_seconds
    rho = offered_rps / capacity
    if rho < 0.999:
        # Sakasegawa's approximation for the M/M/c mean queue wait.
        wait = (
            service_seconds
            * (rho ** (math.sqrt(2.0 * (servers + 1.0))))
            / (servers * (1.0 - rho))
        )
        return QueueingResult(
            offered_rps=offered_rps,
            throughput_rps=offered_rps,
            mean_latency=service_seconds + wait,
            service_seconds=service_seconds,
            servers=servers,
        )
    # Saturated: throughput pins at capacity; latency grows with the
    # overload ratio (queue builds during the run).
    overload = rho
    return QueueingResult(
        offered_rps=offered_rps,
        throughput_rps=capacity,
        mean_latency=service_seconds * (1.0 + 50.0 * (overload - 0.999) + 5.0),
        service_seconds=service_seconds,
        servers=servers,
    )
