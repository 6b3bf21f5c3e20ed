"""Memory of the serving fast path: its output plus one chunk.

The open-loop fast path keeps one per-request precompute (``base3``)
through dispatch only: the busy-time fold runs right after it, and
completion runs without it.  It keeps the arena's per-request columns
and the completion order, and settles the outbound NIC chains one
``GUIDE_CHUNK`` of that order at a time.  A saturated replay hands
dispatch over to the scalar scan, which also runs one ``GUIDE_CHUNK``
of requests at a time.

These pin a shed replay's tracemalloc peak above its stream, in bytes
per request, at 2 x 10^5 requests on 100 nodes, each budget 25 % above
the measurement:

* unsaturated (0.01 s service, nothing shed): measured 72.3 (82.3 while
  ``base3`` lived through completion; the one-shot completion measured
  123.7);
* saturated (1.0 s service, 142 440 shed, the scan from request 2 077
  on): measured 74.8 (163.7 while the scan turned all its requests into
  Python lists at once).
"""

from repro.cluster.node import PAPER_CLUSTER
from repro.keyed import GUIDE_CHUNK
from repro.serving import replay, vector
from repro.serving.load import LoadProfile, generate_stream
from tests.peaks import traced_peak

MIX = (("read", 0.6), ("write", 0.4))

REQUESTS = 200_000

#: Bytes per request above the stream, 25 % above the measured 72.3.
BUDGET = 90.4

#: The same at saturation, 25 % above the measured 74.8.
SATURATED_BUDGET = 93.5


def stream(requests):
    return generate_stream(LoadProfile.parse(
        f"diurnal:rps=4000:peak=4:duration=120:cap={requests}"), MIX,
        seed=0, store=False)


def shed_replay_peak(service_seconds):
    """``(outcome, peak bytes)`` of a shed replay of ``REQUESTS``."""
    cluster = PAPER_CLUSTER.scaled(100)
    replay(stream(20_000), cluster, service_seconds,
           policy="shed")                                # numpy's first calls
    requests = stream(REQUESTS)
    outcome, peak = traced_peak(
        lambda: replay(requests, cluster, service_seconds, policy="shed"))
    assert outcome.requests == REQUESTS and not outcome.failed
    return outcome, peak


def test_shed_fast_path_peak_stays_within_its_budget():
    outcome, peak = shed_replay_peak(0.01)
    per_request = peak / REQUESTS
    assert per_request <= BUDGET, (
        f"a shed replay of {REQUESTS} requests peaked at "
        f"{peak / 2**20:.1f} MB above its stream, {per_request:.1f} B per "
        f"request (budget {BUDGET})")


def test_saturated_dispatch_scan_peak_stays_within_its_budget(monkeypatch):
    handovers = []
    scan = vector._VectorReplay._dispatch_scan

    def recorded(self, i0, *args):
        handovers.append(i0)
        return scan(self, i0, *args)

    monkeypatch.setattr(vector._VectorReplay, "_dispatch_scan", recorded)
    outcome, peak = shed_replay_peak(1.0)
    # The measured replay sheds most requests, and the scan dispatches
    # more than one chunk of them.
    assert outcome.shed > REQUESTS // 2
    assert REQUESTS - handovers[-1] > GUIDE_CHUNK
    per_request = peak / REQUESTS
    assert per_request <= SATURATED_BUDGET, (
        f"a saturated shed replay of {REQUESTS} requests peaked at "
        f"{peak / 2**20:.1f} MB above its stream, {per_request:.1f} B per "
        f"request (budget {SATURATED_BUDGET})")
