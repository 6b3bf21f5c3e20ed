"""Memory of the serving fast path: its output plus one chunk.

The open-loop fast path keeps one per-request precompute (``base3``),
the arena's per-request columns and the completion order, and settles
the outbound NIC chains one ``GUIDE_CHUNK`` of that order at a time.
This pins a shed replay's tracemalloc peak above its stream, in bytes
per request, at 2 x 10^5 requests on 100 nodes: measured 82.4, the
budget 25 % above it.  A completion phase that gathers the order's
columns whole lands above it (the one-shot completion measured 123.7).
"""

from repro.cluster.node import PAPER_CLUSTER
from repro.serving import replay
from repro.serving.load import LoadProfile, generate_stream
from tests.peaks import traced_peak

MIX = (("read", 0.6), ("write", 0.4))

REQUESTS = 200_000

#: Bytes per request above the stream, 25 % above the measured 82.4.
BUDGET = 103.0


def test_shed_fast_path_peak_stays_within_its_budget():
    cluster = PAPER_CLUSTER.scaled(100)

    def stream(requests):
        return generate_stream(LoadProfile.parse(
            f"diurnal:rps=4000:peak=4:duration=120:cap={requests}"), MIX,
            seed=0, store=False)

    replay(stream(20_000), cluster, 0.01, policy="shed")  # numpy's first calls
    requests = stream(REQUESTS)
    outcome, peak = traced_peak(
        lambda: replay(requests, cluster, 0.01, policy="shed"))
    assert outcome.requests == REQUESTS and not outcome.failed
    per_request = peak / REQUESTS
    assert per_request <= BUDGET, (
        f"a shed replay of {REQUESTS} requests peaked at "
        f"{peak / 2**20:.1f} MB above its stream, {per_request:.1f} B per "
        f"request (budget {BUDGET})")
