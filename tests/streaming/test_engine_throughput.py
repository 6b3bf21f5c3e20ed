"""Streaming engine throughput and checkpoint cost, wall-clock
(``pytest -m slow``).

The scale-4 Streaming WordCount pipeline (192 source batches, ~167k
events) drives the engine; its per-batch work is vectorized, so it
sustains a floor in events per wall second, and a barrier every batch
costs a bounded factor over a barrier every hundred.
"""

import time

import pytest

from repro.core import registry
from repro.streaming import (
    Dataflow,
    KeyedWindowAggregate,
    StreamRuntime,
    TumblingWindow,
)

#: Source events per wall second.  Measured ~3.5-4M: ~7x headroom.
THROUGHPUT_FLOOR_EPS = 500_000.0

#: Wall cost of a barrier every batch over one every 100 batches.
CHECKPOINT_OVERHEAD_RATIO = 2.0


@pytest.fixture(scope="module")
def prepared():
    return registry.create("Streaming WordCount").prepare(4)


def _flow(prepared, **kwargs):
    payload = prepared.payload
    return Dataflow(
        name="wall-wordcount", batches=payload["batches"],
        operators=[KeyedWindowAggregate("wc", TumblingWindow(1.0))],
        mean_interval=payload["mean_interval"], **kwargs)


def _best_of_three(flow):
    """Best warm wall seconds of three runs (a run takes ~40 ms, so one
    sample is scheduler noise), and the last result."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = StreamRuntime().run(flow)
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.slow
def test_event_throughput_floor(prepared):
    StreamRuntime().run(_flow(prepared))  # warm the numpy paths
    seconds, _ = _best_of_three(_flow(prepared))
    eps = prepared.details["events"] / max(seconds, 1e-9)
    assert eps >= THROUGHPUT_FLOOR_EPS, (
        f"engine sustained {eps:,.0f} events/s "
        f"(floor {THROUGHPUT_FLOOR_EPS:,.0f})")


@pytest.mark.slow
def test_checkpoint_every_batch_costs_a_bounded_factor(prepared):
    seconds, digests = {}, set()
    for cadence in (100, 8, 1):
        seconds[cadence], result = _best_of_three(
            _flow(prepared, checkpoint_interval=cadence))
        digests.add(result.digest())
    assert len(digests) == 1  # cadence never moves the output
    ratio = seconds[1] / seconds[100]
    assert ratio <= CHECKPOINT_OVERHEAD_RATIO, (
        f"checkpointing every batch cost {ratio:.2f}x "
        f"(bound {CHECKPOINT_OVERHEAD_RATIO}x)")
