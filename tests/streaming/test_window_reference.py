"""KeyedWindowAggregate against the per-key oracle in reference_window.py.

The operator keeps a window as part arrays and merges them lazily; the
oracle keeps ``{window_start: {key: aggregate}}``.  Any interleaving of
the lifecycle calls must give the same emissions, the same
``state_bytes()`` and the same ``ctx`` calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_window import ReferenceWindowAggregate
from repro.streaming import (
    DataBatch,
    KeyedWindowAggregate,
    SlidingWindow,
    TumblingWindow,
)


class RecordingContext:
    """Logs every profiling call an operator makes."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append((name, args, kwargs))


WINDOWS = (TumblingWindow(1.0), SlidingWindow(1.0, 0.5),
           SlidingWindow(2.0, 0.5))

#: Quarter steps: every event time falls on a window boundary or inside
#: one, batches arrive out of order, and watermarks overtake open windows.
times = st.integers(min_value=0, max_value=24).map(lambda q: q / 4)

#: Quarters again, so that float sums are exact in any order of addition.
values_of = {
    "int": st.integers(min_value=-50, max_value=50),
    "float": st.integers(min_value=-200, max_value=200).map(lambda q: q / 4),
}


def batches(kind):
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=12), values_of[kind]),
        min_size=1, max_size=12,
    ).flatmap(lambda rows: st.tuples(
        st.just("process"), times, st.just(rows)))


def steps(kind):
    return st.lists(st.one_of(
        batches(kind),
        batches(kind),
        st.tuples(st.just("watermark"), times),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("state_bytes")),
    ), max_size=40)


def drive(op, script, dtype):
    """Run ``script`` on ``op``; return what a runtime could observe."""
    ctx = RecordingContext()
    op.open(ctx)
    observed, snapshots = [], []
    for sequence, step in enumerate(script):
        if step[0] == "process":
            rows = step[2]
            op.process(DataBatch(
                sequence=sequence, event_time=step[1],
                keys=np.array([k for k, _ in rows], dtype=np.int64),
                values=np.array([v for _, v in rows], dtype=dtype)))
        elif step[0] == "watermark":
            observed.extend(e.identity() for e in op.on_watermark(step[1]))
        elif step[0] == "snapshot":
            snapshots.append(op.snapshot())
        elif step[0] == "restore" and snapshots:
            # As StreamRuntime restores: reopen, then load the barrier's
            # state -- the same snapshot may be restored more than once.
            op.open(ctx)
            op.restore(snapshots[step[1] % len(snapshots)])
        elif step[0] == "state_bytes":
            observed.append(op.state_bytes())
    observed.extend(e.identity() for e in op.on_watermark(float("inf")))
    observed.append(op.state_bytes())
    return observed, ctx.calls


@given(st.sampled_from(WINDOWS),
       st.sampled_from([("count", "int"), ("sum", "int"), ("sum", "float")])
       .flatmap(lambda mk: st.tuples(st.just(mk), steps(mk[1]))))
@settings(max_examples=300, deadline=None)
def test_matches_reference_under_any_interleaving(window, case):
    (metric, kind), script = case
    dtype = np.int64 if kind == "int" else np.float64
    got = drive(KeyedWindowAggregate("w", window, metric), script, dtype)
    want = drive(ReferenceWindowAggregate("w", window, metric), script, dtype)
    assert got == want
