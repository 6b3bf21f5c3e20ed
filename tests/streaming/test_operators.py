"""Operator lifecycle: windows fire deterministically, snapshots round-trip."""

import numpy as np

from repro.streaming import (
    DataBatch,
    FilterOperator,
    KeyedWindowAggregate,
    SessionAggregate,
    TumblingWindow,
)
from repro.streaming.operators import MIN_SNAPSHOT_BYTES
from repro.uarch.perfctx import context_or_null


def batch(seq=0, t=0.0, keys=(1,), values=None, dtype=np.int64):
    k = np.asarray(keys, dtype=np.int64)
    v = (np.asarray(values, dtype=dtype) if values is not None
         else np.ones(len(k), dtype=np.int64))
    return DataBatch(sequence=seq, event_time=t, keys=k, values=v)


def opened(op):
    op.open(context_or_null(None))
    return op


class TestFilterOperator:
    def test_keeps_matching_records(self):
        op = opened(FilterOperator("f", lambda k: k % 2 == 0))
        out = op.process(batch(keys=(1, 2, 3, 4)))
        assert len(out) == 1
        assert out[0].keys.tolist() == [2, 4]
        assert out[0].event_time == 0.0

    def test_no_match_emits_nothing(self):
        op = opened(FilterOperator("f", lambda k: k > 100))
        assert op.process(batch(keys=(1, 2))) == []

    def test_stateless_snapshot(self):
        op = opened(FilterOperator("f", lambda k: k >= 0))
        op.process(batch(keys=(1, 2)))
        assert op.snapshot() == {"watermark": float("-inf")}
        assert op.state_bytes() == MIN_SNAPSHOT_BYTES


class TestKeyedWindowAggregate:
    def test_counts_per_key_fire_on_watermark(self):
        op = opened(KeyedWindowAggregate("wc", TumblingWindow(1.0)))
        op.process(batch(t=0.5, keys=(3, 1, 3)))
        assert op.on_watermark(0.9) == []  # window [0,1) not ripe yet
        out = op.on_watermark(1.0)
        assert len(out) == 1
        e = out[0]
        assert (e.window_start, e.window_end) == (0.0, 1.0)
        assert e.keys.tolist() == [1, 3]  # sorted ascending
        assert e.values.tolist() == [1, 2]
        assert op.on_watermark(5.0) == []  # fired windows drop their state

    def test_sum_metric_accumulates_values(self):
        op = opened(KeyedWindowAggregate("s", TumblingWindow(1.0),
                                         metric="sum"))
        op.process(batch(t=0.2, keys=(1, 1, 2), values=(10, 5, 7)))
        (e,) = op.on_watermark(1.0)
        assert e.keys.tolist() == [1, 2]
        assert e.values.tolist() == [15, 7]

    def test_sum_metric_keeps_fractions(self):
        op = opened(KeyedWindowAggregate("s", TumblingWindow(1.0),
                                         metric="sum"))
        op.process(batch(t=0.2, keys=(1, 1), values=(0.5, 0.25),
                         dtype=np.float64))
        op.process(batch(seq=1, t=0.4, keys=(1, 2), values=(0.5, 0.25),
                         dtype=np.float64))
        (e,) = op.on_watermark(1.0)
        assert e.values.dtype == np.float64
        assert e.values.tolist() == [1.25, 0.25]

    def test_multiple_ripe_windows_fire_in_start_order(self):
        op = opened(KeyedWindowAggregate("wc", TumblingWindow(1.0)))
        op.process(batch(seq=1, t=2.5, keys=(1,)))
        op.process(batch(seq=0, t=0.5, keys=(1,)))
        out = op.on_watermark(4.0)
        assert [e.window_start for e in out] == [0.0, 2.0]

    def test_snapshot_restore_round_trip(self):
        op = opened(KeyedWindowAggregate("wc", TumblingWindow(1.0)))
        op.process(batch(t=0.5, keys=(1, 2)))
        snap = op.snapshot()
        op.process(batch(seq=1, t=0.6, keys=(1,)))  # post-snapshot mutation
        op.restore(snap)
        (e,) = op.on_watermark(1.0)
        assert e.values.tolist() == [1, 1]

    def test_snapshot_is_deep_enough(self):
        op = opened(KeyedWindowAggregate("wc", TumblingWindow(1.0)))
        op.process(batch(t=0.5, keys=(1,)))
        snap = op.snapshot()
        # Neither a later batch, nor the merge of the window's parts, nor
        # an operator restored from the snapshot may reach into it.
        op.process(batch(seq=1, t=0.5, keys=(1, 2)))
        assert op.state_bytes() == MIN_SNAPSHOT_BYTES      # merges
        op.restore(snap)
        op.process(batch(seq=2, t=0.5, keys=(1, 3)))
        op.on_watermark(1.0)
        (keys, amounts), = snap["windows"].values()
        assert (keys.tolist(), amounts.tolist()) == ([1], [1])
        op.restore(snap)
        (e,) = op.on_watermark(1.0)
        assert (e.keys.tolist(), e.values.tolist()) == ([1], [1])

    def test_state_bytes_scale_with_entries(self):
        op = opened(KeyedWindowAggregate("wc", TumblingWindow(1.0)))
        assert op.state_bytes() == MIN_SNAPSHOT_BYTES
        op.process(batch(t=0.5, keys=tuple(range(200))))
        assert op.state_bytes() > MIN_SNAPSHOT_BYTES


class TestSessionAggregate:
    def test_events_within_gap_merge(self):
        op = opened(SessionAggregate("s", gap=1.0))
        op.process(batch(seq=0, t=0.0, keys=(7,)))
        op.process(batch(seq=1, t=0.8, keys=(7, 7)))
        (e,) = op.on_watermark(2.0)
        assert (e.window_start, e.window_end) == (0.0, 1.8)
        assert e.keys.tolist() == [7]
        assert e.values.tolist() == [3]

    def test_silence_gap_splits_sessions(self):
        op = opened(SessionAggregate("s", gap=1.0))
        op.process(batch(seq=0, t=0.0, keys=(7,)))
        op.process(batch(seq=1, t=2.5, keys=(7,)))  # > gap after the first
        out = op.on_watermark(5.0)
        assert [e.window_start for e in out] == [0.0, 2.5]
        assert all(e.values.tolist() == [1] for e in out)

    def test_open_session_waits_for_watermark(self):
        op = opened(SessionAggregate("s", gap=1.0))
        op.process(batch(t=0.0, keys=(7,)))
        assert op.on_watermark(0.5) == []  # close time 1.0 not reached
        assert len(op.on_watermark(1.0)) == 1

    def test_emission_order_is_close_time_then_key(self):
        op = opened(SessionAggregate("s", gap=1.0))
        op.process(batch(seq=0, t=0.0, keys=(9,)))
        op.process(batch(seq=1, t=0.5, keys=(2,)))
        out = op.on_watermark(10.0)
        # key 9 closes at 1.0, key 2 at 1.5 -- close order, not key order.
        assert [(e.window_end, e.keys[0]) for e in out] \
            == [(1.0, 9), (1.5, 2)]

    def test_deferred_watermark_preserves_emission_order(self):
        def drive(marks):
            op = opened(SessionAggregate("s", gap=1.0))
            op.process(batch(seq=0, t=0.0, keys=(9,)))
            op.process(batch(seq=1, t=0.5, keys=(2,)))
            out = []
            for m in marks:
                out.extend(op.on_watermark(m))
            return [e.identity() for e in out]

        # A skewed watermark that merges both firings into one must
        # still emit the identical global sequence.
        assert drive([1.0, 1.5, 10.0]) == drive([10.0])

    def test_snapshot_restore_round_trip(self):
        op = opened(SessionAggregate("s", gap=1.0))
        op.process(batch(seq=0, t=0.0, keys=(7,)))
        snap = op.snapshot()
        op.process(batch(seq=1, t=0.5, keys=(7,)))
        op.restore(snap)
        (e,) = op.on_watermark(2.0)
        assert e.values.tolist() == [1]
        assert e.window_end == 1.0
