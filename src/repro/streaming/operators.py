"""Streaming operators: stateless transforms, windowed and session state.

Operators implement a small lifecycle the runtime drives element by
element:

* ``open(ctx)``     -- (re)initialize volatile state;
* ``process(batch)``-- consume one :class:`~repro.streaming.channel.DataBatch`,
  return downstream elements;
* ``on_watermark(t)``-- event time advanced to ``t``; fire every window
  that can no longer change, return its :class:`Emission` records;
* ``snapshot()`` / ``restore(state)`` -- the checkpoint-barrier
  contract: a snapshot taken when a barrier passes reflects exactly the
  elements before the barrier, and restoring it (plus source replay
  from the barrier offset) reconstructs the operator bit for bit.

Determinism rules the whole module: firing order is sorted by
``(window_end, window_start, key)`` -- the order windows *close* in
event time -- so a skewed watermark that merges several firings into
one still emits the identical global sequence, and key arrays inside an
emission are sorted ascending.  No RNG is ever consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.keyed import group_sum
from repro.streaming.channel import DataBatch

#: Bookkeeping floor mirroring ``mpi/bsp.py``: even an empty snapshot
#: costs a metadata block when written to the checkpoint store.
MIN_SNAPSHOT_BYTES = 1024


@dataclass(frozen=True)
class Emission:
    """One fired window: the sink-visible unit of streaming output.

    ``identity()`` hashes the full content, so an at-least-once replay
    that re-fires a window produces a *detectable* duplicate while two
    different windows can never collide.
    """

    operator: str
    window_start: float
    window_end: float
    keys: np.ndarray
    values: np.ndarray

    def identity(self) -> tuple:
        return (self.operator, float(self.window_start),
                float(self.window_end), self.keys.tobytes(),
                self.values.tobytes())

    @property
    def events(self) -> int:
        return int(self.values.sum())


class StreamOperator:
    """Base operator; subclasses fill in the lifecycle hooks."""

    name = "op"
    #: Data batches this operator may process per runtime cycle -- the
    #: knob that makes a slow operator backpressure its upstream.
    budget = 2

    def open(self, ctx) -> None:
        self.ctx = ctx
        self.watermark = float("-inf")

    def process(self, batch: DataBatch) -> list:
        raise NotImplementedError

    def on_watermark(self, time: float) -> list:
        self.watermark = max(self.watermark, time)
        return []

    def snapshot(self) -> dict:
        return {"watermark": self.watermark}

    def restore(self, state: dict) -> None:
        self.watermark = state["watermark"]

    def state_bytes(self) -> int:
        return MIN_SNAPSHOT_BYTES


class FilterOperator(StreamOperator):
    """Stateless predicate over keys (streaming grep's match stage)."""

    budget = 3

    def __init__(self, name: str, predicate, int_ops: int = 8,
                 branch_ops: int = 2):
        self.name = name
        self.predicate = predicate
        self._int_ops = int_ops
        self._branch_ops = branch_ops

    def process(self, batch: DataBatch) -> list:
        self.ctx.int_ops(self._int_ops * batch.size)
        self.ctx.branch_ops(self._branch_ops * batch.size)
        self.ctx.seq_read(f"stream:{self.name}", batch.keys.nbytes)
        mask = self.predicate(batch.keys)
        if not mask.any():
            return []
        return [DataBatch(sequence=batch.sequence,
                          event_time=batch.event_time,
                          keys=batch.keys[mask],
                          values=batch.values[mask])]


class KeyedWindowAggregate(StreamOperator):
    """Per-key aggregation (count or sum) in event-time windows.

    State is ``{window_start: [(keys, amounts), ...]}``: each batch
    appends its distinct keys and their amounts as one part, and the
    parts of a window are merged into one (distinct keys ascending) when
    the window fires or a checkpoint barrier needs its contents.  A
    window fires when the watermark passes its end, emitting one
    :class:`Emission` of the merged arrays, then drops its state.  Part
    arrays are never written to, so windows, snapshots and emissions
    may share them.  Sums come in the dtype ``group_sum`` gives the
    batch values (int64 for counts); float sums add up in its order.
    """

    def __init__(self, name: str, window, metric: str = "count"):
        if metric not in ("count", "sum"):
            raise ValueError(f"metric must be count or sum, got {metric!r}")
        self.name = name
        self.window = window
        self.metric = metric

    def open(self, ctx) -> None:
        super().open(ctx)
        self.windows: dict = {}

    def process(self, batch: DataBatch) -> list:
        self.ctx.int_ops(12 * batch.size)
        self.ctx.branch_ops(3 * batch.size)
        self.ctx.rand_write(f"stream:{self.name}", batch.size)
        part = group_sum(
            batch.keys, batch.values if self.metric == "sum" else None)
        for start in self.window.assign(batch.event_time):
            self.windows.setdefault(start, []).append(part)
        return []

    def on_watermark(self, time: float) -> list:
        super().on_watermark(time)
        ripe = sorted(
            start for start in self.windows
            if self.window.end(start) <= self.watermark)
        out = []
        for start in ripe:
            keys, values = self._merged(start)
            del self.windows[start]
            self.ctx.int_ops(4 * len(keys))
            out.append(Emission(
                operator=self.name, window_start=float(start),
                window_end=float(self.window.end(start)),
                keys=keys.astype(np.int64, copy=False), values=values))
        return out

    def snapshot(self) -> dict:
        return {"watermark": self.watermark,
                "windows": {start: self._merged(start)
                            for start in self.windows}}

    def restore(self, state: dict) -> None:
        self.watermark = state["watermark"]
        self.windows = {start: [part]
                        for start, part in state["windows"].items()}

    def state_bytes(self) -> int:
        entries = sum(len(self._merged(start)[0]) for start in self.windows)
        return max(MIN_SNAPSHOT_BYTES, 16 * entries)

    def _merged(self, start) -> tuple:
        """Window ``start`` as one ``(keys, amounts)`` part."""
        parts = self.windows[start]
        if len(parts) > 1:
            parts[:] = [group_sum(np.concatenate([k for k, _ in parts]),
                                  np.concatenate([a for _, a in parts]))]
        return parts[0]


class SessionAggregate(StreamOperator):
    """Per-key session windows closed by a ``gap`` of event-time silence.

    A key's session extends while events keep arriving within ``gap``
    seconds of the last one; it closes -- and emits -- once the
    watermark passes ``last_event + gap``.  Every emission carries one
    key; the global emission order is by session close time
    ``(end, start, key)``, which a delayed (skewed) watermark preserves.
    """

    def __init__(self, name: str, gap: float):
        if gap <= 0:
            raise ValueError(f"session gap must be positive, got {gap}")
        self.name = name
        self.gap = gap

    def open(self, ctx) -> None:
        super().open(ctx)
        #: key -> [session_start, last_event_time, event_count]
        self.active: dict = {}
        #: sessions closed by a newer session, awaiting the watermark.
        self.pending: list = []

    def process(self, batch: DataBatch) -> list:
        self.ctx.int_ops(16 * batch.size)
        self.ctx.branch_ops(5 * batch.size)
        self.ctx.rand_write(f"stream:{self.name}", batch.size)
        t = batch.event_time
        uniq, counts = group_sum(batch.keys)
        for key, count in zip(uniq.tolist(), counts.tolist()):
            session = self.active.get(key)
            if session is None:
                self.active[key] = [t, t, count]
            elif t - session[1] > self.gap:
                self.pending.append(
                    (session[1] + self.gap, session[0], key, session[2]))
                self.active[key] = [t, t, count]
            else:
                session[1] = max(session[1], t)
                session[2] += count
        return []

    def on_watermark(self, time: float) -> list:
        super().on_watermark(time)
        for key in sorted(self.active):
            start, last, count = self.active[key]
            if last + self.gap <= self.watermark:
                self.pending.append((last + self.gap, start, key, count))
                del self.active[key]
        ripe = sorted(p for p in self.pending if p[0] <= self.watermark)
        self.pending = [p for p in self.pending if p[0] > self.watermark]
        out = []
        for end, start, key, count in ripe:
            out.append(Emission(
                operator=self.name, window_start=float(start),
                window_end=float(end),
                keys=np.array([key], dtype=np.int64),
                values=np.array([count], dtype=np.int64)))
        self.ctx.int_ops(6 * len(out))
        return out

    def snapshot(self) -> dict:
        return {"watermark": self.watermark,
                "active": {k: list(v) for k, v in self.active.items()},
                "pending": list(self.pending)}

    def restore(self, state: dict) -> None:
        self.watermark = state["watermark"]
        self.active = {k: list(v) for k, v in state["active"].items()}
        self.pending = list(state["pending"])

    def state_bytes(self) -> int:
        entries = len(self.active) + len(self.pending)
        return max(MIN_SNAPSHOT_BYTES, 32 * entries)
