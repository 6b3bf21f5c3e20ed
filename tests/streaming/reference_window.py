"""The per-key oracle for :class:`repro.streaming.KeyedWindowAggregate`.

State is ``{window_start: {key: aggregate}}``, updated one distinct key
at a time in Python -- the implementation the operator shipped with
before its windows became part arrays.  It keeps the operator's whole
lifecycle (``process`` / ``on_watermark`` / ``snapshot`` / ``restore`` /
``state_bytes``) so a test can drive both through the same calls and
compare every :meth:`Emission.identity` and every ``state_bytes()``.

Aggregates are Python numbers, so a sum of floats adds up batch by batch
in arrival order; the operator adds the same terms in ``np.add.reduceat``
order.  Compare float sums only on values whose sums are exact.
"""

import numpy as np

from repro.keyed import group_sum
from repro.streaming.operators import (
    MIN_SNAPSHOT_BYTES,
    Emission,
    StreamOperator,
)


class ReferenceWindowAggregate(StreamOperator):
    def __init__(self, name: str, window, metric: str = "count"):
        self.name = name
        self.window = window
        self.metric = metric

    def open(self, ctx) -> None:
        super().open(ctx)
        self.windows: dict = {}

    def process(self, batch) -> list:
        self.ctx.int_ops(12 * batch.size)
        self.ctx.branch_ops(3 * batch.size)
        self.ctx.rand_write(f"stream:{self.name}", batch.size)
        uniq, amounts = group_sum(
            batch.keys, batch.values if self.metric == "sum" else None)
        for start in self.window.assign(batch.event_time):
            bucket = self.windows.setdefault(start, {})
            for key, amount in zip(uniq.tolist(), amounts.tolist()):
                bucket[key] = bucket.get(key, 0) + amount
        return []

    def on_watermark(self, time: float) -> list:
        super().on_watermark(time)
        ripe = sorted(
            start for start in self.windows
            if self.window.end(start) <= self.watermark)
        out = []
        for start in ripe:
            bucket = self.windows.pop(start)
            keys = np.array(sorted(bucket), dtype=np.int64)
            # int64 for Python ints, float64 for Python floats.
            values = np.array([bucket[k] for k in keys.tolist()])
            self.ctx.int_ops(4 * len(keys))
            out.append(Emission(
                operator=self.name, window_start=float(start),
                window_end=float(self.window.end(start)),
                keys=keys, values=values))
        return out

    def snapshot(self) -> dict:
        return {"watermark": self.watermark,
                "windows": {start: dict(bucket)
                            for start, bucket in self.windows.items()}}

    def restore(self, state: dict) -> None:
        self.watermark = state["watermark"]
        self.windows = {start: dict(bucket)
                        for start, bucket in state["windows"].items()}

    def state_bytes(self) -> int:
        entries = sum(len(b) for b in self.windows.values())
        return max(MIN_SNAPSHOT_BYTES, 16 * entries)
