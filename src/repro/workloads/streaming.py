"""Streaming workloads: realtime analytics over BDGS velocity streams.

The paper's third application type gets an engine-backed extension
family here: windowed word count and pattern matching over
``text_stream`` and sessionized click aggregation over ``table_stream``,
all executed by :mod:`repro.streaming`'s checkpoint-barrier dataflow
runtime.  They ride the normal harness path (RunSpec keying, memo, disk
cache, chaos plans) but are registered as an *extension* family
(:data:`repro.core.registry.STREAMING_CLASSES`): Table 4 stays the
paper's 19 rows, and ``registry.create`` resolves the streaming names on
top of them.

Their ``stacks`` are the engine's replay modes -- ``exactly-once``
(transactional sink, the bit-identity contract under chaos) and
``at-least-once`` (immediate sink, the duplicate-delta negative
control) -- so mode selection is ordinary ``--stack`` plumbing and is
part of every memo/disk-cache key.
"""

from __future__ import annotations

import numpy as np

from repro.core.workload import (
    DPS,
    REALTIME,
    Execution,
    Workload,
    WorkloadInfo,
    WorkloadInput,
)
from repro.datagen.stream import RateProfile, table_stream, text_stream
from repro.streaming import (
    AT_LEAST_ONCE,
    DataBatch,
    Dataflow,
    EXACTLY_ONCE,
    FilterOperator,
    KeyedWindowAggregate,
    SessionAggregate,
    SlidingWindow,
    StreamRuntime,
    TumblingWindow,
)
from repro.workloads import inputs
from repro.workloads.micro import GREP_MATCH_COST, grep_mask

#: Both replay modes, exposed as the workloads' "software stacks".
STREAM_STACKS = (EXACTLY_ONCE, AT_LEAST_ONCE)

#: Source batches at scale 1 (scales linearly with Table 6 geometry).
BASE_STREAM_BATCHES = 48

#: Documents per text batch / order rows per table batch.
DOCS_PER_BATCH = 2
ROWS_PER_BATCH = 48


class StreamingWorkload(Workload):
    """Shared harness plumbing for the streaming family."""

    default_stack = EXACTLY_ONCE

    #: Engine knobs a subclass may override.
    checkpoint_interval = 8
    capacity = 8
    source_burst = 3

    def _operators(self) -> list:
        raise NotImplementedError

    def _expected_events(self, prepared) -> int:
        raise NotImplementedError

    def execute(self, prepared, ctx, cluster, mode):
        payload = prepared.payload
        flow = Dataflow(
            name=self.info.name.lower().replace(" ", "-"),
            batches=payload["batches"],
            operators=self._operators(),
            mode=mode,
            checkpoint_interval=self.checkpoint_interval,
            capacity=self.capacity,
            source_burst=self.source_burst,
            mean_interval=payload["mean_interval"],
        )
        outcome = StreamRuntime(cluster=cluster, ctx=ctx).run(flow)
        expected = self._expected_events(prepared)
        duration = payload["duration"]
        counters = outcome.counters
        details = {
            # Functional output: the chaos invariant's fingerprint.
            "digest": outcome.digest(),
            "windows": outcome.windows,
            "events": outcome.events,
            "expected_events": expected,
            "duplicate_windows": outcome.duplicates,
            "correct": outcome.events == expected
            and outcome.duplicates == 0,
            # Bookkeeping (TIMING_DETAIL_KEYS): legitimately moves under
            # chaos, backpressure, and watermark skew.
            "checkpoints": counters["checkpoints"],
            "restores": counters["restores"],
            "replayed_batches": counters["replayed_batches"],
            "throttled_batches": counters["throttled_batches"],
            "backpressure_stalls": counters["backpressure_stalls"],
            "cycles": counters["cycles"],
            "watermark_lag_s": counters["watermark_lag_s"],
            "events_per_second": outcome.events / duration if duration else 0.0,
        }
        return Execution(outcome.cost, details)

    def _package(self, scale, raw_batches, to_arrays, rate) -> WorkloadInput:
        """Materialize stream batches into replayable DataBatch form."""
        batches = []
        nbytes = 0
        for sb in raw_batches:
            keys, values = to_arrays(sb.payload)
            batches.append(DataBatch(
                sequence=sb.sequence, event_time=sb.timestamp,
                keys=keys, values=values))
            nbytes += sb.nbytes
        mean_interval = 1.0 / rate.batches_per_second
        duration = (raw_batches[-1].timestamp + mean_interval
                    if raw_batches else 0.0)
        payload = {"batches": batches, "mean_interval": mean_interval,
                   "duration": duration}
        return WorkloadInput(
            payload=payload, nbytes=nbytes, scale=scale,
            details={"batches": len(batches),
                     "events": int(sum(b.size for b in batches)),
                     "duration_s": duration})


class _TextStreamWorkload(StreamingWorkload):
    """Shared text-stream preparation (tokens as keys, unit values)."""

    rate = RateProfile(batches_per_second=4.0)

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        stream = text_stream(inputs.text_model(), DOCS_PER_BATCH,
                             self.rate, seed=seed)
        raw = stream.take(BASE_STREAM_BATCHES * scale)

        def to_arrays(corpus):
            tokens = corpus.tokens.astype(np.int64)
            return tokens, np.ones(len(tokens), dtype=np.int64)

        return self._package(scale, raw, to_arrays, self.rate)


class StreamingWordCountWorkload(_TextStreamWorkload):
    """Workload S1: per-token counts in 1-second tumbling windows."""

    info = WorkloadInfo(
        name="Streaming WordCount", scenario="Streaming Analytics",
        app_type=REALTIME, data_type="unstructured", data_source="text",
        stacks=STREAM_STACKS, metric=DPS,
        input_description="text stream, 48 x (1..32) batches at 4/s",
        workload_id=20,
    )

    window = TumblingWindow(1.0)

    def _operators(self) -> list:
        return [KeyedWindowAggregate("wordcount", self.window,
                                     metric="count")]

    def _expected_events(self, prepared) -> int:
        # Every token lands in exactly one tumbling window.
        return prepared.details["events"]


class StreamingGrepWorkload(_TextStreamWorkload):
    """Workload S2: rare-pattern match counts in 2s/1s sliding windows."""

    info = WorkloadInfo(
        name="Streaming Grep", scenario="Streaming Analytics",
        app_type=REALTIME, data_type="unstructured", data_source="text",
        stacks=STREAM_STACKS, metric=DPS,
        input_description="text stream, 48 x (1..32) batches at 4/s",
        workload_id=21,
    )

    window = SlidingWindow(size=2.0, slide=1.0)

    def _operators(self) -> list:
        return [
            FilterOperator("grep-filter", grep_mask,
                           int_ops=GREP_MATCH_COST.int_ops,
                           branch_ops=GREP_MATCH_COST.branch_ops),
            KeyedWindowAggregate("grep-windows", self.window,
                                 metric="count"),
        ]

    def _expected_events(self, prepared) -> int:
        # Each match lands in size/slide = 2 overlapping windows.
        matches = sum(
            int(grep_mask(b.keys).sum())
            for b in prepared.payload["batches"])
        return 2 * matches


class StreamingSessionsWorkload(StreamingWorkload):
    """Workload S3: sessionized click (order) counts per buyer.

    A buyer's clicks sessionize with a 1.2-second silence gap over the
    bursty (irregular-refresh) e-commerce order stream -- the paper's
    "irregularly refreshed" velocity case.
    """

    info = WorkloadInfo(
        name="Streaming Sessions", scenario="Streaming Analytics",
        app_type=REALTIME, data_type="structured", data_source="table",
        stacks=STREAM_STACKS, metric=DPS,
        input_description="order stream, 48 x (1..32) batches, bursty 3/s",
        workload_id=22,
    )

    rate = RateProfile(batches_per_second=3.0, regular=False,
                       burstiness=0.3)
    session_gap = 1.2

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        stream = table_stream(inputs.ecommerce_model(), ROWS_PER_BATCH,
                              self.rate, seed=seed)
        raw = stream.take(BASE_STREAM_BATCHES * scale)

        def to_arrays(data):
            buyers = data.orders.column("BUYER_ID").astype(np.int64)
            return buyers, np.ones(len(buyers), dtype=np.int64)

        return self._package(scale, raw, to_arrays, self.rate)

    def _operators(self) -> list:
        return [SessionAggregate("sessions", gap=self.session_gap)]

    def _expected_events(self, prepared) -> int:
        # Every order belongs to exactly one session of its buyer.
        return prepared.details["events"]
