"""Measuring the layers from outside the program.

Two instruments, both confined to a traced pass:

* :class:`UarchProbe` wraps the four public entry points of the
  micro-architecture simulator (``MemorySystem.data_access`` /
  ``inst_fetch``, ``Cache.access_many``, ``Tlb.access_many``) with a
  timer that records ``(start, end, batch size)`` in memory, and puts
  the original functions back on exit.
* :func:`self_seconds` turns a span tree (the one ``RunSpec(trace=True)``
  already returns, flattened by :func:`flatten`) into per-span self
  time: duration minus the part covered by child spans, and minus the
  simulator calls that ran directly under the span, which are placed by
  timestamp.  Spans and wrappers both read ``time.perf_counter``.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

from repro.uarch.cache import Cache
from repro.uarch.hierarchy import MemorySystem
from repro.uarch.tlb import Tlb

#: Batches up to this size are "small": the per-call overhead dominates.
SMALL_BATCH = 256


class Recorder:
    """Bench-side spans around the calls the benchmark itself makes."""

    def __init__(self):
        self.spans: list = []

    @contextmanager
    def span(self, name: str, category: str):
        record = {"name": name, "category": category, "parent": -1,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def seconds(self, name: str) -> float:
        """Total duration of the finished spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)


class UarchProbe:
    """Timing wrappers around the simulator's entry points.

    ``with UarchProbe() as probe:`` installs them; leaving the block
    restores the original functions (the very same objects).
    ``probe.calls[key]`` is a list of ``(start, end, batch size)``.
    """

    TARGETS = {
        "data_access": (MemorySystem, "data_access"),
        "inst_fetch": (MemorySystem, "inst_fetch"),
        "cache_access_many": (Cache, "access_many"),
        "tlb_access_many": (Tlb, "access_many"),
    }

    def __init__(self):
        self.calls = {key: [] for key in self.TARGETS}
        self._originals: dict = {}

    def __enter__(self) -> "UarchProbe":
        for key, (owner, attr) in self.TARGETS.items():
            original = owner.__dict__[attr]
            self._originals[key] = original
            setattr(owner, attr, _timed(original, self.calls[key]))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for key, (owner, attr) in self.TARGETS.items():
            setattr(owner, attr, self._originals.pop(key))

    def total_calls(self) -> int:
        return sum(len(log) for log in self.calls.values())

    def top_level(self) -> list:
        """The ``data_access`` and ``inst_fetch`` calls, by start time.

        These are the simulator's boundary with the engines; the cache
        and TLB calls happen inside them.
        """
        return sorted(self.calls["data_access"] + self.calls["inst_fetch"])

    def metrics(self, wall_seconds: float) -> dict:
        """The ``uarch.*`` per-layer metrics of one traced pass."""
        seconds = {key: sum(end - start for start, end, _ in log)
                   for key, log in self.calls.items()}
        top = self.top_level()
        top_seconds = seconds["data_access"] + seconds["inst_fetch"]
        accesses = sum(size for _, _, size in top)
        small = [(end - start) for start, end, size in top
                 if size <= SMALL_BATCH]
        large = [(end - start, size) for start, end, size in top
                 if size > SMALL_BATCH]
        large_accesses = sum(size for _, size in large)
        return {
            "uarch.data_access_s": seconds["data_access"],
            "uarch.inst_fetch_s": seconds["inst_fetch"],
            "uarch.cache_access_many_s": seconds["cache_access_many"],
            "uarch.tlb_access_many_s": seconds["tlb_access_many"],
            "uarch.calls": len(top),
            "uarch.sim_accesses": accesses,
            "uarch.ns_per_access": _ratio(top_seconds * 1e9, accesses),
            "uarch.small_batch_us_per_call":
                _ratio(sum(small) * 1e6, len(small)),
            "uarch.large_batch_ns_per_access":
                _ratio(sum(s for s, _ in large) * 1e9, large_accesses),
            "uarch.share_of_wall": _ratio(top_seconds, wall_seconds),
        }


def _timed(original, log: list):
    def wrapper(self, addresses, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, addresses, *args, **kwargs)
        finally:
            log.append((start, time.perf_counter(), int(np.size(addresses))))

    wrapper.__wrapped__ = original
    return wrapper


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def flatten(root, parent: int, out: list) -> None:
    """Append ``root`` (a ``repro.obs.trace.Span``) and its descendants
    to ``out`` as flat records that name their parent by index."""
    index = len(out)
    out.append({"name": root.name, "category": root.category,
                "parent": parent, "start": root.start_wall,
                "end": root.end_wall})
    for child in root.children:
        flatten(child, index, out)


def self_seconds(spans: list, intervals: list) -> list:
    """Self time of every span in ``spans``, in the same order.

    ``intervals`` are ``(start, end, ...)`` tuples sorted by start: the
    simulator calls.  One that starts inside a span ran under it (the
    calls are synchronous), so its time is taken from the innermost
    such span and counted in no span's self time.
    """
    starts = [interval[0] for interval in intervals]
    covered = [0.0] + list(accumulate(end - start
                                      for start, end, *_ in intervals))

    def under(span) -> float:
        low = bisect.bisect_left(starts, span["start"])
        high = bisect.bisect_left(starts, span["end"])
        return covered[high] - covered[low]

    own = [s["end"] - s["start"] - under(s) for s in spans]
    result = list(own)
    for span, seconds in zip(spans, own):
        if span["parent"] >= 0:
            result[span["parent"]] -= seconds
    return [max(0.0, seconds) for seconds in result]


def seconds_by_category(spans: list, selfs: list) -> dict:
    totals: dict = {}
    for span, seconds in zip(spans, selfs):
        totals[span["category"]] = totals.get(span["category"], 0.0) + seconds
    return totals
