"""DictBackend: the in-memory hash-map baseline.

The cheapest possible implementation of the protocol -- a process-local
``dict`` with no log, no runs, no query planner.  It anchors the cost
comparison (how much of LSM/SQL latency is engine machinery vs the
logical work) and, because the shared base class owns all visibility
semantics, it is also the reference answer the equivalence tests hold
the heavier backends to.
"""

from __future__ import annotations

import bisect

from repro.scenarios.backend import StorageBackend, key_bytes
from repro.sitehash import stamp
from repro.uarch.codemodel import FRAMEWORK_STACK

#: A hash-map op is a few hundred instructions of library code, not the
#: ~10^5 of an HBase request path.
PER_OP_INT = 450.0
PER_OP_BRANCH = 160.0


class DictBackend(StorageBackend):
    """In-memory map of key -> value size.

    The *modelled* hash map has no ordered index and bills a scan per
    row returned; the host keeps the live keys sorted beside the map so
    that answering one is a bisect and a slice, not a sort of the map.
    """

    name = "dict"
    CPI = 0.7

    def __init__(self, knobs=None, ctx=None):
        super().__init__(knobs, ctx)
        self._data: dict = {}          # key -> size
        self._keys: list = []          # the keys of _data, sorted
        self._data_bytes = 0
        self._touched_bytes = 0.0      # logical bytes moved since charge_phase

    # -- backing-store primitives ----------------------------------------------

    def _apply(self, key: int, size) -> None:
        self._charge(1)
        old = self._data.pop(key, None)
        if old is not None:
            self._data_bytes -= len(key_bytes(key)) + old
        if size is not None:
            if old is None:
                bisect.insort(self._keys, key)
            self._data[key] = size
            self._data_bytes += len(key_bytes(key)) + size
            self._touched_bytes += size
        elif old is not None:
            del self._keys[bisect.bisect_left(self._keys, key)]

    def _get(self, key: int):
        self._charge(1)
        size = self._data.get(key)
        if size is None:
            return None
        self._touched_bytes += size
        return stamp(key_bytes(key), size)

    def _scan(self, start_key: int, limit: int) -> list:
        first = bisect.bisect_left(self._keys, start_key)
        hits = self._keys[first:first + limit]
        self._charge(max(1, len(hits)))
        self._touched_bytes += sum(self._data[k] for k in hits)
        return [(k, stamp(key_bytes(k), self._data[k])) for k in hits]

    def record_count(self) -> int:
        return len(self._data)

    # -- cost hooks ------------------------------------------------------------

    def charge_phase(self, pending) -> None:
        """Purely in-memory: no disk traffic, only a working set."""
        pending.working_bytes += self._touched_bytes
        self._touched_bytes = 0.0

    def work(self) -> dict:
        return {"data_bytes": self._data_bytes}

    # -- internals -------------------------------------------------------------

    def _charge(self, units: int) -> None:
        ctx = self.ctx
        with ctx.code(FRAMEWORK_STACK):
            ctx.int_ops(PER_OP_INT * units)
            ctx.branch_ops(PER_OP_BRANCH * units)
            ctx.touch("scenario:dict", max(4096, self._data_bytes))
            ctx.rand_read("scenario:dict", 2 * units)
