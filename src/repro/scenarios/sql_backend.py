"""SqlBackend: the protocol adapter over the SQL engine (Hive stand-in).

Every protocol read becomes a real statement against a registered
columnar ``kv`` table -- ``SELECT K, S FROM kv WHERE K = ?`` for point
lookups, ``WHERE K >= ?`` for scans -- prepared once per backend, then
bound to the op's key and executed by
:class:`repro.sql.engine.SqlEngine` with its scan-fragment semantics
(per-query fixed planning seconds, proportional scan IO, the
``sql:scan:kv`` fragment-crash retry site).  The engine is SELECT-only,
so DML propagates as direct column-array maintenance, charged through a
ledger of the adapter's own at the engine's CPI.

The engine charges a :class:`~repro.cluster.timemodel.JobCost` per
query, so this backend is ``self_charging``: the driver absorbs
:meth:`drain_costs` instead of metering the phase -- metering would
double-count the instructions the queries already billed.

This module is the *only* scenario-side code allowed to import
``repro.sql`` internals.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.datagen.table import Table
from repro.scenarios.backend import StorageBackend, key_bytes, value_stamp
from repro.sql.engine import SqlEngine

#: Bytes per cell, matching ``Table.nbytes``'s serialization model.
CELL_BYTES = 11

#: Instructions to maintain one row of the columnar table (array write,
#: index update) -- DML bypasses the full query path.
DML_ROW_INT = 2_400.0


class SqlBackend(StorageBackend):
    """A three-column (K, S, V) columnar table behind the protocol."""

    name = "sql"
    CPI = SqlEngine.EFFECTIVE_CPI
    self_charging = True

    def __init__(self, knobs=None, ctx=None, *, cluster=None, faults=None):
        super().__init__(knobs, ctx)
        self._engine = SqlEngine(ctx=ctx, cluster=cluster, faults=faults)
        cap = 1024
        self._k = np.zeros(cap, dtype=np.int64)    # key
        self._s = np.zeros(cap, dtype=np.int64)    # value stamp
        self._v = np.zeros(cap, dtype=np.int64)    # value size
        self._rows = 0
        self._index: dict = {}                     # key -> row
        self._costs: list = []                     # JobCosts since drain_costs
        self._dml_rows = 0                         # DML rows since drain_costs
        self._queries = 0
        self._rows_scanned = 0
        self._point = self._engine.prepare("SELECT K, S FROM kv WHERE K = ?")
        self._range = self._engine.prepare("SELECT K, S FROM kv WHERE K >= ?")
        #: ``kv`` is registered as views of the arrays' live prefix: an
        #: overwrite shows through them, a changed row count (the only
        #: time the arrays are reallocated) does not -- the next query
        #: registers again.
        self._stale = True

    def _on_attach(self) -> None:
        from repro.faults.inject import resolve_faults

        self._engine.ctx = self.ctx
        self._engine.faults = resolve_faults(self.ctx, None)

    # -- backing-store primitives ----------------------------------------------

    def _apply(self, key: int, size) -> None:
        row = self._index.get(key)
        if size is None:
            if row is None:
                return
            # Swap-with-last delete keeps the column arrays dense.
            last = self._rows - 1
            if row != last:
                for col in (self._k, self._s, self._v):
                    col[row] = col[last]
                self._index[int(self._k[row])] = row
            self._rows = last
            self._stale = True
            del self._index[key]
        else:
            if row is None:
                row = self._rows
                if row == len(self._k):
                    self._grow()
                self._rows += 1
                self._stale = True
                self._index[key] = row
            self._k[row] = key
            self._s[row] = value_stamp(key_bytes(key), size)
            self._v[row] = size
        self._dml_rows += 1

    def _get(self, key: int):
        result = self._query(self._point, key)
        if result.num_rows == 0:
            return None
        return int(result.table.column("S")[0])

    def _scan(self, start_key: int, limit: int) -> list:
        result = self._query(self._range, start_key)
        keys = result.table.column("K")
        stamps = result.table.column("S")
        # The engine has no ORDER BY/LIMIT; the adapter supplies both.
        # K is the primary key, so there are no ties for a sort to keep
        # stable, and rows arrive in insertion order -- nearly sorted,
        # which numpy's sorts finish in one pass and the packed-word
        # sort of ``repro.keyed`` does not (+22 % on a ycsb-e leg).
        order = np.argsort(keys)[:limit]
        return [(int(keys[i]), int(stamps[i])) for i in order]

    def record_count(self) -> int:
        return self._rows

    # -- cost hooks ------------------------------------------------------------

    def drain_costs(self) -> list:
        """Per-query engine JobCosts plus one DML phase since last call."""
        costs, self._costs = self._costs, []
        if self._dml_rows:
            ledger = CostLedger(self._engine.cluster, cpi=self.CPI)
            ledger.charge(
                "scenario:sql:dml",
                instructions=DML_ROW_INT * self._dml_rows,
                disk_write_bytes=3 * CELL_BYTES * self._dml_rows,
                working_bytes=3 * CELL_BYTES * self._rows,
            )
            self._dml_rows = 0
            costs.append(ledger.job)
        return costs

    def work(self) -> dict:
        return {
            "queries": self._queries,
            "rows_scanned": self._rows_scanned,
            "table_rows": self._rows,
            "table_bytes": 3 * CELL_BYTES * self._rows,
        }

    # -- internals -------------------------------------------------------------

    def _query(self, statement, key: int):
        if self._stale:
            self._register()
        result = self._engine.run_plan(statement, (key,))
        self._costs.append(result.cost)
        self._queries += 1
        self._rows_scanned += result.stats.rows_scanned
        return result

    def _register(self) -> None:
        """(Re-)register the live prefix of the column arrays as ``kv``."""
        n = self._rows
        table = Table("kv", {"K": self._k[:n], "S": self._s[:n],
                             "V": self._v[:n]})
        self._engine.register("kv", table, nbytes=3 * CELL_BYTES * n)
        self._stale = False

    def _grow(self) -> None:
        cap = max(1024, 2 * len(self._k))
        for attr in ("_k", "_s", "_v"):
            old = getattr(self, attr)
            fresh = np.zeros(cap, dtype=np.int64)
            fresh[:len(old)] = old
            setattr(self, attr, fresh)
