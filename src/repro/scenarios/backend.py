"""StorageBackend: the unified protocol every storage engine adapts to.

The paper characterizes the *same* logical operation across software
stacks (HBase vs Cassandra vs MySQL for Cloud OLTP, Hive vs Shark for
the queries); this module is the seam that makes that comparison
apples-to-apples inside the reproduction.  A backend exposes exactly
seven operations::

    read / write / delete / scan / begin / commit / rollback

over integer logical keys, and every backend must return the *same
logical answer* for the same operation sequence: a read yields the
deterministic :func:`repro.sitehash.stamp` of the live ``(key, size)``
pair (or None for a miss), a scan yields the ordered live ``(key,
stamp)`` rows.
The scenario driver (:mod:`repro.scenarios.driver`) and the scenario
library (:mod:`repro.scenarios.library`) speak only this protocol --
they never import ``repro.nosql`` or ``repro.sql`` internals.

Consistency knobs
-----------------
Visibility and transaction semantics live *here*, in the shared base
class, so all backends agree bit-for-bit on what a read may see:

* ``wal`` (``on``/``off``) -- durability of the backing engine's write
  path (the LSM adapter maps it onto :class:`~repro.nosql.store
  .StoreConfig`; the in-memory and SQL engines have no log to skip, so
  it is a no-op there).
* ``consistency`` (``ryw``/``eventual``) -- ``ryw`` (read-your-writes)
  reads consult the session's unpropagated write buffer first;
  ``eventual`` reads see only state that has propagated to the backing
  store, so recent writes are invisible until the next drain.
* ``commit`` (``sync``/``write-behind``) -- ``sync`` propagates each
  autocommit write at the end of its operation; ``write-behind`` buffers
  writes and drains every :data:`WRITE_BEHIND_BATCH` logical operations
  (the driver ticks the batch clock once per logical op, so retries
  under fault injection never shift drain boundaries).

Transactions always stage in the buffer and propagate atomically at
``commit`` (``rollback`` discards the staged writes); ``begin`` drains
any autocommit backlog first, so a transaction is a sync point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.sitehash import stamp

#: Autocommit writes buffered before a write-behind drain propagates
#: them to the backing store (in logical operations, driver-ticked).
WRITE_BEHIND_BATCH = 16

#: Knob vocabularies, by field.
KNOB_CHOICES = {
    "wal": ("on", "off"),
    "consistency": ("ryw", "eventual"),
    "commit": ("sync", "write-behind"),
}

#: Tombstone sentinel in the session write buffer.
_TOMBSTONE = object()


def key_bytes(key: int) -> bytes:
    """Canonical byte encoding of a logical key (YCSB's ``user<N>``).

    Zero-padded so byte order == numeric order, which is what makes
    ordered scans agree across the LSM store (byte keys) and the
    SQL/dict backends (integer keys).
    """
    return b"user%012d" % key


class BackendError(ValueError):
    """Raised for protocol misuse (nested begin, commit without begin)."""


@dataclass(frozen=True)
class Knobs:
    """The consistency knobs of one backend session.

    Parses from / renders to a compact ``name=value,...`` spec string
    (``wal=off,consistency=eventual``) so knobs travel through CLI
    flags and bench documents; omitted fields keep their defaults.
    """

    wal: str = "on"
    consistency: str = "ryw"
    commit: str = "sync"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value not in KNOB_CHOICES[f.name]:
                raise ValueError(
                    f"knob {f.name}={value!r}; valid: "
                    f"{', '.join(KNOB_CHOICES[f.name])}")

    @classmethod
    def parse(cls, spec) -> "Knobs":
        """``wal=off,consistency=eventual,commit=write-behind`` -> Knobs."""
        if isinstance(spec, Knobs):
            return spec
        kwargs = {}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or name not in KNOB_CHOICES:
                raise ValueError(
                    f"bad knob {part!r}; expected name=value with name in "
                    f"{', '.join(KNOB_CHOICES)}")
            kwargs[name] = value.strip()
        return cls(**kwargs)

    def __str__(self) -> str:
        defaults = Knobs.__new__(Knobs)
        parts = [f"{f.name}={getattr(self, f.name)}"
                 for f in fields(self)
                 if getattr(self, f.name) != f.default]
        return ",".join(parts) if parts else "default"

    @property
    def read_your_writes(self) -> bool:
        return self.consistency == "ryw"

    @property
    def write_behind(self) -> bool:
        return self.commit == "write-behind"


@dataclass
class BackendStats:
    """Protocol-level operation counters (backing-engine stats ride in
    each adapter's ``work()`` dict)."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    scans: int = 0
    read_hits: int = 0
    scan_rows: int = 0
    begins: int = 0
    commits: int = 0
    rollbacks: int = 0
    #: Buffer drains that propagated at least one write.
    drains: int = 0
    #: Writes propagated to the backing store across all drains.
    propagated: int = 0
    #: Reads answered from the session buffer (read-your-writes hits).
    buffer_hits: int = 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class StorageBackend:
    """Base class: shared transaction + visibility semantics.

    Subclasses implement the four backing-store primitives (apply one
    propagated write, point-get, ordered scan, record count) plus the
    cost hooks; everything the scenario driver observes -- buffering,
    drains, transaction atomicity, read-your-writes vs eventual
    visibility -- is decided here, identically for every backend.
    """

    #: Registry name ("lsm" / "sql" / "dict"); set by subclasses.
    name = "abstract"

    #: Effective CPI of the backend's request path (ledger parameter).
    CPI = 1.0

    #: True when the backing engine charges its own CostLedger per
    #: operation (the SQL engine); the driver then absorbs
    #: :meth:`drain_costs` instead of metering the phase itself.
    self_charging = False

    def __init__(self, knobs: Knobs = None, ctx=None):
        from repro.uarch.perfctx import context_or_null

        self.knobs = Knobs.parse(knobs) if knobs is not None else Knobs()
        self.ctx = context_or_null(ctx)
        self.stats = BackendStats()
        self._buffer: dict = {}      # key -> size | _TOMBSTONE, in write order
        self._in_txn = False
        self._ops_since_drain = 0

    # -- the protocol ----------------------------------------------------------

    def read(self, key: int):
        """Point lookup: the live value's stamp, or None for a miss."""
        self.stats.reads += 1
        if self.knobs.read_your_writes and key in self._buffer:
            self.stats.buffer_hits += 1
            staged = self._buffer[key]
            if staged is _TOMBSTONE:
                return None
            self.stats.read_hits += 1
            return stamp(key_bytes(key), staged)
        value = self._get(key)
        if value is not None:
            self.stats.read_hits += 1
        return value

    def write(self, key: int, size: int) -> None:
        """Insert/overwrite a record of ``size`` logical bytes."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self.stats.writes += 1
        self._buffer[key] = size
        self._autocommit()

    def delete(self, key: int) -> None:
        """Bury a key (idempotent; deleting a missing key is a no-op)."""
        self.stats.deletes += 1
        self._buffer[key] = _TOMBSTONE
        self._autocommit()

    def scan(self, start_key: int, limit: int) -> tuple:
        """Up to ``limit`` live ``(key, stamp)`` rows with key >= start,
        in key order."""
        if limit <= 0:
            return ()
        self.stats.scans += 1
        if self.knobs.read_your_writes and self._buffer:
            # The backing store may return rows a buffered tombstone
            # masks; over-fetch by the buffer size so the merge can
            # still fill the limit.
            rows = dict(self._scan(start_key, limit + len(self._buffer)))
            for key, staged in self._buffer.items():
                if key < start_key:
                    continue
                if staged is _TOMBSTONE:
                    rows.pop(key, None)
                else:
                    rows[key] = stamp(key_bytes(key), staged)
            out = tuple(sorted(rows.items())[:limit])
        else:
            out = tuple(self._scan(start_key, limit))
        self.stats.scan_rows += len(out)
        return out

    def begin(self) -> None:
        """Open a transaction (a sync point: the autocommit backlog
        propagates first, so rollback can never undo earlier writes)."""
        if self._in_txn:
            raise BackendError("begin() inside an open transaction")
        self._drain()
        self._in_txn = True
        self.stats.begins += 1

    def commit(self) -> None:
        """Atomically propagate the transaction's staged writes."""
        if not self._in_txn:
            raise BackendError("commit() without begin()")
        self._in_txn = False
        self._drain()
        self.stats.commits += 1

    def rollback(self) -> None:
        """Discard the transaction's staged writes."""
        if not self._in_txn:
            raise BackendError("rollback() without begin()")
        self._buffer.clear()
        self._in_txn = False
        self.stats.rollbacks += 1

    def tick(self) -> None:
        """One logical operation completed (driver-called).

        The write-behind drain clock counts these, not raw backend
        calls, so fault-injected op retries never shift drain
        boundaries -- a prerequisite for the recovered-run bit-identity
        invariant under ``consistency=eventual``.
        """
        if self._in_txn or not self.knobs.write_behind:
            return
        self._ops_since_drain += 1
        if self._ops_since_drain >= WRITE_BEHIND_BATCH:
            self._drain()

    def close(self) -> None:
        """Flush the session: drain the buffer (open txns are an error)."""
        if self._in_txn:
            raise BackendError("close() with an open transaction")
        self._drain()

    @property
    def in_txn(self) -> bool:
        return self._in_txn

    def attach(self, ctx) -> None:
        """Attach the measured-phase profiling context.

        Backends are constructed context-less for the (unprofiled,
        fault-free) preload phase; the driver attaches the real context
        right before the operation stream, mirroring the cloudoltp
        ``store.ctx = ctx`` idiom.
        """
        from repro.uarch.perfctx import context_or_null

        self.ctx = context_or_null(ctx)
        self._on_attach()

    def _on_attach(self) -> None:
        """Subclass hook: propagate the new context to the backing engine."""

    # -- backing-store primitives (subclass responsibility) --------------------

    def _apply(self, key: int, size) -> None:
        """Propagate one write to the backing store (``size=None`` is a
        delete)."""
        raise NotImplementedError

    def _get(self, key: int):
        """Backing-store point lookup -> stamp or None."""
        raise NotImplementedError

    def _scan(self, start_key: int, limit: int) -> list:
        """Backing-store ordered scan -> [(key, stamp), ...]."""
        raise NotImplementedError

    def record_count(self) -> int:
        """Live records in the backing store (buffered writes excluded)."""
        raise NotImplementedError

    # -- cost hooks ------------------------------------------------------------

    def charge_phase(self, pending) -> None:
        """Fill a driver-metered :class:`~repro.cluster.ledger
        .PendingPhase` with the backing engine's byte volumes since the
        last call (no-op for engines that are ``self_charging``)."""

    def drain_costs(self) -> list:
        """JobCosts charged by a self-accounting backing engine since
        the last call (the driver absorbs them into its ledger)."""
        return []

    def work(self) -> dict:
        """Backing-engine bookkeeping for the result details (flushes,
        compactions, rows scanned...); excluded from the functional
        fingerprint -- it is *how much work*, not *the answer*."""
        return {}

    # -- internals -------------------------------------------------------------

    def _autocommit(self) -> None:
        if not self._in_txn and not self.knobs.write_behind:
            self._drain()

    def _drain(self) -> None:
        self._ops_since_drain = 0
        if not self._buffer:
            return
        for key, staged in self._buffer.items():
            self._apply(key, None if staged is _TOMBSTONE else staged)
        self.stats.propagated += len(self._buffer)
        self.stats.drains += 1
        self._buffer.clear()
