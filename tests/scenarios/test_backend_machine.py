"""One stateful property for the StorageBackend protocol.

A hypothesis state machine drives ``read / write / delete / scan /
begin / commit / rollback / tick`` against ``lsm``, ``sql`` and ``dict``
under a drawn :class:`Knobs`, and checks every answer against two plain
dicts: ``store`` -- what has propagated to the backing engine -- and
``buffer`` -- the session's staged writes, with the shared base class's
rules (autocommit, write-behind batches, transactions as sync points,
read-your-writes vs eventual) restated in a dozen lines.

On ``lsm`` two more rules flush the memtable and force a full
compaction, so scans cross run boundaries with tombstones in the
memtable, in the newest run, in older runs, and freshly elided.  After
every step the backing store's full ordered content must equal the
model's, and each backend's sorted-key view must mirror its map.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.scenarios import Knobs, key_bytes, make_backend
from repro.scenarios.backend import KNOB_CHOICES, WRITE_BEHIND_BATCH
from repro.scenarios.driver import BACKEND_NAMES
from repro.sitehash import stamp

#: Few keys, so that writes, deletes and scans keep colliding.
KEYS = st.integers(0, 24)
SIZES = st.integers(0, 60)
LIMITS = st.integers(1, 9)

_DEAD = None     # a staged delete, in the model's buffer


def _stamp(key: int, size: int) -> int:
    return stamp(key_bytes(key), size)


class BackendMachine(RuleBasedStateMachine):
    @initialize(
        backend=st.sampled_from(BACKEND_NAMES),
        knobs=st.builds(Knobs, **{name: st.sampled_from(choices)
                                  for name, choices in KNOB_CHOICES.items()}))
    def open_session(self, backend, knobs):
        self.engine = make_backend(backend, knobs)
        self.knobs = knobs
        self.store = {}          # key -> size: the backing store
        self.buffer = {}         # key -> size | _DEAD: staged, in order
        self.in_txn = False
        self.since_drain = 0

    # -- the base class's buffer rules, restated --------------------------------

    def _overlay(self, rows):
        """``rows`` with the staged writes applied, in write order."""
        for key, staged in self.buffer.items():
            if staged is _DEAD:
                rows.pop(key, None)
            else:
                rows[key] = staged
        return rows

    def _drain(self):
        self.since_drain = 0
        self._overlay(self.store)
        self.buffer.clear()

    def _stage(self, key, staged):
        self.buffer[key] = staged
        if not self.in_txn and not self.knobs.write_behind:
            self._drain()

    def _visible(self):
        """What a read may see: the store, under the buffer when the
        session reads its own writes."""
        if self.knobs.read_your_writes:
            return self._overlay(dict(self.store))
        return self.store

    # -- protocol rules ---------------------------------------------------------

    @rule(key=KEYS, size=SIZES)
    def write(self, key, size):
        self.engine.write(key, size)
        self._stage(key, size)

    @rule(key=KEYS)
    def delete(self, key):
        self.engine.delete(key)
        self._stage(key, _DEAD)

    @rule(key=KEYS)
    def read(self, key):
        size = self._visible().get(key)
        expected = None if size is None else _stamp(key, size)
        assert self.engine.read(key) == expected

    @rule(start=KEYS, limit=LIMITS)
    def scan(self, start, limit):
        visible = self._visible()
        expected = tuple((key, _stamp(key, visible[key]))
                         for key in sorted(visible) if key >= start)[:limit]
        assert self.engine.scan(start, limit) == expected

    @precondition(lambda self: not self.in_txn)
    @rule()
    def begin(self):
        self.engine.begin()
        self._drain()
        self.in_txn = True

    @precondition(lambda self: self.in_txn)
    @rule()
    def commit(self):
        self.engine.commit()
        self.in_txn = False
        self._drain()

    @precondition(lambda self: self.in_txn)
    @rule()
    def rollback(self):
        self.engine.rollback()
        self.buffer.clear()
        self.in_txn = False

    @rule()
    def tick(self):
        self.engine.tick()
        if self.in_txn or not self.knobs.write_behind:
            return
        self.since_drain += 1
        if self.since_drain >= WRITE_BEHIND_BATCH:
            self._drain()

    # -- LSM structure rules: same content, different layout --------------------

    @precondition(lambda self: self.engine.name == "lsm")
    @rule()
    def flush(self):
        self.engine._store.flush()

    @precondition(lambda self: self.engine.name == "lsm")
    @rule()
    def compact(self):
        self.engine._store._compact()

    # -- what must hold after every step ----------------------------------------

    @invariant()
    def backing_store_holds_the_model(self):
        expected = [(key, _stamp(key, self.store[key]))
                    for key in sorted(self.store)]
        assert self.engine._scan(0, len(self.store) + 1) == expected
        assert self.engine.record_count() == len(self.store)
        assert self.engine.in_txn == self.in_txn

    @invariant()
    def sorted_views_mirror_their_maps(self):
        if self.engine.name == "lsm":
            store = self.engine._store
            assert store._memtable_keys == sorted(store._memtable)
        elif self.engine.name == "dict":
            assert self.engine._keys == sorted(self.engine._data)


TestBackendMachine = BackendMachine.TestCase
TestBackendMachine.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)
