"""Unit tests for the StorageBackend protocol, knobs, and adapters."""

import pytest

from repro.obs.metrics import METRICS
from repro.scenarios import BackendError, Knobs, key_bytes, run_scenario
from repro.scenarios.backend import WRITE_BEHIND_BATCH
from repro.scenarios.dict_backend import DictBackend
from repro.scenarios.driver import make_backend
from repro.scenarios.lsm_backend import LsmBackend
from repro.scenarios.sql_backend import SqlBackend
from repro.sitehash import stamp
from repro.sql.engine import SqlEngine


class TestKnobs:
    def test_defaults(self):
        knobs = Knobs()
        assert knobs.wal == "on"
        assert knobs.consistency == "ryw"
        assert knobs.commit == "sync"
        assert str(knobs) == "default"

    def test_parse_round_trip(self):
        spec = "wal=off,consistency=eventual,commit=write-behind"
        knobs = Knobs.parse(spec)
        assert knobs.wal == "off"
        assert knobs.consistency == "eventual"
        assert knobs.write_behind
        assert not knobs.read_your_writes
        assert Knobs.parse(str(knobs)) == knobs

    def test_parse_partial(self):
        knobs = Knobs.parse("consistency=eventual")
        assert knobs.wal == "on"
        assert knobs.consistency == "eventual"
        assert str(knobs) == "consistency=eventual"

    def test_parse_knobs_instance_is_identity(self):
        knobs = Knobs(wal="off")
        assert Knobs.parse(knobs) is knobs

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            Knobs(wal="maybe")
        with pytest.raises(ValueError):
            Knobs.parse("wal")
        with pytest.raises(ValueError):
            Knobs.parse("bogus=1")


class TestValueLaw:
    def test_key_bytes_order_matches_numeric_order(self):
        keys = [0, 1, 9, 10, 99, 100, 12345, 10**9]
        encoded = [key_bytes(k) for k in keys]
        assert encoded == sorted(encoded)


@pytest.fixture(params=["dict", "lsm", "sql"])
def backend(request):
    return make_backend(request.param)


class TestProtocol:
    def test_read_your_writes(self, backend):
        assert backend.read(1) is None
        backend.write(1, 100)
        assert backend.read(1) == stamp(key_bytes(1), 100)

    def test_overwrite_latest_wins(self, backend):
        backend.write(1, 100)
        backend.write(1, 200)
        assert backend.read(1) == stamp(key_bytes(1), 200)

    def test_delete_buries(self, backend):
        backend.write(1, 100)
        backend.delete(1)
        assert backend.read(1) is None
        assert backend.scan(0, 10) == ()

    def test_scan_ordered_live_rows(self, backend):
        for k in (5, 3, 9, 1):
            backend.write(k, 10 * k)
        backend.delete(3)
        rows = backend.scan(0, 10)
        assert [k for k, _ in rows] == [1, 5, 9]
        assert rows[0][1] == stamp(key_bytes(1), 10)
        assert backend.scan(5, 10) == rows[1:]
        assert len(backend.scan(0, 2)) == 2
        assert backend.scan(0, 0) == ()

    def test_txn_commit_applies(self, backend):
        backend.begin()
        backend.write(1, 100)
        assert backend.in_txn
        backend.commit()
        assert not backend.in_txn
        assert backend.read(1) == stamp(key_bytes(1), 100)
        assert backend.record_count() == 1

    def test_txn_rollback_discards(self, backend):
        backend.write(1, 100)
        backend.begin()
        backend.write(2, 200)
        backend.delete(1)
        backend.rollback()
        assert backend.read(1) == stamp(key_bytes(1), 100)
        assert backend.read(2) is None
        assert backend.record_count() == 1

    def test_protocol_misuse_raises(self, backend):
        with pytest.raises(BackendError):
            backend.commit()
        with pytest.raises(BackendError):
            backend.rollback()
        backend.begin()
        with pytest.raises(BackendError):
            backend.begin()
        with pytest.raises(BackendError):
            backend.close()
        backend.rollback()

    def test_negative_size_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.write(1, -1)

    def test_record_count_tracks_live(self, backend):
        for k in range(5):
            backend.write(k, 10)
        backend.delete(2)
        backend.close()
        assert backend.record_count() == 4


class TestVisibilityKnobs:
    """Visibility semantics live in the shared base class; DictBackend
    is the cheapest probe of them."""

    def test_eventual_hides_unpropagated_writes(self):
        be = DictBackend(Knobs.parse("consistency=eventual,"
                                     "commit=write-behind"))
        be.write(1, 100)
        assert be.read(1) is None          # not drained yet
        assert be.scan(0, 10) == ()
        be.close()
        assert be.read(1) == stamp(key_bytes(1), 100)

    def test_ryw_sees_buffered_writes(self):
        be = DictBackend(Knobs.parse("commit=write-behind"))
        be.write(1, 100)
        assert be.stats.propagated == 0    # still buffered
        assert be.read(1) == stamp(key_bytes(1), 100)
        assert be.stats.buffer_hits == 1
        rows = be.scan(0, 10)
        assert [k for k, _ in rows] == [1]

    def test_ryw_scan_merges_buffered_tombstone(self):
        be = DictBackend(Knobs.parse("commit=write-behind"))
        be.write(1, 100)
        be.write(2, 100)
        be.close()
        be.delete(1)                       # buffered tombstone
        assert [k for k, _ in be.scan(0, 10)] == [2]
        assert be.read(1) is None

    def test_write_behind_drains_on_batch_boundary(self):
        be = DictBackend(Knobs.parse("commit=write-behind"))
        for i in range(WRITE_BEHIND_BATCH - 1):
            be.write(i, 10)
            be.tick()
        assert be.stats.drains == 0
        be.write(99, 10)
        be.tick()                          # batch boundary
        assert be.stats.drains == 1
        assert be.stats.propagated == WRITE_BEHIND_BATCH

    def test_sync_commit_drains_every_op(self):
        be = DictBackend()
        be.write(1, 10)
        be.write(2, 10)
        assert be.stats.drains == 2
        assert be.stats.propagated == 2

    def test_txn_buffer_never_drains_early(self):
        be = DictBackend()
        be.begin()
        for i in range(3 * WRITE_BEHIND_BATCH):
            be.write(i, 10)
            be.tick()
        assert be.stats.propagated == 0
        be.commit()
        assert be.stats.propagated == 3 * WRITE_BEHIND_BATCH

    def test_begin_is_a_sync_point(self):
        be = DictBackend(Knobs.parse("commit=write-behind"))
        be.write(1, 10)
        be.begin()                         # drains the autocommit backlog
        assert be.stats.propagated == 1
        be.rollback()
        assert be.read(1) == stamp(key_bytes(1), 10)


class TestAdapters:
    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_backend("mongodb")

    def test_lsm_wal_knob_reaches_store_config(self):
        assert LsmBackend(Knobs.parse("wal=off"))._store.config.wal is False
        assert LsmBackend()._store.config.wal is True

    def test_lsm_work_reports_engine_effort(self):
        be = LsmBackend()
        for i in range(10):
            be.write(i, 100)
        work = be.work()
        assert work["wal_bytes"] > 0
        assert "flushes" in work and "tombstones" in work

    def test_sql_backend_is_self_charging(self):
        be = SqlBackend()
        be.write(1, 100)
        be.read(1)
        costs = be.drain_costs()
        assert costs                        # query + DML phases
        assert be.drain_costs() == []       # drained
        assert be.work()["queries"] == 1

    def test_sql_backend_grows_past_initial_capacity(self):
        be = SqlBackend()
        for i in range(2100):               # > 2 doublings of 1024
            be.write(i, 10)
        assert be.record_count() == 2100
        assert be.read(2099) == stamp(key_bytes(2099), 10)
        rows = be.scan(2090, 100)
        assert [k for k, _ in rows] == list(range(2090, 2100))

    @pytest.mark.parametrize("scale", [1, 2])
    def test_sql_backend_parses_and_binds_once(self, scale, monkeypatch):
        registrations = []
        register = SqlEngine.register

        def counting_register(engine, name, table, nbytes):
            registrations.append(name)
            register(engine, name, table, nbytes)

        monkeypatch.setattr(SqlEngine, "register", counting_register)

        def counted(name):
            counters = [METRICS.counter("sql.statements_parsed"),
                        METRICS.counter("sql.plans_bound")]
            before = [c.value for c in counters]
            del registrations[:]
            result = run_scenario(name, backend="sql", scale=scale, seed=0)
            return (result, [c.value - b for c, b in zip(counters, before)],
                    len(registrations))

        # Read-only: both statements parsed when the backend is built,
        # the point lookup bound by the first read (the range statement
        # never runs), the preloaded table registered for that read --
        # and nothing more, however many reads follow.
        result, (parsed, bound), registered = counted("ycsb-c")
        assert result.work["queries"] == 400 * scale
        assert (parsed, bound, registered) == (2, 1, 1)
        # Scans between inserts: a registration per burst of inserts
        # that a scan follows, never one per scan.
        result, (parsed, bound), registered = counted("ycsb-e")
        assert (parsed, bound) == (2, 1)
        assert registered <= result.op_mix["write"] + 1
        assert registered < result.work["queries"] / 10

    def test_dict_backend_charges_nothing_to_disk(self):
        be = DictBackend()
        be.write(1, 100)

        class Pending:
            disk_read_bytes = 0.0
            disk_write_bytes = 0.0
            working_bytes = 0.0

        pending = Pending()
        be.charge_phase(pending)
        assert pending.disk_read_bytes == 0.0
        assert pending.disk_write_bytes == 0.0
        assert pending.working_bytes > 0
