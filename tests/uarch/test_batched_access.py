"""The array-state LRU kernel equals the per-access ``OrderedDict`` loops.

``Cache`` and ``Tlb`` decide whole batches inside ``SetAssocLRU``; the
oracle in ``reference_lru.py`` walks one access at a time.  Everything a
characterization can observe must agree exactly: the hit vector, the
weighted ``accesses`` / ``misses`` floats (the benchmark hashes them),
and the LRU *order* of every set, which decides every later hit.
"""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_lru import ReferenceCache, ReferenceTlb
from repro.uarch import lru, sidecar
from repro.uarch.cache import Cache, CacheConfig
from repro.uarch.codemodel import FRAMEWORK_STACK, SERVER_STACK
from repro.uarch.events import PerfEvents
from repro.uarch.hierarchy import MemorySystem, XEON_E5310, XEON_E5645
from repro.uarch.perfctx import PerfContext
from repro.uarch.tlb import Tlb, TlbConfig

CONFIG = CacheConfig("L1", size_bytes=4096, ways=4, line_size=64)


def _addresses(n=4000, span=512, seed=1234):
    """Line numbers with reuse (span smaller than the stream length)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=n, dtype=np.int64)


def _lru_state(cache):
    """Tag contents of every set in LRU order (oldest first)."""
    return [cache.lru_order(s) for s in range(cache.config.num_sets)]


class TestCacheAccessMany:
    def test_matches_oracle(self):
        addrs = _addresses()
        oracle, batched = ReferenceCache(CONFIG), Cache(CONFIG)
        assert np.array_equal(oracle.access_many(addrs, 2.0),
                              batched.access_many(addrs, 2.0))
        assert _lru_state(oracle) == _lru_state(batched)
        assert batched.accesses == oracle.accesses
        assert batched.misses == oracle.misses

    def test_single_access_calls_match_oracle(self):
        addrs = _addresses(n=600)
        oracle, single = ReferenceCache(CONFIG), Cache(CONFIG)
        for a in addrs.tolist():
            assert single.access(a, 2.0) is oracle.access(a, 2.0)
            assert single.contains(a)
        assert _lru_state(oracle) == _lru_state(single)
        assert single.accesses == oracle.accesses      # 2.0 sums exactly
        assert single.misses == oracle.misses

    def test_per_run_weights(self):
        """A batch of runs counts like one call per run (empty runs
        included), in one pass over the replacement state."""
        addrs = _addresses(n=500)
        ends = [0, 1, 1, 130, 131, 400, 500, 500]
        weights = (np.random.default_rng(7).random(len(ends)) * 10).tolist()
        oracle, batched, by_call = (
            ReferenceCache(CONFIG), Cache(CONFIG), Cache(CONFIG))
        assert np.array_equal(oracle.access_many(addrs, weights, ends),
                              batched.access_many(addrs, weights, ends))
        for weight, start, end in zip(weights, [0] + ends[:-1], ends):
            by_call.access_many(addrs[start:end], weight)
        assert _lru_state(oracle) == _lru_state(batched) == _lru_state(by_call)
        assert batched.accesses == oracle.accesses == by_call.accesses
        assert batched.misses == oracle.misses == by_call.misses

    @pytest.mark.parametrize("weights, ends", [
        (np.ones(500), None),               # the per-access form is gone
        ([1.0, 2.0], [100]),
        ([1.0, 2.0], [100, 499]),
    ])
    def test_malformed_runs_rejected_and_state_kept(self, weights, ends):
        cache = Cache(CONFIG)
        with pytest.raises(ValueError):
            cache.access_many(_addresses(n=500), weights, ends)
        assert cache.resident_lines == 0 and cache.accesses == 0.0

    def test_consecutive_batches_continue_the_state(self):
        addrs = _addresses()
        oracle, batched = ReferenceCache(CONFIG), Cache(CONFIG)
        oracle.access_many(addrs)
        h1 = batched.access_many(addrs[:1500])
        h2 = batched.access_many(addrs[1500:])
        assert _lru_state(oracle) == _lru_state(batched)
        assert int(oracle.misses) == int((~h1).sum() + (~h2).sum())

    def test_empty_batch(self):
        cache = Cache(CONFIG)
        hits = cache.access_many(np.empty(0, dtype=np.int64))
        assert hits.size == 0 and hits.dtype == bool
        assert cache.accesses == 0.0

    def test_prime_many_matches_oracle(self):
        addrs = _addresses(n=300, span=200)
        oracle, batched = ReferenceCache(CONFIG), Cache(CONFIG)
        oracle.prime_many(addrs)
        batched.prime_many(addrs)
        assert _lru_state(oracle) == _lru_state(batched)
        assert batched.accesses == 0.0 and batched.misses == 0.0

    def test_prime_keeps_a_resident_line_in_place(self):
        cache = Cache(CacheConfig("one-set", 4 * 64, ways=4))
        cache.access_many(np.array([1, 2, 3]))
        cache.prime(1)
        assert cache.lru_order(0) == [1, 2, 3]
        cache.prime(9)
        assert cache.lru_order(0) == [1, 2, 3, 9]

    @pytest.mark.parametrize("n", [1, lru.LOOP_BELOW])
    def test_negative_line_rejected_and_state_kept(self, n):
        cache = Cache(CONFIG)
        cache.access_many(np.arange(40))
        before = _lru_state(cache)
        with pytest.raises(ValueError):
            cache.access_many(np.full(n, -5))
        assert _lru_state(cache) == before
        assert not cache.contains(-5)


class TestTlbAccessMany:
    CONFIG = TlbConfig("TLB", entries=16)

    def test_matches_oracle(self):
        addrs = _addresses(span=40) * 4096 + 17
        oracle, batched = ReferenceTlb(self.CONFIG), Tlb(self.CONFIG)
        assert np.array_equal(oracle.access_many(addrs, 3.0),
                              batched.access_many(addrs, 3.0))
        assert oracle.lru_order() == batched.lru_order()
        assert batched.accesses == oracle.accesses
        assert batched.misses == oracle.misses
        assert batched.hits == batched.accesses - batched.misses

    def test_same_page_filter_spans_run_boundaries(self):
        """A run that starts on the page the previous run ended on hits
        without reaching the LRU, as it did as a call of its own."""
        addrs = np.array([0, 64, 4096, 4160, 4224, 8192, 0, 128],
                         dtype=np.int64)
        weights, ends = [2.0, 0.5, 8.0], [3, 4, 8]      # cuts inside page 1
        oracle, batched, by_call = (ReferenceTlb(self.CONFIG),
                                    Tlb(self.CONFIG), Tlb(self.CONFIG))
        hits = batched.access_many(addrs, weights, ends)
        assert np.array_equal(hits, oracle.access_many(addrs, weights, ends))
        assert hits.tolist() == [False, True, False, True, True, False,
                                 True, True]
        for weight, start, end in zip(weights, [0] + ends[:-1], ends):
            by_call.access_many(addrs[start:end], weight)
        assert oracle.lru_order() == batched.lru_order() == by_call.lru_order()
        assert batched.accesses == oracle.accesses == by_call.accesses == 38.5
        assert batched.misses == oracle.misses == by_call.misses == 12.0

    def test_runs_inside_one_page_hit_without_reordering(self):
        """Stepping a line at a time through pages: all but the first
        access to each page repeat the page just before."""
        addrs = np.arange(0, 40 * 4096, 64, dtype=np.int64)
        oracle, batched = ReferenceTlb(self.CONFIG), Tlb(self.CONFIG)
        hits = batched.access_many(addrs, 0.7)
        assert np.array_equal(hits, oracle.access_many(addrs, 0.7))
        assert int((~hits).sum()) == 40
        assert oracle.lru_order() == batched.lru_order()
        assert batched.misses == oracle.misses

    def test_single_access_calls_match_oracle(self):
        addrs = _addresses(n=300, span=40) * 4096
        oracle, single = ReferenceTlb(self.CONFIG), Tlb(self.CONFIG)
        for a in addrs.tolist():
            assert single.access(a) is oracle.access(a)
        assert oracle.lru_order() == single.lru_order()

    def test_prime_many_matches_oracle(self):
        addrs = _addresses(n=100, span=30) * 4096
        oracle, batched = ReferenceTlb(self.CONFIG), Tlb(self.CONFIG)
        oracle.prime_many(addrs)
        batched.prime_many(addrs)
        assert oracle.lru_order() == batched.lru_order()


# -- property: any geometry, any stream, any split into batches ----------------

def _machine_geometries():
    shapes = set()
    for machine in (XEON_E5645, XEON_E5310):
        for config in (machine, machine.contracted(8)):
            for cache in (config.l1i, config.l1d, config.l2, config.l3):
                if cache is not None:
                    shapes.add((cache.num_sets, cache.ways))
            shapes.add((1, config.itlb.entries))
            shapes.add((1, config.dtlb.entries))
    return sorted(shapes)


GEOMETRY = st.one_of(
    st.tuples(st.integers(1, 12), st.integers(1, 9)),
    st.sampled_from(_machine_geometries()),
)
STREAM_KINDS = ("sequential", "cyclic", "hot", "uniform", "repeats", "huge")


def _stream(kind, num_sets, ways, length, rng):
    """Line numbers of one of the shapes the engines produce."""
    if kind == "sequential":
        return int(rng.integers(0, 1 << 20)) + np.arange(length)
    if kind == "cyclic":            # W + 1 lines per set: LRU's worst case
        return np.arange(length) % (num_sets * (ways + 1))
    if kind == "hot":               # fewer than W lines per set, long windows
        lines = rng.integers(0, max(1, num_sets * (ways - 1)), size=length)
        cold = rng.random(length) < 0.02
        lines[cold] = rng.integers(1 << 20, 1 << 21, size=int(cold.sum()))
        return lines
    if kind == "uniform":
        return rng.integers(0, 3 * num_sets * ways + 2, size=length)
    if kind == "repeats":
        return np.repeat(rng.integers(0, 2 * num_sets * ways + 2,
                                      size=length // 3 + 1), 3)[:length]
    # Keys that leave no room for the index in a packed sort (a TLB's
    # pages must still fit an int64 byte address).
    return (1 << (50 if num_sets == 1 else 56)) + rng.integers(
        0, num_sets * ways + 3, size=length)


def _batches(stream, rng):
    """Split into consecutive batches on both sides of LOOP_BELOW."""
    cuts, at = [], 0
    while at < stream.size:
        at += int(rng.choice([1, 7, lru.LOOP_BELOW - 1, lru.LOOP_BELOW,
                              3 * lru.LOOP_BELOW, 2000]))
        cuts.append(at)
    return np.split(stream, cuts[:-1])


def _run_ends(size, rng):
    """Cut a batch into runs: all of length 1 (a weight per access),
    or random lengths, empty runs among them."""
    if rng.random() < 0.3:
        return np.arange(1, size + 1)
    cuts = np.sort(rng.integers(0, size + 1, size=int(rng.integers(0, 12))))
    return np.append(cuts, size)


@given(geometry=GEOMETRY, kind=st.sampled_from(STREAM_KINDS),
       length=st.integers(1, 2500), seed=st.integers(0, 2 ** 32 - 1),
       run_weights=st.booleans())
@settings(max_examples=120, deadline=None)
def test_any_geometry_stream_and_split_matches_oracle(
        geometry, kind, length, seed, run_weights):
    num_sets, ways = geometry
    rng = np.random.default_rng(seed)
    stream = _stream(kind, num_sets, ways, length, rng).astype(np.int64)
    if num_sets == 1:
        config = TlbConfig("tlb", entries=ways)
        oracle, batched = ReferenceTlb(config), Tlb(config)
        stream = stream * config.page_size + rng.integers(
            0, config.page_size, size=stream.size)
        touched = None
    else:
        config = CacheConfig("cache", num_sets * ways * 64, ways=ways)
        oracle, batched = ReferenceCache(config), Cache(config)
        touched = np.unique(stream % num_sets).tolist()

    def orders(model):
        if touched is None:
            return model.lru_order()
        return [model.lru_order(s) for s in touched]

    primed = stream[:int(rng.integers(0, 40))]
    oracle.prime_many(primed)
    batched.prime_many(primed)
    assert orders(oracle) == orders(batched)
    for batch in _batches(stream, rng):
        weights, ends = float(rng.random() * 16), None
        if run_weights:
            ends = _run_ends(batch.size, rng)
            weights = (rng.random(ends.size) * 16).tolist()
        assert np.array_equal(oracle.access_many(batch, weights, ends),
                              batched.access_many(batch, weights, ends))
        assert orders(oracle) == orders(batched)
        assert batched.accesses == oracle.accesses
        assert batched.misses == oracle.misses
    if num_sets > 1:
        assert batched.resident_lines == oracle.resident_lines


# -- the hierarchy on top -------------------------------------------------------

def _oracle_backed(memsys):
    """Swap every cache and TLB of ``memsys`` for its oracle."""
    machine = memsys.machine
    memsys.l1i = ReferenceCache(machine.l1i)
    memsys.l1d = ReferenceCache(machine.l1d)
    memsys.l2 = ReferenceCache(machine.l2)
    memsys.l3 = ReferenceCache(machine.l3) if machine.l3 is not None else None
    memsys.itlb = ReferenceTlb(machine.itlb)
    memsys.dtlb = ReferenceTlb(machine.dtlb)
    return memsys


def _assert_same_events(got: PerfEvents, want: PerfEvents):
    for f in fields(PerfEvents):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestMemorySystemBatched:
    """The level-batched hierarchy over the array kernel equals the
    per-address walk over the oracle, event for event."""

    @staticmethod
    def _reference_data_access(memsys, addresses, weight):
        """One address at a time through DTLB -> L1D -> L2 -> (L3),
        counting LLC misses; returns the run's memory bytes.  ``weight``
        must be a power of two: the oracle's single-access path adds it
        once per access, which then sums exactly like the batch path's
        one multiplication."""
        llc_misses = 0
        line_bits = memsys._line_bits
        for addr in addresses.tolist():
            memsys.dtlb.access(addr, weight)
            line = addr >> line_bits
            if memsys.l1d.access(line, weight):
                continue
            if memsys.l2.access(line, weight):
                continue
            if memsys.l3 is not None and memsys.l3.access(line, weight):
                continue
            llc_misses += 1
        return (llc_misses * weight * memsys.REAL_LINE_SIZE
                * memsys.MEM_TRAFFIC_AMPLIFICATION)

    @pytest.mark.parametrize("machine", [XEON_E5645, XEON_E5310],
                             ids=["E5645", "E5310-no-L3"])
    @pytest.mark.parametrize("as_one_batch", [False, True],
                             ids=["call-per-run", "one-batch-of-runs"])
    def test_data_access_equivalence(self, machine, as_one_batch):
        machine = machine.contracted(8)
        rng = np.random.default_rng(99)
        runs = [rng.integers(0, 1 << 22, size=size, dtype=np.int64)
                for size in (3000, 1, 60, 3000)]
        runs.append(np.arange(0, 1 << 18, 64, dtype=np.int64))
        runs.append(runs[-1][:40])         # all hits: nothing reaches L2
        weights = [8.0, 4.0, 8.0, 16.0, 2.0, 8.0]

        reference = _oracle_backed(MemorySystem(machine, PerfEvents()))
        batched = MemorySystem(machine, PerfEvents())
        want = [self._reference_data_access(reference, run, weight)
                for run, weight in zip(runs, weights)]
        if as_one_batch:
            got = batched.data_access(np.concatenate(runs), weights,
                                      np.cumsum([run.size for run in runs]))
        else:
            got = [batched.data_access(run, weight)[0]
                   for run, weight in zip(runs, weights)]
        assert got == want and want[0] > 0 and want[-1] == 0
        reference.harvest()
        batched.harvest()

        _assert_same_events(batched.events, reference.events)
        for level in ("l1d", "l2", "l3"):
            if getattr(batched, level) is not None:
                assert (_lru_state(getattr(reference, level))
                        == _lru_state(getattr(batched, level))), level
        assert reference.dtlb.lru_order() == batched.dtlb.lru_order()

    @pytest.mark.parametrize("machine", [XEON_E5645, XEON_E5310],
                             ids=["E5645", "E5310-no-L3"])
    def test_inst_fetch_after_code_warmup_equivalence(self, machine):
        """Whole contexts side by side: ``_warm_code`` primes L1I/ITLB,
        then instruction fetches and data patterns interleave.  The
        oracle-backed one keeps its data caches in process."""
        with mock.patch.object(sidecar, "AVAILABLE", False):
            reference = PerfContext(machine=machine, seed=5)
        _oracle_backed(reference.memsys)
        batched = PerfContext(machine=machine, seed=5)
        for ctx in (reference, batched):
            for profile in (FRAMEWORK_STACK, SERVER_STACK, FRAMEWORK_STACK):
                with ctx.code(profile):
                    ctx.int_ops(3e7)
                    ctx.seq_read("input", 1 << 20)
                    ctx.branch_ops(2e7)
                    ctx.rand_read("table", 5e4)
                    ctx.skewed_write("cache", 2e4)
                    ctx.fp_ops(1e7)
            ctx.finalize()
        assert reference.events.l1i_misses > 0
        _assert_same_events(batched.events, reference.events)
        assert (_lru_state(reference.memsys.l1i)
                == _lru_state(batched.memsys.l1i))
        assert (reference.memsys.itlb.lru_order()
                == batched.memsys.itlb.lru_order())

    def test_inst_fetch_statistical_model_unchanged(self):
        machine = XEON_E5645.contracted(8)
        memsys = MemorySystem(machine, PerfEvents())
        addrs = np.random.default_rng(5).integers(
            0, 1 << 20, size=2000, dtype=np.int64)
        (mem_bytes,) = memsys.inst_fetch(addrs, 16.0)
        memsys.harvest()
        ev = memsys.events
        assert mem_bytes == pytest.approx(ev.l3_misses * 64 * 3.0)
        assert ev.l1i_accesses == pytest.approx(2000 * 16.0)
        l1_miss_weight = ev.l1i_misses
        assert ev.l2_misses == pytest.approx(
            l1_miss_weight * memsys.CODE_L2_MISS_RATE)
        assert ev.l3_accesses == pytest.approx(ev.l2_misses)
