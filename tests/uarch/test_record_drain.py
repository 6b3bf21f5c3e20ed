"""Record, then simulate: *when* a context drains changes nothing.

``PerfContext`` queues the address runs of data patterns and
instruction-fetch flushes and walks them through the hierarchy once
``lru.DRAIN_AT`` addresses are waiting.  Draining at 1 address is the
old behaviour -- every pattern simulated as it is declared -- so a
context draining there and contexts draining at 7, 4 096 and 65 536 (and
one more that also drains at the span boundaries of a recording tracer)
must agree on everything a run can observe: every ``PerfEvents`` field,
its ``repr`` (the benchmark hashes it, so a ``numpy.float64`` where a
``float`` was is a change), the LRU order of every set, and the report.

Those contexts keep their data caches in process (``sidecar.AVAILABLE``
patched off, the test-only seam); an untraced context left alone runs
its L1D -> L2 -> L3 chain in the sidecar, and must agree as well.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import Tracer
from repro.uarch import lru, sidecar
from repro.uarch.codemodel import FRAMEWORK_STACK, HPC_KERNEL, SERVER_STACK
from repro.uarch.hierarchy import MemorySystem, XEON_E5310, XEON_E5645
from repro.uarch.perfctx import DATA, FETCH, PerfContext

PROFILES = (FRAMEWORK_STACK, SERVER_STACK, HPC_KERNEL)
REGIONS = ("input", "table", "cache")
THRESHOLDS = (1, 7, 4096, 65536)

COUNT = st.builds(
    lambda value, as_numpy: np.float64(value) if as_numpy else value,
    st.floats(1, 4e4), st.booleans())
ELEM = st.sampled_from([1, 8, 16, 64])
REGION = st.sampled_from(REGIONS)
PATTERN = st.one_of(
    st.tuples(st.sampled_from(["seq_read", "seq_write"]), REGION,
              st.integers(1, 1 << 19), ELEM),
    st.tuples(st.sampled_from(["rand_read", "rand_write"]), REGION,
              COUNT, ELEM),
    st.tuples(st.sampled_from(["skewed_read", "skewed_write"]), REGION,
              COUNT, ELEM, st.floats(0.01, 1.0), st.floats(0.0, 1.0)),
    st.tuples(st.just("stride_read"), REGION, COUNT,
              st.sampled_from([8, 64, 4096, 4160])),
    # At least FLUSH_THRESHOLD instructions once the implicit loads and
    # stores are added: these flush a fetch run where they stand.
    st.tuples(st.sampled_from(["int_ops", "fp_ops"]),
              st.sampled_from([1e3, 2e5, 3.2e6, 3e7])),
)


def _scopes(programs):
    """A ``code()`` scope (a new profile is primed between queued fetch
    runs) or a span (a drain point for a recording tracer only)."""
    return st.one_of(
        st.tuples(st.just("code"), st.sampled_from(PROFILES), programs),
        st.tuples(st.just("span"), programs),
    )


PROGRAM = st.recursive(
    st.lists(PATTERN, min_size=1, max_size=6),
    lambda programs: st.lists(st.one_of(PATTERN, _scopes(programs)),
                              min_size=1, max_size=6),
    max_leaves=30)


def _play(ctx, program):
    for step in program:
        if step[0] == "code":
            with ctx.code(step[1]):
                _play(ctx, step[2])
        elif step[0] == "span":
            with ctx.span("scope"):
                _play(ctx, step[1])
        else:
            getattr(ctx, step[0])(*step[1:])


def in_process(*args, **kwargs) -> PerfContext:
    """A context that keeps its data caches in this process."""
    with mock.patch.object(sidecar, "AVAILABLE", False):
        return PerfContext(*args, **kwargs)


def _observe(machine, seed, program, drain_at, tracer=None, beside=False):
    """Everything observable of one run draining at ``drain_at``."""
    make = PerfContext if beside else in_process
    ctx = make(machine, seed=seed, tracer=tracer)
    assert ctx._beside == beside
    with mock.patch.object(lru, "DRAIN_AT", drain_at):
        _play(ctx, program)
        report = ctx.finalize(cores_used=2, metadata={"seed": seed})
    memsys = ctx.memsys
    orders = {
        name: [cache.lru_order(s) for s in range(cache.config.num_sets)]
        for name in ("l1i", "l1d", "l2", "l3")
        if (cache := getattr(memsys, name)) is not None
    }
    orders["itlb"] = memsys.itlb.lru_order()
    orders["dtlb"] = memsys.dtlb.lru_order()
    return report, repr(report.events), orders


@given(machine=st.sampled_from([XEON_E5645, XEON_E5310]),
       seed=st.integers(0, 2 ** 16), program=PROGRAM)
@settings(max_examples=40, deadline=None)
def test_any_drain_threshold_observes_the_same_run(machine, seed, program):
    immediate = _observe(machine, seed, program, drain_at=1)
    for drain_at in THRESHOLDS[1:]:
        assert _observe(machine, seed, program, drain_at) == immediate, drain_at
    traced = _observe(machine, seed, program, 65536, tracer=Tracer())
    assert traced == immediate
    beside = _observe(machine, seed, program, 65536, beside=True)
    assert beside == immediate
    assert (machine.l3 is None) == ("l3" not in immediate[2])


def test_programs_reach_every_drain_point():
    """The property above is only as good as its programs: a fixed one
    of the same shape drains at the threshold, before a priming, and at
    ``finalize`` -- and misses at every level, code and data."""
    program = [
        ("code", FRAMEWORK_STACK, [
            ("int_ops", 3e7), ("seq_read", "input", 1 << 19, 8),
            ("rand_read", "table", np.float64(4e4), 8), ("fp_ops", 3e7),
            ("code", SERVER_STACK, [("int_ops", 3e7),
                                    ("skewed_write", "cache", 4e4, 8, 0.1, 0.9)]),
            ("stride_read", "table", 4e4, 4160), ("int_ops", 3e7),
            ("rand_read", "input", 800, 8),
        ]),
    ]
    calls = []
    original = MemorySystem.__dict__["data_access"]

    def counted(self, addresses, *args):
        calls.append(np.size(addresses))
        return original(self, addresses, *args)

    with mock.patch.object(MemorySystem, "data_access", counted):
        report, _, _ = _observe(XEON_E5645, 3, program, 4096)
    events = report.events
    assert len(calls) >= 3 and max(calls) >= 4096 and min(calls) < 4096
    for name in ("l1i_misses", "l2_misses", "l3_misses", "itlb_misses",
                 "dtlb_misses", "mem_bytes"):
        assert getattr(events, name) > 0, name
    assert isinstance(events.mem_bytes, np.float64)    # the type rides along


def test_drain_adds_memory_bytes_in_program_order():
    """Data and fetch runs go down as two batches, but ``mem_bytes`` is
    one float sum: it is taken run by run in recorded order (summed per
    stream, this queue would read 2.0)."""
    batches = []

    class Memory:
        def __init__(self, mem_bytes):
            self.mem_bytes = mem_bytes

        def __call__(self, addresses, weights, ends):
            batches.append((addresses.tolist(), weights, ends.tolist()))
            return self.mem_bytes

    ctx = in_process(XEON_E5645)
    ctx.memsys.data_access = Memory([1e16, 0.0, -1e16])
    ctx.memsys.inst_fetch = Memory([1.0, 1.0])
    ctx._record(FETCH, np.array([7, 8]), 0.5)
    ctx._record(DATA, np.array([1]), 2.0)
    ctx._record(DATA, np.array([2, 3]), np.float64(4.0))
    ctx._record(FETCH, np.array([9]), 0.25)
    ctx._record(DATA, np.array([4]), 8.0)
    ctx.settle()
    assert batches == [([1, 2, 3, 4], [2.0, 4.0, 8.0], [1, 3, 4]),
                       ([7, 8, 9], [0.5, 0.25], [2, 3])]
    assert type(batches[0][1][1]) is np.float64     # weights ride as given
    assert ctx.events.mem_bytes == ((((0.0 + 1.0) + 1e16) + 0.0) + 1.0) - 1e16
    assert ctx.events.mem_bytes == 0.0


def test_untraced_context_drains_at_the_threshold_and_finalize_only():
    """Spans are drain points for a recording tracer only.  Every data
    drain translates its batch here, wherever its caches then run."""
    calls = []

    def counting(name):
        original = MemorySystem.__dict__[name]

        def counted(self, addresses, *args):
            calls.append((name, int(np.size(addresses))))
            return original(self, addresses, *args)
        return mock.patch.object(MemorySystem, name, counted)

    def run(tracer):
        calls.clear()
        ctx = PerfContext(XEON_E5645, seed=1, tracer=tracer)
        with counting("translate"), counting("inst_fetch"):
            for i in range(20):
                with ctx.span(f"phase:{i}"):
                    ctx.rand_read("table", 2e4, 8)      # 2 500 addresses
                    ctx.int_ops(1e5)
            before_finalize = list(calls)
            ctx.finalize()
        return before_finalize, calls[len(before_finalize):]

    during, at_finalize = run(tracer=None)
    assert during == []
    assert [name for name, _ in at_finalize] == ["translate", "inst_fetch"]
    assert at_finalize[0] == ("translate", 50_000)

    during, at_finalize = run(tracer=Tracer())
    assert during == [("translate", 2500)] * 20
    assert [name for name, _ in at_finalize] == ["inst_fetch"]


def test_drain_threshold_is_the_documented_constant():
    assert lru.DRAIN_AT == 65_536
    ctx = PerfContext(XEON_E5645)
    ctx.rand_read("table", 8 * 65_535, 8)
    assert ctx._queued == 65_535
    ctx.rand_read("table", 8, 8)
    assert ctx._queued == 0 and ctx._queue == []


def test_negative_address_leaves_nothing_queued():
    ctx = PerfContext(XEON_E5645)
    ctx._record(DATA, np.full(200, -64, dtype=np.int64), 1.0)
    with pytest.raises(ValueError):
        ctx.settle()
    assert ctx._queue == [] and ctx.memsys.l1d.resident_lines == 0
