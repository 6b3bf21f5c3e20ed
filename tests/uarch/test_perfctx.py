"""Unit tests for the PerfContext instrumentation facade."""

import pytest

from repro.uarch import (
    FRAMEWORK_STACK,
    HPC_KERNEL,
    NULL_CONTEXT,
    PerfContext,
    SERVER_STACK,
    XEON_E5310,
    XEON_E5645,
    context_or_null,
)

MB = 1024 * 1024


def framework_run(machine=XEON_E5645, seed=0):
    """A canned big-data-like run: streaming + hash-table probes."""
    ctx = PerfContext(machine, seed=seed)
    with ctx.code(FRAMEWORK_STACK):
        ctx.touch("input", 16 * MB)
        ctx.seq_read("input", 16 * MB, elem=64)
        ctx.rand_read("table", 1e6, elem=16)
        ctx.int_ops(2e7)
        ctx.branch_ops(4e6)
    return ctx.finalize()


class TestCounting:
    def test_instruction_counts_exact(self):
        ctx = PerfContext()
        ctx.int_ops(100)
        ctx.fp_ops(50)
        ctx.branch_ops(25)
        events = ctx.finalize().events
        assert events.int_ops == 100
        assert events.fp_ops == 50
        assert events.branches == 25

    def test_nonpositive_counts_ignored(self):
        ctx = PerfContext()
        ctx.int_ops(0)
        ctx.fp_ops(-5)
        assert ctx.finalize().events.instructions == 0

    def test_seq_read_counts_loads(self):
        ctx = PerfContext()
        ctx.seq_read("r", 8000, elem=8)
        assert ctx.finalize().events.loads == 1000

    def test_seq_write_counts_stores(self):
        ctx = PerfContext()
        ctx.seq_write("r", 8000, elem=8)
        assert ctx.finalize().events.stores == 1000

    def test_rand_counts(self):
        ctx = PerfContext()
        ctx.rand_read("r", 500, elem=8)
        ctx.rand_write("r", 300, elem=8)
        events = ctx.finalize().events
        assert events.loads == 500
        assert events.stores == 300

    def test_skewed_validates_parameters(self):
        ctx = PerfContext()
        with pytest.raises(ValueError):
            ctx.skewed_read("r", 100, hot_fraction=0.0)
        with pytest.raises(ValueError):
            ctx.skewed_read("r", 100, hot_prob=1.5)

    @pytest.mark.parametrize("cap", [0, -4])
    def test_rejects_a_sample_cap_below_one(self, cap):
        with pytest.raises(ValueError, match="cap"):
            PerfContext(XEON_E5645, cap=cap)


class TestMemorySimulation:
    def test_streaming_misses_scale_with_bytes(self):
        """A cold sequential scan misses roughly once per real line."""
        ctx = PerfContext(XEON_E5645, seed=1)
        nbytes = 64 * MB
        ctx.touch("s", nbytes)
        ctx.seq_read("s", nbytes, elem=64)
        events = ctx.finalize().events
        expected_lines = nbytes / 64
        assert events.l1d_misses == pytest.approx(expected_lines, rel=0.35)

    def test_small_working_set_hits_after_warmup(self):
        """Repeated random probes of a tiny table stay cache-resident."""
        ctx = PerfContext(XEON_E5645, seed=1)
        ctx.touch("tiny", 2048)
        ctx.rand_read("tiny", 1e6, elem=8)
        events = ctx.finalize().events
        assert events.l1d_misses / events.loads < 0.01

    def test_huge_random_working_set_misses_llc(self):
        ctx = PerfContext(XEON_E5645, seed=1)
        ctx.touch("huge", 512 * MB)
        ctx.rand_read("huge", 1e6, elem=8)
        events = ctx.finalize().events
        assert events.l3_misses > 0
        assert events.mem_bytes > 0

    def test_e5310_has_no_l3_events(self):
        ctx = PerfContext(XEON_E5310, seed=1)
        ctx.touch("s", 8 * MB)
        ctx.seq_read("s", 8 * MB)
        events = ctx.finalize().events
        assert events.l3_accesses == 0
        assert events.l3_misses == 0

    def test_l3_reduces_memory_traffic(self):
        """C5 mechanism: with an L3, fewer bytes come from DRAM for a
        working set that fits in L3 but not L2."""

        def traffic(machine):
            ctx = PerfContext(machine, seed=2)
            ctx.touch("ws", 8 * MB)  # fits 12 MB L3; E5310's 4 MB L2 too small
            for _ in range(5):
                ctx.rand_read("ws", 2e5, elem=8)
            return ctx.finalize().events.mem_bytes

        assert traffic(XEON_E5645) < traffic(XEON_E5310)


class TestCodeModel:
    def test_deep_stack_has_higher_l1i_mpki(self):
        deep = framework_run().events
        ctx = PerfContext(XEON_E5645, seed=0)
        with ctx.code(HPC_KERNEL):
            ctx.touch("input", 16 * MB)
            ctx.seq_read("input", 16 * MB, elem=64)
            ctx.fp_ops(2e7)
            ctx.int_ops(2e6)
        shallow = ctx.finalize().events
        assert deep.l1i_mpki > 4 * shallow.l1i_mpki

    def test_deep_stack_has_higher_itlb_mpki(self):
        deep = framework_run().events
        ctx = PerfContext(XEON_E5645, seed=0)
        with ctx.code(HPC_KERNEL):
            ctx.int_ops(2e7)
        shallow = ctx.finalize().events
        assert deep.itlb_mpki > shallow.itlb_mpki

    def test_server_stack_deeper_than_framework(self):
        def l1i(profile):
            ctx = PerfContext(XEON_E5645, seed=0)
            with ctx.code(profile):
                ctx.int_ops(3e7)
            return ctx.finalize().events.l1i_mpki

        assert l1i(SERVER_STACK) > l1i(FRAMEWORK_STACK)

    def test_code_scope_restores_previous_profile(self):
        ctx = PerfContext(XEON_E5645)
        with ctx.code(HPC_KERNEL):
            pass
        assert ctx._profile_stack[-1].name == "spec-code"


class TestDeterminismAndReports:
    def test_same_seed_same_events(self):
        first = framework_run(seed=7).events
        second = framework_run(seed=7).events
        assert first.l1i_misses == second.l1i_misses
        assert first.l3_misses == second.l3_misses

    def test_report_has_positive_time_and_mips(self):
        report = framework_run()
        assert report.seconds > 0
        assert report.mips > 0

    def test_more_cores_less_time(self):
        ctx = PerfContext(XEON_E5645)
        ctx.int_ops(1e6)
        one = ctx.finalize(cores_used=1)
        twelve = ctx.finalize(cores_used=12)
        assert twelve.seconds == pytest.approx(one.seconds / 12)

    def test_finalize_rejects_bad_cores(self):
        ctx = PerfContext(XEON_E5645)
        with pytest.raises(ValueError):
            ctx.finalize(cores_used=0)

    def test_metadata_passthrough(self):
        ctx = PerfContext(XEON_E5645)
        report = ctx.finalize(metadata={"workload": "Sort"})
        assert report.metadata["workload"] == "Sort"


class TestNullContext:
    def test_null_context_is_inert(self):
        NULL_CONTEXT.int_ops(100)
        NULL_CONTEXT.seq_read("x", 1000)
        with NULL_CONTEXT.code(FRAMEWORK_STACK):
            NULL_CONTEXT.rand_write("y", 10)
        report = NULL_CONTEXT.finalize()
        assert report.events.instructions == 0
        assert NULL_CONTEXT.profiling is False

    def test_context_or_null(self):
        assert context_or_null(None) is NULL_CONTEXT
        ctx = PerfContext()
        assert context_or_null(ctx) is ctx
