"""Unit tests for the code model, address regions, and sampling plans."""

import numpy as np
import pytest

from repro.uarch.codemodel import (
    ALL_PROFILES,
    CodeProfile,
    FRAMEWORK_STACK,
    HPC_KERNEL,
    SERVER_STACK,
    generate_fetch_addresses,
)
from repro.uarch.regions import AddressSpace
from repro.uarch.sampling import plan_samples


class TestCodeProfile:
    def test_presets_are_valid(self):
        for profile in ALL_PROFILES:
            assert 0 < profile.hot_bytes <= profile.warm_bytes <= profile.footprint
            assert profile.jump_rate + profile.cold_rate < 1

    def test_stack_depth_ordering(self):
        """Deeper stacks have bigger footprints and jumpier fetch."""
        assert SERVER_STACK.footprint > FRAMEWORK_STACK.footprint > HPC_KERNEL.footprint
        assert SERVER_STACK.jump_rate > HPC_KERNEL.jump_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            CodeProfile("bad", footprint=10, hot_bytes=100, warm_bytes=50,
                        jump_rate=0.1, cold_rate=0.0)
        with pytest.raises(ValueError):
            CodeProfile("bad", footprint=100, hot_bytes=10, warm_bytes=50,
                        jump_rate=0.7, cold_rate=0.5)


class TestFetchGeneration:
    def test_addresses_within_footprint(self):
        rng = np.random.default_rng(0)
        addrs, _ = generate_fetch_addresses(
            FRAMEWORK_STACK, base=1 << 20, contraction=8, count=5000,
            cursor=0, rng=rng,
        )
        assert addrs.min() >= 1 << 20
        assert addrs.max() < (1 << 20) + FRAMEWORK_STACK.footprint // 8

    def test_cursor_advances(self):
        rng = np.random.default_rng(1)
        _, cursor = generate_fetch_addresses(
            HPC_KERNEL, base=0, contraction=8, count=100, cursor=0, rng=rng,
        )
        assert cursor > 0

    def test_hot_fetches_dominate(self):
        rng = np.random.default_rng(2)
        addrs, _ = generate_fetch_addresses(
            HPC_KERNEL, base=0, contraction=8, count=20_000, cursor=0, rng=rng,
        )
        hot_size = HPC_KERNEL.hot_bytes // 8
        hot_share = float((addrs < hot_size).mean())
        assert hot_share > 0.99

    def test_empty_batch(self):
        rng = np.random.default_rng(3)
        addrs, cursor = generate_fetch_addresses(
            HPC_KERNEL, base=0, contraction=8, count=0, cursor=7, rng=rng,
        )
        assert len(addrs) == 0
        assert cursor == 7


class TestAddressSpace:
    def test_regions_never_overlap_slots(self):
        space = AddressSpace(contraction=8)
        a = space.region("a", 1 << 20)
        b = space.region("b", 1 << 20)
        assert abs(b.base - a.base) >= AddressSpace._SLOT

    def test_region_reuse_and_growth(self):
        space = AddressSpace(contraction=8)
        first = space.region("r", 1 << 16)
        again = space.region("r", 1 << 20)
        assert again is first
        assert first.size == (1 << 20) // 8
        # Shrinking requests do not shrink the region.
        space.region("r", 1024)
        assert first.size == (1 << 20) // 8

    def test_minimum_region_is_one_line(self):
        space = AddressSpace(contraction=8, line_size=64)
        tiny = space.region("t", 1)
        assert tiny.size == 64

    def test_lookup(self):
        space = AddressSpace()
        space.region("x", 100)
        assert "x" in space
        assert space.get("x").name == "x"
        with pytest.raises(KeyError):
            space.get("missing")
        assert len(space) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressSpace(contraction=0)


class TestSamplePlans:
    def test_counts_preserved_exactly(self):
        plan = plan_samples(10_000, contraction=8)
        assert plan.total == pytest.approx(10_000)
        assert plan.count == 1250

    def test_minimum_one_sample(self):
        plan = plan_samples(3, contraction=8)
        assert plan.count == 1
        assert plan.weight == 3

    def test_cap_bounds_simulation_cost(self):
        plan = plan_samples(1e9, contraction=8, cap=1000)
        assert plan.count == 1000
        assert plan.total == pytest.approx(1e9)

    def test_zero_total(self):
        plan = plan_samples(0, contraction=8)
        assert plan.count == 0 and plan.total == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_samples(10, contraction=0)

    @pytest.mark.parametrize("cap", [0, -4])
    def test_rejects_a_cap_below_one(self, cap):
        with pytest.raises(ValueError, match="cap"):
            plan_samples(10, contraction=8, cap=cap)
