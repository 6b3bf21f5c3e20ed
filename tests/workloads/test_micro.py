"""Functional tests for the micro benchmarks on all three stacks."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.workloads.micro import (
    GREP_MODULUS,
    GREP_REMAINDER,
    GrepWorkload,
    SortWorkload,
    WordCountWorkload,
    grep_count,
    grep_mask,
)

SMALL_CLUSTER = ClusterSpec(num_nodes=4)
STACKS = ["hadoop", "spark", "mpi"]


@pytest.fixture(scope="module")
def sort_input():
    return SortWorkload().prepare(1)


@pytest.fixture(scope="module")
def grep_input():
    return GrepWorkload().prepare(1)


@pytest.fixture(scope="module")
def wc_input():
    return WordCountWorkload().prepare(1)


class TestSort:
    @pytest.mark.parametrize("stack", STACKS)
    def test_sorted_on_every_stack(self, sort_input, stack):
        result = SortWorkload().run(sort_input, cluster=SMALL_CLUSTER, stack=stack)
        assert result.details["sorted"] is True
        assert result.details["records"] == sort_input.details["tokens"]
        assert result.metric_name == "DPS"
        assert result.metric_value > 0

    def test_info_row(self):
        info = SortWorkload.info
        assert info.workload_id == 1
        assert info.data_source == "text"
        assert "Hadoop" in info.stacks

    def test_invalid_stack_rejected(self, sort_input):
        with pytest.raises(ValueError):
            SortWorkload().run(sort_input, stack="cobol")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            SortWorkload().prepare(0)


class TestGrep:
    @pytest.mark.parametrize("stack", STACKS)
    def test_match_count_exact(self, grep_input, stack):
        result = GrepWorkload().run(grep_input, cluster=SMALL_CLUSTER, stack=stack)
        assert result.details["correct"] is True
        assert result.details["matches"] == result.details["expected"]

    def test_matches_are_rare(self, grep_input):
        corpus = grep_input.payload
        rate = grep_mask(corpus.tokens).mean()
        assert rate < 3.0 / GREP_MODULUS

    @pytest.mark.parametrize("size", [0, 3, (1 << 16) - 1, 1 << 16,
                                      (1 << 16) + 1, 3 << 16])
    def test_chunked_match_is_the_remainder_test(self, size):
        tokens = np.random.default_rng(size).integers(0, 40_000, size=size)
        tokens[::1000] = GREP_REMAINDER + GREP_MODULUS * 7
        want = tokens % GREP_MODULUS == GREP_REMAINDER
        assert np.array_equal(grep_mask(tokens), want)
        assert grep_count(tokens) == int(want.sum())

    def test_cost_has_phases(self, grep_input):
        result = GrepWorkload().run(grep_input, cluster=SMALL_CLUSTER)
        assert len(result.cost.phases) >= 2


class TestWordCount:
    @pytest.mark.parametrize("stack", STACKS)
    def test_counts_complete(self, wc_input, stack):
        result = WordCountWorkload().run(wc_input, cluster=SMALL_CLUSTER, stack=stack)
        assert result.details["correct"] is True
        assert result.details["counted"] == wc_input.details["tokens"]
        assert result.details["distinct"] > 100

    def test_stacks_agree_on_distinct_words(self, wc_input):
        distinct = {
            stack: WordCountWorkload().run(
                wc_input, cluster=SMALL_CLUSTER, stack=stack
            ).details["distinct"]
            for stack in STACKS
        }
        assert len(set(distinct.values())) == 1, distinct

    def test_input_scales_with_volume(self):
        small = WordCountWorkload().prepare(1)
        large = WordCountWorkload().prepare(4)
        assert 3.0 < large.nbytes / small.nbytes < 5.0
