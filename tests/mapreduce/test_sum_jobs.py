"""The three integer-sum jobs against the ``reduce_batch`` they used to have.

WordCount, the CF co-occurrence count and Naive Bayes training reduce a
key to the sum of its int64 values.  Each used to spell that out as
``keys, np.add.reduceat(values, starts)`` behind the engine's sort; they
now share :class:`~repro.mapreduce.SumByKeyJob`, which counts instead.
The old spelling is the oracle here, and the profiler must not be able
to tell the two apart.
"""

import dataclasses

import numpy as np
import pytest

from repro.mapreduce import Dfs, MapReduceJob, MapReduceRuntime, SumByKeyJob
from repro.uarch import PerfContext, XEON_E5645
from repro.workloads.ecommerce import _CfCountJob, _NaiveBayesTrainJob
from repro.workloads.micro import _WordCountJob

VOCAB = 5_000


def _tokens(rng, size):
    return np.minimum(rng.zipf(1.3, size=size), VOCAB - 1).astype(np.int64)


def _wordcount(rng):
    return _WordCountJob, (), _tokens(rng, 60_000), None


def _cf_count(rng):
    """Pair keys ``a * num_movies + b`` as ``_CfGroupJob`` emits them, with
    counts above one as a second pass over combined output would see."""
    keys = _tokens(rng, 30_000) * 1_000_003 + _tokens(rng, 30_000)
    values = rng.integers(1, 5, size=keys.size)
    slicer = lambda payload, i, n: (np.array_split(payload[0], n)[i],  # noqa: E731
                                    np.array_split(payload[1], n)[i])
    return _CfCountJob, (), (keys, values), slicer


def _bayes(rng):
    pairs = np.column_stack([rng.integers(0, 2, size=40_000),
                             _tokens(rng, 40_000)])
    return _NaiveBayesTrainJob, (VOCAB,), pairs, None


CASES = {"wordcount": _wordcount, "cf-count": _cf_count, "bayes-train": _bayes}


class _AsBefore:
    """Mixed in ahead of a sum job: the pre-change sort-group-``reduceat``
    with one explicit ``1`` per record."""

    def reduce_batch(self, keys, values, starts, ctx):
        return keys, np.add.reduceat(values, starts)

    def reduce_by_key(self, keys, values, ctx):
        if values is None:
            values = np.ones(len(keys), dtype=np.int64)
        return MapReduceJob.reduce_by_key(self, keys, values, ctx)


def _as_before(job_class):
    return type("Old" + job_class.__name__, (_AsBefore, job_class), {})


def _run(job, payload, slicer):
    ctx = PerfContext(XEON_E5645, seed=11)
    # Four splits, so that the reduce side sees combined counts above one.
    file = Dfs(block_size=1 << 20).put("input", payload, 4 << 20)
    result = MapReduceRuntime(ctx=ctx).run(job, file, slicer=slicer)
    return result, ctx.finalize().events


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_sum_job_is_indistinguishable_from_its_old_reduce_batch(case):
    job_class, args, payload, slicer = CASES[case](np.random.default_rng(5))
    result, events = _run(job_class(*args), payload, slicer)
    want, want_events = _run(_as_before(job_class)(*args), payload, slicer)

    assert result.output_keys.dtype == want.output_keys.dtype == np.int64
    assert result.output_values.dtype == want.output_values.dtype == np.int64
    assert np.array_equal(result.output_keys, want.output_keys)
    assert np.array_equal(result.output_values, want.output_values)
    # Hadoop's modelled combine and reduce still sort: same counters
    # (reduce_input_groups among them), same cost, same simulated events.
    assert result.counters.as_dict() == want.counters.as_dict()
    assert result.cost == want.cost
    assert dataclasses.asdict(events) == dataclasses.asdict(want_events)


@pytest.mark.parametrize("case", sorted(CASES))
def test_reduce_by_key_on_a_shuffled_batch(case):
    job_class, args, _, _ = CASES[case](np.random.default_rng(0))
    job = job_class(*args)
    rng = np.random.default_rng(6)
    keys = rng.permutation(np.repeat(_tokens(rng, 3_000), 3))
    values = rng.integers(0, 1_000, size=keys.size)
    order = np.argsort(keys, kind="stable")
    want_keys, starts = np.unique(keys[order], return_index=True)
    for column, ones in ((values, values), (None, np.ones_like(values))):
        groups, out_keys, sums = job.reduce_by_key(keys, column, None)
        assert groups == len(want_keys)
        assert np.array_equal(out_keys, want_keys)
        assert sums.dtype == np.int64
        assert np.array_equal(sums, np.add.reduceat(ones[order], starts))
    # The job's two reduction entry points agree: ``reduce_batch`` sums
    # too (the base class would count records), and refuses the column
    # it cannot count.
    batch_keys, batch_sums = job.reduce_batch(
        want_keys, values[order], starts, None)
    assert np.array_equal(batch_keys, want_keys)
    assert np.array_equal(batch_sums, job.reduce_by_key(keys, values, None)[2])
    with pytest.raises(TypeError, match="value column"):
        job.reduce_batch(want_keys, None, starts, None)


def test_the_sum_jobs_say_it_once():
    for cls in (_WordCountJob, _CfCountJob, _NaiveBayesTrainJob):
        assert issubclass(cls, SumByKeyJob) and cls.use_combiner
        assert "reduce_batch" not in vars(cls)
        assert "reduce_by_key" not in vars(cls)
