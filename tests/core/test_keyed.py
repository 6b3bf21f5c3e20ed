"""``repro.keyed`` against the numpy idioms it replaced.

The oracles live here: ``np.argsort(kind="stable")``, the
argsort-gather-``np.unique(return_index=True)`` group idiom every engine
used to spell out, the ``np.add.reduceat`` the summing combiners put
behind it, and ``np.searchsorted(side="left")``.  Each property
is a plain function of the implementation under test, so that the
mutation checks at the bottom can hand it a deliberately wrong one and
require the property to notice.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro import keyed
from repro.datagen.models import ZipfModel

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


# -- oracles ----------------------------------------------------------------------

def reference_order(keys):
    return np.argsort(keys, kind="stable")


def reference_sort_group(keys, values):
    """The idiom as the engines wrote it."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    unique_keys, starts = np.unique(sorted_keys, return_index=True)
    return sorted_keys, values[order], unique_keys, starts


def reference_group_sum(keys, values):
    """Sort, group, ``reduceat``: what the summing jobs' ``reduce_batch``
    computed behind the engine's sort.  No values: one per record."""
    if values is None:
        values = np.ones(keys.size, dtype=np.int64)
    _, sorted_values, unique_keys, starts = reference_sort_group(keys, values)
    return unique_keys, np.add.reduceat(sorted_values, starts)


def reference_inverse_cdf(cdf, u):
    return np.minimum(np.searchsorted(cdf, u, side="left"), len(cdf) - 1)


# -- inputs -----------------------------------------------------------------------

@st.composite
def integer_keys(draw):
    """Integer keys of every dtype: few distinct values (ties), all
    equal, negative, and spans so wide that key and index do not fit one
    word together (the ``argsort`` fallback)."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    size = draw(st.integers(0, 200))
    shape = draw(st.sampled_from(["narrow", "equal", "full", "edges"]))
    if shape == "full":
        elements = st.integers(info.min, info.max)
    elif shape == "edges":
        elements = st.sampled_from(
            [info.min, info.min + 1, info.max - 1, info.max])
    else:
        base = draw(st.integers(info.min, info.max - 8))
        elements = st.integers(base, base + (0 if shape == "equal" else 8))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=dtype)


@st.composite
def spanned_keys(draw):
    """Keys whose span is drawn against their number, so that both sides
    of ``COUNT_SPAN`` and the boundary itself come up: the extremes are
    always present, the rest falls anywhere between them."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    size = draw(st.integers(2, 40))
    span = min(info.max - info.min, draw(st.one_of(
        st.integers(0, 4 * keyed.COUNT_SPAN * size),
        st.sampled_from([keyed.COUNT_SPAN * size - 1, keyed.COUNT_SPAN * size,
                         keyed.COUNT_SPAN * size + 1]))))
    low = draw(st.integers(info.min, info.max - span)
               | st.sampled_from([info.min, info.max - span]))
    offsets = [0, span] + draw(st.lists(
        st.integers(0, span), min_size=size - 2, max_size=size - 2))
    order = draw(st.permutations(range(size)))
    return np.array([low + offsets[i] for i in order], dtype=dtype)


@st.composite
def summed_values(draw, size):
    """A value column for ``size`` records: absent, small integers of any
    dtype, the dtype's whole range (sums that wrap, integers no float64
    holds), or floats."""
    kind = draw(st.sampled_from(["none", "small", "full", "float"]))
    if kind == "none":
        return None
    if kind == "float":
        return np.array(draw(st.lists(
            st.floats(-1e6, 1e6, width=64) | st.sampled_from([0.1, 1e16, -1e16]),
            min_size=size, max_size=size)), dtype=np.float64)
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    if kind == "small":
        elements = st.integers(max(info.min, -100), min(info.max, 100))
    else:
        elements = st.integers(info.min, info.max)
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=dtype)


@st.composite
def keys_and_values(draw):
    keys = draw(integer_keys() | spanned_keys())
    return keys, draw(summed_values(keys.size))


FLOAT_KEYS = st.lists(
    st.floats(allow_nan=False, width=64) | st.sampled_from([0.0, -0.0, 1.5]),
    max_size=60).map(lambda xs: np.array(xs, dtype=np.float64))


#: Float keys as the fallback must take them: ties, both zeros, the
#: infinities and NaNs (several: only a stable sort keeps their order).
AWKWARD_FLOAT_KEYS = st.lists(
    st.floats(allow_nan=True, width=64)
    | st.sampled_from([0.0, -0.0, 1.5, np.inf, -np.inf, np.nan]),
    max_size=200).map(lambda xs: np.array(xs, dtype=np.float64))


@st.composite
def cdf_and_draws(draw):
    """A CDF with flat stretches (zero-probability items), sometimes
    ending below one, and draws that sit exactly on its values, one ulp
    either side of them, at 0 and at the largest double below 1."""
    size = draw(st.integers(1, 120))
    weights = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.0, 1.0, 3.0, 1e-9]) | st.floats(0.0, 5.0),
        min_size=size, max_size=size)))
    if weights.sum() <= 0.0:
        weights[draw(st.integers(0, size - 1))] = 1.0
    cdf = np.cumsum(weights / weights.sum())
    cdf = cdf * draw(st.sampled_from([1.0, 1.0 - 2.0 ** -40, 0.75]))
    on_cdf = cdf[cdf < 1.0]
    special = np.concatenate((
        on_cdf, np.nextafter(on_cdf, 0.0), np.nextafter(on_cdf, 1.0),
        [0.0, np.nextafter(1.0, 0.0), 0.5]))
    special = special[(special >= 0.0) & (special < 1.0)]
    picks = draw(st.lists(st.integers(0, len(special) - 1), max_size=40))
    uniform = draw(st.lists(
        st.floats(0.0, 1.0, exclude_max=True), max_size=40))
    return cdf, np.array(special[picks].tolist() + uniform, dtype=np.float64)


# -- properties -------------------------------------------------------------------

def check_stable_order(stable_order, keys):
    order = stable_order(keys)
    assert order.dtype == np.int64
    assert np.array_equal(order, reference_order(keys))


def check_sort_group(sort_group, group_starts, keys):
    values = np.arange(keys.size, dtype=np.float64) * 0.5
    want_keys, want_values, want_unique, want_starts = \
        reference_sort_group(keys, values)
    sorted_keys, sorted_values = sort_group(keys, values)
    assert sorted_keys.dtype == keys.dtype
    assert np.array_equal(sorted_keys, want_keys)
    assert np.array_equal(sorted_values, want_values)
    again, order = sort_group(keys)
    assert np.array_equal(again, want_keys)
    assert np.array_equal(order, reference_order(keys))
    unique_keys, starts = group_starts(sorted_keys)
    assert unique_keys.dtype == keys.dtype
    assert np.array_equal(unique_keys, want_unique)
    assert np.array_equal(starts, want_starts)


def check_group_sum(group_sum, keys, values):
    want_keys, want_sums = reference_group_sum(keys, values)
    unique_keys, sums = group_sum(keys, values)
    assert unique_keys.dtype == want_keys.dtype
    assert np.array_equal(unique_keys, want_keys)
    assert sums.dtype == want_sums.dtype
    # Float sums must match to the bit, not to a tolerance.
    assert sums.tobytes() == want_sums.tobytes()


def check_inverse_cdf(inverse_cdf, cdf, u):
    index = inverse_cdf(cdf, u)
    assert index.dtype == np.int64
    assert np.array_equal(index, reference_inverse_cdf(cdf, u))


@pytest.fixture(params=[(1 << 18, 1), (4, 1), (1 << 18, 1 << 17)],
                ids=["guided", "guided-4-buckets", "plain-below-threshold"])
def guide(request, monkeypatch):
    """Both sides of the guide-table threshold.  Hypothesis batches are
    far below the real one, so the guided cases lower it to one draw; four
    buckets make every bucket hold many entries (deep bisection)."""
    buckets, above = request.param
    monkeypatch.setattr(keyed, "GUIDE_BUCKETS", buckets)
    monkeypatch.setattr(keyed, "GUIDE_ABOVE", above)


@given(keys=integer_keys())
@settings(max_examples=300, deadline=None)
def test_stable_order_is_the_stable_argsort(keys):
    check_stable_order(keyed.stable_order, keys)


@given(keys=FLOAT_KEYS)
@settings(max_examples=60, deadline=None)
def test_float_keys_take_the_fallback(keys):
    check_stable_order(keyed.stable_order, keys)
    check_sort_group(keyed.sort_group, keyed.group_starts, keys)


@given(keys=AWKWARD_FLOAT_KEYS | st.integers(0, 2000).map(
    lambda n: np.random.default_rng(n).random(n)))
@settings(max_examples=200, deadline=None)
def test_float_keys_with_ties_zeros_infinities_and_nans(keys):
    check_stable_order(keyed.stable_order, keys)


@given(keys=integer_keys())
@settings(max_examples=300, deadline=None)
def test_sort_group_is_the_argsort_gather_unique_idiom(keys):
    check_sort_group(keyed.sort_group, keyed.group_starts, keys)


@given(case=keys_and_values())
@settings(max_examples=600, deadline=None)
def test_group_sum_is_the_sorted_reduceat(case):
    check_group_sum(keyed.group_sum, *case)


@given(keys=FLOAT_KEYS)
@settings(max_examples=60, deadline=None)
def test_group_sum_of_float_keys_takes_the_sort(keys):
    check_group_sum(keyed.group_sum, keys, None)
    check_group_sum(keyed.group_sum, keys, np.arange(keys.size))


@given(case=cdf_and_draws())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_inverse_cdf_is_the_clamped_left_search(guide, case):
    check_inverse_cdf(keyed.inverse_cdf, *case)



@given(case=cdf_and_draws(), guided=st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_inverter_is_the_clamped_left_search(guide, case, guided):
    """Chunk by chunk, with the guide table or without it."""
    cdf, u = case
    check_inverse_cdf(lambda cdf, u: keyed.cdf_inverter(cdf, guided)(u),
                      cdf, u)


class TestDeterministicCases:
    def test_wide_spans_fall_back_and_narrow_ones_pack(self):
        wide = np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0,
                         np.iinfo(np.int64).max], dtype=np.int64)
        assert keyed._packed(wide) is None
        check_stable_order(keyed.stable_order, wide)
        huge = np.array([2**64 - 1, 2**64 - 3, 2**64 - 1, 2**64 - 9],
                        dtype=np.uint64)
        assert keyed._packed(huge) is not None   # large values, small span
        check_sort_group(keyed.sort_group, keyed.group_starts, huge)
        assert keyed._packed(np.array([0, 2**64 - 1], dtype=np.uint64)) is None

    @pytest.mark.parametrize("keys,kinds", [
        ([0.5, 0.25, 0.75, -1.0, np.inf, -np.inf], [None]),
        ([0.5, 0.25, 0.5, 0.75], [None, "stable"]),
        ([0.0, 1.0, -0.0], [None, "stable"]),
        ([np.nan, 0.5, np.nan, 0.25], [None, "stable"]),
        ([0.5, np.nan, 0.25], [None, "stable"]),
        ([np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0], [None]),
        ([0.5], ["stable"]),
        (["b", "a", "c"], ["stable"]),
        ([[0.5, 0.25], [0.75, 0.1]], ["stable"]),
    ], ids=["distinct", "tie", "both-zeros", "two-nans", "one-nan",
            "wide-integers", "single", "strings", "two-dimensional"])
    def test_the_fallback_keeps_an_ordinary_sort_of_distinct_keys_only(
            self, monkeypatch, keys, kinds):
        """Which sorts the fallback runs: an ordinary one alone when it
        proves the keys distinct, a stable one after it when it does
        not, only the stable one for keys it must not try (strings, one
        key, two dimensions)."""
        keys = np.array(keys)
        want = np.argsort(keys, kind="stable")
        argsort, seen = np.argsort, []

        def spy(a, *args, **kwargs):
            seen.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        order = keyed.stable_order(keys)
        monkeypatch.undo()
        assert seen == kinds
        assert np.array_equal(order, want)

    def test_values_may_be_rows(self):
        keys = np.array([3, 1, 3, 1, 2])
        rows = np.arange(10).reshape(5, 2)
        sorted_keys, sorted_rows = keyed.sort_group(keys, rows)
        assert sorted_keys.tolist() == [1, 1, 2, 3, 3]
        assert sorted_rows.tolist() == [[2, 3], [6, 7], [8, 9], [0, 1], [4, 5]]

    def test_input_is_left_alone(self):
        keys = np.array([5, -2, 5, 0], dtype=np.int64)
        keys.setflags(write=False)   # spilled inputs are read-only memmaps
        keyed.stable_order(keys)
        keyed.sort_group(keys)
        assert keys.tolist() == [5, -2, 5, 0]

    def test_group_sum_counts_a_narrow_span_and_sorts_a_wide_one(
            self, monkeypatch):
        """Which path ran is not visible in the result, so watch the
        sort: the table path never packs."""
        packs = []
        packed = keyed._packed
        monkeypatch.setattr(
            keyed, "_packed", lambda keys: packs.append(1) or packed(keys))
        tokens = np.array([7, 3, 7, 7, 4, 3, 9, 7], dtype=np.int64)
        check_group_sum(keyed.group_sum, tokens, None)
        check_group_sum(keyed.group_sum, tokens - 2**40, None)
        unique_keys, counts = keyed.group_sum(tokens)
        assert unique_keys.tolist() == [3, 4, 7, 9]
        assert counts.tolist() == [2, 1, 4, 1]
        assert not packs
        wide = tokens * (keyed.COUNT_SPAN * tokens.size)
        check_group_sum(keyed.group_sum, wide, None)
        assert len(packs) == 1
        # A value column sorts, however narrow the span.
        weights = np.array([1, -2, 3, 4, 0, 2, 5, -6], dtype=np.int64)
        check_group_sum(keyed.group_sum, tokens, weights)
        assert len(packs) == 2
        unique_keys, sums = keyed.group_sum(tokens, weights)
        assert unique_keys.tolist() == [3, 4, 7, 9]   # 4 sums to 0: still there
        assert sums.tolist() == [0, 0, 2, 5]

    def test_group_sum_leaves_its_input_alone(self):
        keys = np.array([5, 3, 5, 4], dtype=np.int64)
        keys.setflags(write=False)
        values = np.array([1, 2, 3, 4], dtype=np.int64)
        values.setflags(write=False)
        keyed.group_sum(keys, values)
        keyed.group_sum(keys * 1000, values)
        assert keys.tolist() == [5, 3, 5, 4] and values.tolist() == [1, 2, 3, 4]

    def test_real_batch_on_the_guide_path(self):
        rng = np.random.default_rng(7)
        cdf = np.cumsum(ZipfModel(1.05, 40_000).probabilities())
        u = rng.random(keyed.GUIDE_ABOVE + 1)
        u[:3] = [0.0, np.nextafter(1.0, 0.0), cdf[17]]
        check_inverse_cdf(keyed.inverse_cdf, cdf, u)
        check_inverse_cdf(keyed.inverse_cdf, cdf, u[:keyed.GUIDE_ABOVE - 1])

    def test_draws_outside_the_unit_interval_take_the_plain_search(self):
        cdf = np.array([0.25, 0.5, 1.0])
        u = np.full(keyed.GUIDE_ABOVE, 0.3)
        u[:4] = [-0.5, 1.0, 7.0, np.nan]
        check_inverse_cdf(keyed.inverse_cdf, cdf, u)

    def test_empty_cdf_is_rejected(self):
        with pytest.raises(ValueError):
            keyed.inverse_cdf(np.empty(0), np.array([0.5]))

    @pytest.mark.parametrize("draws", [1, keyed.GUIDE_ABOVE])
    def test_a_draw_above_the_last_cdf_value_stays_in_range(self, draws):
        """The cumulative sum of the text model as fitted to the Wikipedia
        seed ends below one, so the unclamped search maps the largest
        draw to ``vocab_size``."""
        zipf = ZipfModel(alpha=1.1292830167218264, vocab_size=40_000)
        cdf = np.cumsum(zipf.probabilities())
        top = np.nextafter(1.0, 0.0)
        assert cdf[-1] < top
        assert np.searchsorted(cdf, top, side="left") == zipf.vocab_size
        index = keyed.inverse_cdf(cdf, np.full(draws, top))
        assert (index == zipf.vocab_size - 1).all()


#: Sizes on both sides of one and of two chunks.  ``GUIDE_ABOVE`` is two
#: chunks, so the draws below it take the plain search a chunk at a time
#: and the ones from it on the guide table.
CHUNK_EDGES = [k * keyed.GUIDE_CHUNK + d for k in (1, 2) for d in (-1, 0, 1)]


class TestChunkBoundaries:
    """The chunked draw, count and pack paths at ``k * GUIDE_CHUNK - 1``,
    ``k * GUIDE_CHUNK`` and ``k * GUIDE_CHUNK + 1``, each against its
    numpy oracle."""

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_draws_are_one_random_call_inverted(self, n):
        cdf = np.cumsum(ZipfModel(1.1292830167218264, 40_000).probabilities())
        rng, oracle = np.random.default_rng(n), np.random.default_rng(n)
        parts = list(keyed.draw_chunks(cdf, n, rng))
        assert [start for start, _ in parts] == list(
            range(0, n, keyed.GUIDE_CHUNK))
        index = np.concatenate([part for _, part in parts])
        check_inverse_cdf(lambda cdf, u: index, cdf, oracle.random(n))
        # The generator is left where one ``random(n)`` leaves it.
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_counts_are_the_sorted_count(self, n, dtype):
        low = 2**63 if dtype == np.uint64 else -50
        keys = (np.random.default_rng(n).integers(0, 1000, size=n)
                .astype(dtype) + dtype(low))
        keys.setflags(write=False)
        assert keyed._counted(keys) is not None     # the table path
        check_group_sum(keyed.group_sum, keys, None)
        offsets = keys - keys.min()
        assert np.array_equal(keyed.bincount(offsets, minlength=2000),
                              np.bincount(offsets.astype(np.int64),
                                          minlength=2000))

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_packed_positions_are_the_stable_order(self, n):
        keys = np.random.default_rng(n).integers(-1000, 1000, size=n)
        check_stable_order(keyed.stable_order, keys)
        check_sort_group(keyed.sort_group, keyed.group_starts, keys)

    def test_bincount_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            keyed.bincount(np.array([3, -1, 2]))
        assert keyed.bincount(np.empty(0, dtype=np.int64),
                              minlength=3).tolist() == [0, 0, 0]


# -- mutation checks ----------------------------------------------------------------
# A property that passes a wrong implementation guards nothing.

#: Finding the counter-example is the check; shrinking it is not.
MUTANT = settings(max_examples=300, deadline=None, database=None,
                  phases=[Phase.generate])


def _ties_reversed(keys):
    """A correct sort that is not stable: equal keys in reverse order."""
    return np.lexsort((-np.arange(keys.size), keys)).astype(np.int64)


def test_properties_catch_an_unstable_sort():
    def sort_group(keys, values=None):
        order = _ties_reversed(keys)
        return keys[order], order if values is None else values[order]

    with pytest.raises(AssertionError):
        given(integer_keys())(MUTANT(
            lambda keys: check_stable_order(_ties_reversed, keys)))()
    with pytest.raises(AssertionError):
        given(integer_keys())(MUTANT(
            lambda keys: check_sort_group(
                sort_group, keyed.group_starts, keys)))()


def test_properties_catch_group_ends_for_starts():
    def group_ends(sorted_keys):
        unique_keys, starts = keyed.group_starts(sorted_keys)
        return unique_keys, np.append(starts[1:], sorted_keys.size) - 1

    with pytest.raises(AssertionError):
        given(integer_keys())(MUTANT(
            lambda keys: check_sort_group(
                keyed.sort_group, group_ends, keys)))()


def test_properties_catch_table_offsets_returned_as_keys():
    """The table path without its ``+ low``."""
    def without_low(keys, values=None):
        unique_keys, sums = keyed.group_sum(keys, values)
        if values is None and keys.size and (
                int(keys.max()) - int(keys.min())
                <= keyed.COUNT_SPAN * keys.size):
            unique_keys = unique_keys - keys.min()
        return unique_keys, sums

    with pytest.raises(AssertionError):
        given(keys_and_values())(MUTANT(
            lambda case: check_group_sum(without_low, *case)))()


def test_properties_catch_float_values_summed_in_input_order():
    """Why a value column is not summed into a table as the counts are:
    ``bincount`` adds sequentially, ``reduceat`` pairwise."""
    def sequential(keys, values=None):
        if values is None or values.dtype.kind != "f" or keys.size == 0:
            return keyed.group_sum(keys, values)
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        return unique_keys, np.bincount(inverse, weights=values)

    keys = np.zeros(64, dtype=np.int64)
    values = np.full(64, 0.1)
    values[0] = 1e16
    with pytest.raises(AssertionError):
        check_group_sum(sequential, keys, values)


@pytest.mark.parametrize("mutant", [
    lambda cdf, u: np.minimum(
        np.searchsorted(cdf, u, side="right"), len(cdf) - 1),
    lambda cdf, u: np.searchsorted(cdf, u, side="left"),
], ids=["side-right", "unclamped"])
def test_properties_catch_a_wrong_search(mutant):
    with pytest.raises(AssertionError):
        given(cdf_and_draws())(MUTANT(
            lambda case: check_inverse_cdf(mutant, *case)))()
