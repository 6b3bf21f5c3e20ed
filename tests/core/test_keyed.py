"""``repro.keyed`` against the numpy idioms it replaced.

The oracles live here: ``np.argsort(kind="stable")``, the
argsort-gather-``np.unique(return_index=True)`` group idiom every engine
used to spell out, and ``np.searchsorted(side="left")``.  Each property
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


FLOAT_KEYS = st.lists(
    st.floats(allow_nan=False, width=64) | st.sampled_from([0.0, -0.0, 1.5]),
    max_size=60).map(lambda xs: np.array(xs, dtype=np.float64))


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


@given(keys=integer_keys())
@settings(max_examples=300, deadline=None)
def test_sort_group_is_the_argsort_gather_unique_idiom(keys):
    check_sort_group(keyed.sort_group, keyed.group_starts, keys)


@given(case=cdf_and_draws())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_inverse_cdf_is_the_clamped_left_search(guide, case):
    check_inverse_cdf(keyed.inverse_cdf, *case)


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


@pytest.mark.parametrize("mutant", [
    lambda cdf, u: np.minimum(
        np.searchsorted(cdf, u, side="right"), len(cdf) - 1),
    lambda cdf, u: np.searchsorted(cdf, u, side="left"),
], ids=["side-right", "unclamped"])
def test_properties_catch_a_wrong_search(mutant):
    with pytest.raises(AssertionError):
        given(cdf_and_draws())(MUTANT(
            lambda case: check_inverse_cdf(mutant, *case)))()
