"""Exact keyed kernels: stable order, sort-and-group, group-and-sum,
inverse CDF.

Every engine that shuffles, combines or joins, and every BDGS generator
that draws from a fitted distribution, does one of four things to an
array of integer keys or uniform draws.  They are defined here once, and
each returns exactly -- bit for bit -- what the numpy idiom it replaces
returns, only sooner:

* :func:`stable_order` is ``np.argsort(keys, kind="stable")``.  The
  stable permutation of a key array is unique (ties keep input order),
  so any algorithm producing *a* stable permutation produces *that* one;
  this one sorts the words ``(key - min) << bits | index`` in place.
  Keys that do not pack (floats) are sorted by an ordinary ``argsort``
  when they turn out distinct, and a stable one otherwise.
* :func:`sort_group` also returns the sorted keys, read back from the
  same words instead of gathered, and :func:`group_starts` is
  ``np.unique`` with ``return_index`` without sorting them again.
* :func:`group_sum` is that sort, grouping and ``np.add.reduceat`` in
  one, and it counts the records of integer keys over a narrow span
  into a table instead: a count does not need the order a sort would
  establish.
* :func:`inverse_cdf` is ``np.searchsorted(cdf, u, side="left")``
  started from a table of exact bucket bounds, and never returns an
  index past the end of the CDF.

The module is a leaf (numpy only) and lives beside the packages rather
than in ``repro.core``: ``repro.uarch.lru`` uses it, and ``repro.core``
imports ``repro.cluster``, which imports ``repro.uarch``.
"""

from __future__ import annotations

import numpy as np

#: Bits of an int64 word available to ``(key - min) << bits | index``:
#: the sign bit and one spare stay clear, so the words are non-negative.
WORD_BITS = 62

#: Buckets of the guide table of :func:`inverse_cdf`.  A power of two, so
#: that ``u * GUIDE_BUCKETS`` and ``k / GUIDE_BUCKETS`` are exact in
#: binary floating point.
GUIDE_BUCKETS = 1 << 18

#: Draws below which :func:`inverse_cdf` is one plain ``searchsorted``:
#: the guide table costs ``GUIDE_BUCKETS`` searches to build.  Measured
#: on Zipf CDFs of 200, 40 000 and 2 000 000 entries: 131 072 draws cost
#: the same either way (4.2 / 9.1 / 17.9 ms plain, 4.1 / 8.1 / 14.4 ms
#: guided), 50 000 are twice as fast plain, 10^6 2.3-3.3x faster guided.
GUIDE_ABOVE = 1 << 17

#: Draws :func:`inverse_cdf` takes through the guide table at a time, so
#: that its temporaries stay cache-sized.  8.5 M draws, fresh process,
#: first call / later calls: 185-600 / 175-220 ms in chunks of 65 536,
#: 270-920 / 255-295 ms in one piece (plain search: 460-820 ms).
GUIDE_CHUNK = 1 << 16

#: Key span, as a multiple of the number of keys, up to which
#: :func:`group_sum` counts records into a table instead of sorting.  A
#: wide table is filled by cache misses and scanned for its non-empty
#: entries, so it stops paying early.  Table / sort time for 200 to
#: 2 000 000 keys, uniform and Zipf(1.1): 0.3-0.5 at a span of 1x the
#: keys, 0.5-0.8 at 2x, 0.8-1.3 at 3x, 2.0-2.6 at 8x.
COUNT_SPAN = 2


def _packed(keys: np.ndarray):
    """Sorted words ``(key - min) << bits | index`` with ``bits`` and the
    minimum, or None when ``keys`` cannot be packed: not a 1-D integer
    array, or key span and index together need more than WORD_BITS."""
    if keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.size == 0:
        return None
    bits = int(keys.size - 1).bit_length()
    low = int(keys.min())
    if (int(keys.max()) - low).bit_length() + bits > WORD_BITS:
        return None
    if keys.dtype == np.uint64:
        # Values above the int64 range: subtract first, then reinterpret.
        words = (keys - np.uint64(low)).view(np.int64)
    else:
        words = keys.astype(np.int64)
        words -= low
    words <<= bits
    words |= np.arange(keys.size)
    words.sort()
    return words, bits, low


def _keys_back(offsets: np.ndarray, low: int, dtype) -> np.ndarray:
    """``offsets + low`` as keys of ``dtype`` again, computed in place:
    ``offsets`` is an int64 array of ``key - low`` the caller owns."""
    if dtype == np.uint64:
        keys = offsets.view(np.uint64)
        keys += np.uint64(low)
        return keys
    offsets += low
    return offsets.astype(dtype, copy=False)


def _argsort(keys: np.ndarray) -> np.ndarray:
    """The fallback for keys :func:`_packed` turns down.

    Distinct keys have one sorted permutation, so on numeric 1-D keys an
    ordinary ``argsort`` is tried first (10^6 float64: 33 ms against
    105 ms stable) and kept when no two neighbours of the sorted keys
    are equal -- ``-0.0 == 0.0`` counts -- and none is NaN: NaNs sort
    last and never compare equal, so one look at the last key finds them.
    """
    if keys.ndim == 1 and keys.dtype.kind in "iuf" and keys.size > 1:
        order = np.argsort(keys)
        ordered = keys[order]
        if ordered[-1] == ordered[-1] \
                and not (ordered[1:] == ordered[:-1]).any():
            return order
    return np.argsort(keys, kind="stable")


def stable_order(keys: np.ndarray) -> np.ndarray:
    """The permutation of a stable ``argsort`` of ``keys``, as int64."""
    keys = np.asarray(keys)
    packed = _packed(keys)
    if packed is None:
        return _argsort(keys)
    words, bits, _ = packed
    words &= (1 << bits) - 1
    return words


def sort_group(keys: np.ndarray, values: np.ndarray = None) -> tuple:
    """``(keys[order], values[order])`` for ``order = stable_order(keys)``.

    Without ``values`` the second element is ``order`` itself (the
    values default to the positions), for callers that reorder several
    arrays.
    """
    keys = np.asarray(keys)
    packed = _packed(keys)
    if packed is None:
        order = _argsort(keys)
        sorted_keys = keys[order]
    else:
        words, bits, low = packed
        order = words & ((1 << bits) - 1)
        words >>= bits
        sorted_keys = _keys_back(words, low, keys.dtype)
    return sorted_keys, order if values is None else values[order]


def group_starts(sorted_keys: np.ndarray) -> tuple:
    """``np.unique`` with ``return_index`` for keys already in order: the
    distinct keys and the position where each one's run starts.  One
    comparison of neighbours; nothing is sorted."""
    if sorted_keys.size == 0:
        return sorted_keys[:0], np.empty(0, dtype=np.int64)
    first = np.empty(sorted_keys.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return sorted_keys[starts], starts


def _counted(keys: np.ndarray):
    """The distinct keys and each one's number of records, counted into
    a table over the key span; None when the keys do not index one
    (not 1-D integers) or it would not be cheaper than sorting (a span
    beyond COUNT_SPAN table entries per key)."""
    if keys.ndim != 1 or keys.dtype.kind not in "iu" or keys.size == 0:
        return None
    low = int(keys.min())
    if int(keys.max()) - low > COUNT_SPAN * keys.size:
        return None
    if keys.dtype == np.uint64:
        offsets = (keys - np.uint64(low)).view(np.int64)
    elif low:
        offsets = keys.astype(np.int64)
        offsets -= low
    else:
        offsets = keys
    table = np.bincount(offsets)
    present = np.flatnonzero(table)
    counts = table[present]
    return _keys_back(present, low, keys.dtype), counts


def group_sum(keys: np.ndarray, values: np.ndarray = None) -> tuple:
    """The distinct keys in ascending order and the sum of each one's
    values; without ``values``, each one's number of records (int64).

    Exactly ``k, v = sort_group(keys, values); u, s = group_starts(k);
    (u, np.add.reduceat(v, s))``, and with a value column it is that.
    A count needs no order: records of integer keys over a span
    comparable to their number are counted into a table indexed by
    ``key - min`` instead -- nothing is sorted, packed or gathered.
    """
    keys = np.asarray(keys)
    if values is None:
        counted = _counted(keys)
        if counted is not None:
            return counted
    sorted_keys, sorted_values = sort_group(keys, values)
    unique_keys, starts = group_starts(sorted_keys)
    if values is None:
        return unique_keys, np.append(starts, keys.size)[1:] - starts
    return unique_keys, np.add.reduceat(sorted_values, starts)


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the first CDF entry ``>= u``, for every draw in ``u``:
    ``np.searchsorted(cdf, u, side="left")``, but at most ``len(cdf) - 1``.

    The clamp matters because a CDF built by ``np.cumsum`` of
    probabilities that sum to one may end a few ulps *below* one; a draw
    above it would otherwise index one past the last item.

    Large batches of draws in ``[0, 1)`` start from a guide table,
    ``guide[k] = searchsorted(cdf, k / GUIDE_BUCKETS)``.  A draw falls in
    bucket ``k = floor(u * GUIDE_BUCKETS)``, and ``k / K <= u < (k + 1) / K``
    holds exactly because ``K`` is a power of two; ``searchsorted`` is
    monotone in its needle, so the answer lies in ``guide[k] ..
    guide[k + 1]``.  Most buckets of a long-tailed CDF hold no boundary
    and settle their draws by the table alone; the rest bisect their
    bucket, a shrinking set on every pass.
    """
    cdf = np.asarray(cdf)
    u = np.asarray(u)
    last = len(cdf) - 1
    if last < 0:
        raise ValueError("cannot invert an empty CDF")
    # NaN draws fail both comparisons and take the plain search too.
    if (u.ndim != 1 or u.size < GUIDE_ABOVE or u.dtype != np.float64
            or not (u.min() >= 0.0 and u.max() < 1.0)):
        return np.minimum(np.searchsorted(cdf, u, side="left"), last)
    guide = np.searchsorted(
        cdf, np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS, side="left")
    split = guide[1:] != guide[:-1]     # buckets holding a CDF boundary
    index = np.empty(u.size, dtype=np.int64)
    for start in range(0, u.size, GUIDE_CHUNK):
        draws = u[start:start + GUIDE_CHUNK]
        bucket = (draws * GUIDE_BUCKETS).astype(np.int64)
        found = guide[bucket]
        # Invariant: the answer of draw open_[i] lies in lo[i] .. hi[i];
        # hi[i] <= guide[k + 1] is never read from the CDF (mid < hi).
        open_ = np.flatnonzero(split[bucket])
        lo, hi, draw = found[open_], guide[bucket[open_] + 1], draws[open_]
        while open_.size:
            mid = (lo + hi) >> 1
            below = cdf[mid] < draw
            lo = np.where(below, mid + 1, lo)
            hi = np.where(below, hi, mid)
            settled = lo >= hi
            found[open_[settled]] = lo[settled]
            more = ~settled
            open_, lo, hi, draw = open_[more], lo[more], hi[more], draw[more]
        index[start:start + GUIDE_CHUNK] = found
    return np.minimum(index, last, out=index)
