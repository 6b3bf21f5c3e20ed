"""Array-state set-associative LRU: the replacement state of caches and TLBs.

One :class:`SetAssocLRU` holds ``num_sets`` x ``ways`` tags and decides a
whole batch of accesses without walking it in Python.  :class:`Cache`
(S sets x W ways) and :class:`Tlb` (1 set x ``entries`` ways) both keep
one; they add only the address arithmetic and the weighted statistics
(:class:`WeightedCounters`).

State is one ``(S, W)`` int64 array.  Each row lists its set's keys in
recency order, least recently used first; ways not yet filled hold
negative values, all distinct, at the LRU end, so they are evicted
before any real key and never equal one another or a real key (keys are
line or page numbers, hence non-negative).

**The batched rule.**  Under true LRU an access hits iff fewer than W
distinct other keys of its set were touched since the previous access to
the same key.  :meth:`SetAssocLRU.touch` therefore

1. prepends the rows of the touched sets to the batch as W *virtual*
   accesses each (the state is exactly "these W keys were touched last,
   in this order"),
2. stable-groups the combined sequence by set, so every set's accesses
   are contiguous and in time order,
3. links each access to the previous and next access of the same key
   (one sort by ``(key, position)``), and
4. counts, for each real access with a previous occurrence, the distinct
   keys strictly between the two (its *window*).  The access ``k``
   places back is the last one to its key inside the window iff its own
   next occurrence lies more than ``k`` places ahead of it, so one
   comparison per look-back distance counts it; a query is decided as a
   miss once its count reaches W and as a hit when the look-back reaches
   the previous occurrence.  A window of fewer than W accesses is a hit
   without looking.  Every position is looked at by at most W queries
   that hit and W that miss: O(W * n) work, see :func:`_hits`.

The new row of a set is the last W last-occurrences of its sequence.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.keyed import sort_group, stable_order

#: Batches shorter than this take :meth:`SetAssocLRU._walk`.  The vector
#: kernel has a fixed cost (two sorts, ~60 numpy calls, W virtual
#: accesses per touched set); the list walk costs 0.3 us a key on the
#: 8-way L1D and up to 1.7 us where every key copies a row (1536-set L3)
#: or scans 64 ways (DTLB).  Measured over the cold 19-workload suite at
#: 65-128 keys per call, walk against kernel: L1D 33 vs 92 us, L2 81 vs
#: 107, L3 170 vs 164, DTLB 128 vs 84.
LOOP_BELOW = 128

#: Queued addresses at which :class:`~repro.uarch.perfctx.PerfContext`
#: drains its recorded runs through the hierarchy.  The four levels
#: together cost 450-500 us per call whatever the batch (L1D: 379 ns a
#: key at <= 1 024 keys, 67 ns at 65 536), and engines declare patterns
#: of a few addresses.  Untraced cold 19-workload suite, seed 0, three
#: runs each: 16 384 -> 11.0 / 12.9 / 12.0 s, 32 768 -> 10.2 / 10.7 /
#: 12.4, 65 536 -> 10.9 / 11.1 / 11.4, 131 072 -> 9.8 / 11.8 / 11.1,
#: 262 144 -> 12.3 / 12.3 / 12.4 (no queue: 14.8-16.7 s).  65 536 is also
#: the sample cap of one pattern, so the queue never doubles peak memory.
#: Measured again with the data caches in the sidecar (2 vCPUs, seeds 0 /
#: 1): 32 768 -> 2.93 / 2.87 / 2.92 and 2.93 / 2.93 / 3.06 s, 65 536 ->
#: 2.87 / 2.96 / 2.89 and 2.97 / 3.00 / 2.96, 131 072 -> 2.79 / 2.85 /
#: 2.90 and 2.83 / 2.93 / 2.91: 1-2 % apart, inside the spread of runs.
DRAIN_AT = 65_536

#: Cap on the elements of one gathered look-back block, so that peak
#: memory does not move at the 65 536-access batches the sample cap allows.
BLOCK_ELEMENTS = 1 << 18

#: While more than one position in this many is an open query, a
#: look-back distance is taken for all positions at once (contiguous
#: passes, 0.6-3 ns per position) rather than gathered per query (15-50
#: ns, and a gathered block costs as many numpy calls as a dense one).
DENSE_ABOVE = 32

#: Elements of one (distances, positions) block of those passes: short
#: sequences take many distances per block (the cost there is the number
#: of numpy calls), long ones a distance at a time (there it is memory).
DENSE_ELEMENTS = 1 << 16

#: "No such occurrence": a distance beyond every position (distances are
#: int32: the contiguous look-back passes are bound by memory traffic).
_NEVER = np.iinfo(np.int32).max


class WeightedCounters:
    """Weighted ``accesses`` / ``misses`` of a cache or TLB.

    Accesses carry a weight (one simulated access stands for many real
    ones); it moves these statistics only, never the replacement state.
    """

    def __init__(self):
        self.accesses = 0.0
        self.misses = 0.0

    @property
    def hits(self) -> float:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses <= 0:
            return 0.0
        return self.misses / self.accesses

    def reset_stats(self) -> None:
        self.accesses = 0.0
        self.misses = 0.0

    def _count(self, hits: np.ndarray, weights: list, ends: np.ndarray) -> None:
        """Add one batch of runs (see :func:`as_runs`), run by run in
        order: one multiplication per run and counter, never one per
        access.  The characterization digests are hashed from these
        floats, so the arithmetic is part of the contract."""
        accesses, misses = self.accesses, self.misses
        start = seen = 0
        for weight, end, missed in zip(
                weights, ends.tolist(), miss_ends(hits, ends).tolist()):
            accesses += float(weight) * (end - start)
            misses += float(weight) * (missed - seen)
            start, seen = end, missed
        self.accesses, self.misses = accesses, misses


def as_runs(size: int, weights, ends) -> tuple:
    """The ``(weights, ends)`` run form of a batch of ``size`` accesses.

    A batch is a concatenation of *runs*; the accesses of a run share
    one weight.  ``weights`` lists the weight of every run and ``ends``
    the position one past its last access (non-decreasing, the last one
    ``size``).  A scalar ``weights`` with no ``ends`` is one run.
    """
    if ends is None:
        if np.ndim(weights):
            raise ValueError("several weights need the ends of their runs")
        return [weights], np.array([size])
    weights, ends = list(weights), np.asarray(ends, dtype=np.int64)
    if len(weights) != ends.size or (ends[-1] if ends.size else 0) != size:
        raise ValueError("one weight per run, the last run ending the batch")
    return weights, ends


def miss_ends(hits: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Run ends of the miss subsequence of ``hits``: the number of
    misses before each of ``ends``.  The level below sees only the
    misses, in order, so these are its run ends."""
    return np.searchsorted(np.flatnonzero(~hits), ends)


class SetAssocLRU:
    """``num_sets`` x ``ways`` tags under true-LRU replacement."""

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways
        #: ``key & mask`` when the set count is a power of two (``%``
        #: costs ten times as much), else None.
        self._mask = num_sets - 1 if num_sets & (num_sets - 1) == 0 else None
        self.tags = np.empty((num_sets, ways), dtype=np.int64)
        self.clear()

    def clear(self) -> None:
        """Empty every way."""
        self.tags[:] = np.arange(-self.tags.size, 0).reshape(self.tags.shape)

    # -- inspection ---------------------------------------------------------

    def order(self, set_index: int) -> list:
        """Resident keys of one set, least recently used first."""
        row = self.tags[set_index]
        return row[row >= 0].tolist()

    def resident(self) -> int:
        """Number of filled ways over all sets."""
        return int(np.count_nonzero(self.tags >= 0))

    def contains(self, key: int) -> bool:
        return key >= 0 and bool(
            (self.tags[key % self.num_sets] == key).any())

    # -- updates ------------------------------------------------------------

    def touch(self, keys: np.ndarray) -> np.ndarray:
        """Access ``keys`` (1-D int64, non-negative) in order.

        Returns the boolean hit vector; every key ends up most recently
        used in its set, evicting the least recently used on a miss.
        """
        if keys.size < LOOP_BELOW:
            return np.array(self._walk(keys.tolist(), promote=True),
                            dtype=bool)
        if int(keys.min()) < 0:
            raise ValueError("keys must be non-negative")
        return self._touch_batch(keys)

    def install(self, keys: np.ndarray) -> None:
        """Make ``keys`` resident without an access: a missing key enters
        as most recently used, a resident key keeps its place (warm-up
        priming; the batches are tens of keys, once per code profile)."""
        self._walk(keys.tolist(), promote=False)

    def _walk(self, keys: list, promote: bool) -> list:
        """One key at a time over list copies of the touched rows."""
        if keys and min(keys) < 0:
            raise ValueError("keys must be non-negative")
        tags, num_sets = self.tags, self.num_sets
        rows: dict = {}
        hits = []
        for key in keys:
            index = key % num_sets
            row = rows.get(index)
            if row is None:
                row = rows[index] = tags[index].tolist()
            hit = key in row
            hits.append(hit)
            if hit:
                if not promote:
                    continue
                row.remove(key)
            else:
                del row[0]
            row.append(key)
        for index, row in rows.items():
            tags[index] = row
        return hits

    def _touch_batch(self, keys: np.ndarray) -> np.ndarray:
        ways, tags = self.ways, self.tags
        if self.num_sets == 1:
            seq = np.concatenate((tags[0], keys))
        else:
            sets = keys & self._mask if self._mask is not None \
                else keys % self.num_sets
            per_set = np.bincount(sets, minlength=self.num_sets)
            touched = np.flatnonzero(per_set)
            virtual = touched.size * ways
            order = stable_order(
                np.concatenate((np.repeat(touched, ways), sets)))
            seq = np.concatenate((tags[touched].ravel(), keys))[order]
        window, gap = _link(seq)
        hit = _hits(window, gap, ways)

        last = np.flatnonzero(gap == _NEVER)
        if self.num_sets == 1:
            tags[0] = seq[last[-ways:]]
            return hit[ways:]
        ends = np.cumsum(per_set[touched] + ways)
        stop = np.searchsorted(last, ends)
        tags[touched] = seq[last[stop[:, None] + np.arange(-ways, 0)]]
        in_time = np.empty(seq.size, dtype=bool)
        in_time[order] = hit
        return in_time[virtual:]


def _link(seq: np.ndarray) -> tuple:
    """Distance to the previous (``window``) and to the next (``gap``)
    access of the same key, for every position; ``_NEVER`` where there
    is none.  Empty ways are all distinct, so they link to nothing.
    """
    keys, order = sort_group(seq)
    pair = np.flatnonzero(keys[1:] == keys[:-1])
    earlier, later = order[pair], order[pair + 1]
    window = np.full(seq.size, _NEVER, dtype=np.int32)
    gap = np.full(seq.size, _NEVER, dtype=np.int32)
    window[later] = gap[earlier] = later - earlier
    return window, gap


def _hits(window: np.ndarray, gap: np.ndarray, ways: int) -> np.ndarray:
    """Hit flag of every position of a set-grouped sequence.

    An access hits iff it has a previous occurrence and fewer than
    ``ways`` of the accesses inside its window are the last one to their
    key there.  The access ``back`` places before position ``p`` counts
    iff ``back < window[p]`` and its own next occurrence lies beyond
    ``p`` (``gap[p - back] > back``).  Both are comparisons of shifted
    slices, so a block of look-back distances is taken for all positions
    at once -- one row per distance, as many rows as DENSE_ELEMENTS
    allows -- while many queries are open; the few left are finished by
    gathering their own blocks.  Block widths double, so a query is
    followed at most twice as far as it takes to decide it.
    """
    known = window != _NEVER
    live = known & (window > ways)
    if not live.any():
        return known
    size = window.size
    count = np.zeros(size, dtype=np.int32)
    limit = max(1, min(255, DENSE_ELEMENTS // size))
    padded = np.concatenate((np.zeros(limit, dtype=np.int32), gap))
    back, span = 0, ways
    while np.count_nonzero(live) * DENSE_ABOVE > size:
        span = min(span, limit)
        reach = np.arange(back + span, back, -1, dtype=np.int32)[:, None]
        ahead = size - back - 1
        # Row c is gap[p - reach[c]] for p = back + 1 .. size - 1: the
        # overlapping slices padded[first + c:first + c + ahead], c <
        # span, all inside padded (limit zeros, then gap).
        first = limit - span + 1
        rows = as_strided(padded[first:], (span, ahead),
                          (padded.itemsize, padded.itemsize), writeable=False)
        counted = (rows > reach) & (window[back + 1:] > reach)
        # Summed as uint8 (span <= 255): eight times faster than as bool.
        count[back + 1:] += np.add.reduce(
            counted.view(np.uint8), axis=0, dtype=np.uint8)
        back += span
        if back >= ways:
            live = known & (count < ways) & (window > back + 1)
            span *= 2
    live = np.flatnonzero(live)
    while live.size:
        span = max(1, min(span, BLOCK_ELEMENTS // live.size))
        reach = np.arange(back + 1, back + span + 1, dtype=np.int32)
        inside = reach < window[live][:, None]
        j = np.maximum(live[:, None] - reach, 0)
        count[live] += ((gap[j] > reach) & inside).sum(axis=1)
        back += span
        live = live[(count[live] < ways) & (window[live] > back + 1)]
        span *= 2
    return known & (count < ways)
