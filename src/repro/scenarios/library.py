"""The scenario library: deterministic logical operation streams.

A scenario is a *pure value*: a preload record set plus an ordered
stream of protocol operations, fully determined by ``(name, scale,
seed)``.  Backends never appear here -- the same scenario runs
apples-to-apples against lsm/sql/dict, which is the entire point of the
unified protocol.

Every draw is a :func:`repro.sitehash.unit` of its site -- no shared
RNG state -- so op streams are seed-stable across processes, platforms,
and ``jobs=N`` workers.

The YCSB core mixes A-F follow the canonical workload definitions
(update-heavy, read-mostly, read-only, read-latest, short-ranges,
read-modify-write); key choice is Zipfian (theta 0.99) over the loaded
key space, sampled by inverse CDF.  Three application scenarios --
``orders`` (transactional order entry with rollbacks), ``feed``
(social-feed read/write fan-out), ``iot`` (sensor firehose) -- exercise
the transaction and scan surfaces the YCSB mixes do not.

Operations are plain tuples::

    ("read", key)  ("write", key, size)  ("delete", key)
    ("scan", start_key, limit)  ("begin",)  ("commit",)  ("rollback",)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import InputError
from repro.sitehash import unit

#: Preloaded records / operations at scale 1 (multiplied by the Table 6
#: scale factor).
BASE_RECORDS = 240
BASE_OPS = 400

#: YCSB's default Zipfian skew.
ZIPF_THETA = 0.99

#: Value sizes span [MIN_VALUE, MIN_VALUE + VALUE_SPREAD) bytes.
MIN_VALUE = 100
VALUE_SPREAD = 1000


@dataclass(frozen=True)
class Scenario:
    """One deterministic logical scenario, ready to run on any backend."""

    name: str
    #: ``(key, size)`` records propagated before the measured op stream.
    preload: tuple
    #: Protocol op tuples, in execution order.
    ops: tuple
    seed: int
    scale: int

    @property
    def preload_bytes(self) -> int:
        return sum(size for _, size in self.preload)

    def op_counts(self) -> dict:
        counts: dict = {}
        for op in self.ops:
            counts[op[0]] = counts.get(op[0], 0) + 1
        return counts


class _Zipf:
    """Inverse-CDF Zipfian sampler over ranks ``0..n-1`` (rank 0 hottest)."""

    def __init__(self, n: int, theta: float = ZIPF_THETA):
        ranks = np.arange(1, max(2, n) + 1, dtype=np.float64)
        weights = ranks ** -theta
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._n = max(1, n)

    def rank(self, u: float) -> int:
        return min(self._n - 1, int(np.searchsorted(self._cdf, u,
                                                    side="right")))


class _Stream:
    """Keyed-draw helper bound to one scenario's site."""

    def __init__(self, name: str, seed: int):
        self.site = f"scenario:{name}"
        self.seed = seed

    def u(self, part: str, salt: int) -> float:
        return unit(self.seed, f"{self.site}:{part}|{salt}")

    def size(self, salt: int) -> int:
        return MIN_VALUE + int(self.u("size", salt) * VALUE_SPREAD)

    def choice(self, part: str, salt: int, n: int) -> int:
        return min(n - 1, int(self.u(part, salt) * n))


def _preload(name: str, seed: int, records: int) -> tuple:
    draws = _Stream(name, seed)
    return tuple((key, draws.size(-1 - key)) for key in range(records))


# -- YCSB core mixes -----------------------------------------------------------

#: name -> (read, update, insert, scan, rmw) fractions.
YCSB_MIXES = {
    "ycsb-a": (0.50, 0.50, 0.00, 0.00, 0.00),   # update heavy
    "ycsb-b": (0.95, 0.05, 0.00, 0.00, 0.00),   # read mostly
    "ycsb-c": (1.00, 0.00, 0.00, 0.00, 0.00),   # read only
    "ycsb-d": (0.95, 0.00, 0.05, 0.00, 0.00),   # read latest
    "ycsb-e": (0.00, 0.00, 0.05, 0.95, 0.00),   # short ranges
    "ycsb-f": (0.50, 0.00, 0.00, 0.00, 0.50),   # read-modify-write
}

#: Max rows of a YCSB-E range scan (drawn uniformly in [1, max]).
SCAN_MAX = 20


def _ycsb(name: str, seed: int, records: int, n_ops: int) -> tuple:
    read, update, insert, scan, rmw = YCSB_MIXES[name]
    bounds = np.cumsum([read, update, insert, scan, rmw])
    draws = _Stream(name, seed)
    zipf = _Zipf(records)
    ops = []
    next_key = records        # inserts append past the loaded key space
    for i in range(n_ops):
        kind = int(np.searchsorted(bounds, draws.u("mix", i), side="right"))
        if name == "ycsb-d" and kind == 0:
            # Read-latest: Zipfian over *recency* -- rank 0 is the
            # newest key, so fresh inserts are immediately hot.
            key = max(0, next_key - 1 - zipf.rank(draws.u("key", i)))
        else:
            key = zipf.rank(draws.u("key", i))
        if kind == 0:                                   # read
            ops.append(("read", key))
        elif kind == 1:                                 # update
            ops.append(("write", key, draws.size(i)))
        elif kind == 2:                                 # insert
            ops.append(("write", next_key, draws.size(i)))
            next_key += 1
        elif kind == 3:                                 # scan
            limit = 1 + int(draws.u("limit", i) * SCAN_MAX)
            ops.append(("scan", key, limit))
        else:                                           # read-modify-write
            ops.append(("read", key))
            ops.append(("write", key, draws.size(i)))
    return tuple(ops)


# -- application scenarios -----------------------------------------------------

#: Fraction of order transactions that abort (payment declined).
ORDER_ROLLBACK = 0.15

#: Order records live past this key offset (catalog occupies 0..records).
ORDER_BASE = 1_000_000


def _orders(name: str, seed: int, records: int, n_ops: int) -> tuple:
    """Order entry: check the catalog, write header + lines in a
    transaction, roll back a deterministic fraction."""
    draws = _Stream(name, seed)
    zipf = _Zipf(records)
    ops = []
    order = 0
    while len(ops) < n_ops:
        lines = 2 + draws.choice("lines", order, 3)     # 2-4 line items
        base = ORDER_BASE + order * 8
        ops.append(("read", zipf.rank(draws.u("catalog", order))))
        ops.append(("begin",))
        ops.append(("write", base, draws.size(order)))  # header
        for line in range(lines):
            ops.append(("write", base + 1 + line,
                        draws.size(order * 8 + line)))
        ops.append(("read", base))                      # verify inside txn
        if draws.u("abort", order) < ORDER_ROLLBACK:
            ops.append(("rollback",))
        else:
            ops.append(("commit",))
        order += 1
    return tuple(ops)


#: Feed fan-out: a post is pushed to this many follower timelines.
FEED_FANOUT = 6

#: Per-user timeline key space (posts per user capped well below it).
FEED_STRIDE = 1000
FEED_BASE = 1_000_000


def _feed(name: str, seed: int, records: int, n_ops: int) -> tuple:
    """Social feed: 80% timeline reads (a range scan plus profile
    lookups), 20% posts (transactional fan-out to follower timelines)."""
    draws = _Stream(name, seed)
    zipf = _Zipf(records)
    posts = [0] * records     # per-user timeline sequence numbers
    ops = []
    i = 0
    while len(ops) < n_ops:
        user = zipf.rank(draws.u("user", i))
        if draws.u("mix", i) < 0.80:
            ops.append(("scan", FEED_BASE + user * FEED_STRIDE, 10))
            ops.append(("read", user))                      # profile
            ops.append(("read", zipf.rank(draws.u("friend", i))))
        else:
            ops.append(("begin",))
            for f in range(FEED_FANOUT):
                follower = (user + 1 + zipf.rank(
                    draws.u("follower", i * FEED_FANOUT + f))) % records
                key = (FEED_BASE + follower * FEED_STRIDE
                       + posts[follower] % FEED_STRIDE)
                posts[follower] += 1
                ops.append(("write", key, draws.size(i * FEED_FANOUT + f)))
            ops.append(("commit",))
        i += 1
    return tuple(ops)


#: Sensor fleet size and per-sensor key stride.
IOT_SENSORS = 16
IOT_STRIDE = 100_000
IOT_BASE = 1_000_000


def _iot(name: str, seed: int, records: int, n_ops: int) -> tuple:
    """IoT firehose: 90% monotonic per-sensor appends, 5% recent-window
    range scans (dashboard queries), 5% retention deletes of the oldest
    reading -- the one scenario that exercises delete -> scan masking."""
    draws = _Stream(name, seed)
    seq = [0] * IOT_SENSORS
    oldest = [0] * IOT_SENSORS
    ops = []
    for i in range(n_ops):
        sensor = draws.choice("sensor", i, IOT_SENSORS)
        base = IOT_BASE + sensor * IOT_STRIDE
        u = draws.u("mix", i)
        if u < 0.90 or seq[sensor] == oldest[sensor]:
            ops.append(("write", base + seq[sensor], draws.size(i)))
            seq[sensor] += 1
        elif u < 0.95:
            start = base + max(oldest[sensor], seq[sensor] - 20)
            ops.append(("scan", start, 20))
        else:
            ops.append(("delete", base + oldest[sensor]))
            oldest[sensor] += 1
    return tuple(ops)


_BUILDERS = {name: _ycsb for name in YCSB_MIXES}
_BUILDERS.update({"orders": _orders, "feed": _feed, "iot": _iot})

#: Every scenario name, YCSB mixes first.
SCENARIO_NAMES = tuple(_BUILDERS)


# Room for the six YCSB mixes one characterization prepares and then runs.
@functools.lru_cache(maxsize=8)
def build(name: str, scale: int = 1, seed: int = 0) -> Scenario:
    """The deterministic scenario ``(name, scale, seed)``.

    Memoized: a scenario is an immutable value (a frozen dataclass of
    tuples), so every backend of a comparison runs the same object.
    """
    if name not in _BUILDERS:
        raise InputError(f"unknown scenario {name!r}; known: "
                         f"{', '.join(SCENARIO_NAMES)}")
    if scale < 1:
        raise InputError("scale must be >= 1")
    records = BASE_RECORDS * scale
    n_ops = BASE_OPS * scale
    return Scenario(
        name=name,
        preload=_preload(name, seed, records),
        ops=_BUILDERS[name](name, seed, records, n_ops),
        seed=seed,
        scale=scale,
    )
