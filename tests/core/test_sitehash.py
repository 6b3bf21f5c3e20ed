"""The determinism law itself: ``repro.sitehash`` against recorded values.

The golden values were recorded from the expressions each plane wrote
out by hand before the law had one home (the cluster simulator's
straggler and flow draws, the fault injector, the scenario library, the
storage stamps and the serving stream's profile key).  An equivalence
test would only compare the module with itself; these pin the bits.
"""

import hashlib

from hypothesis import example, given, strategies as st

from repro.serving.load import LoadProfile
from repro.sitehash import key, stamp, unit, units

#: (seed, site, unit) -- an empty site, a non-ASCII site, a seed past
#: 32 bits and a negative one among them.
UNITS = [
    (0, "", 0.16545731808650774),
    (0, "map:task0", 0.6751491344132554),
    (1, "exchange:flow:0->1", 0.7853055050797371),
    (7, "node:3|task_crash:1", 0.6245309539157677),
    (42, "ycsb-a:key|3", 0.7651461812692342),
    (3, "réseau:ü→λ", 0.006272632013404257),
    (2 ** 40, "reduce:task12", 0.6887623418045234),
    (-1, "neg", 0.838265880249697),
]

#: (key bytes, size, stamp)
STAMPS = [
    (b"", 0, 1786884285633530058),
    (b"user1", 100, 5745091042337144564),
    (b"user000000002099", 10, 6875375303528575866),
    (b"\xff\x00k", 2 ** 40, 3443970020898467147),
]

#: (load profile, key of its text)
PROFILE_KEYS = [
    ("constant:duration=5", 906111417333060795),
    ("flash:rps=3200:peak=8", 16115344276566339797),
]


def test_golden_table():
    for seed, site, expected in UNITS:
        assert unit(seed, site) == expected, (seed, site)
        data = f"{seed}|{site}".encode()
        assert units(data[:3], [data[3:]]).tolist() == [expected]
    for key_bytes, size, expected in STAMPS:
        assert stamp(key_bytes, size) == expected, (key_bytes, size)
    for profile, expected in PROFILE_KEYS:
        assert key(str(LoadProfile.parse(profile)).encode()) == expected


@given(prefix=st.binary(max_size=160),
       tails=st.lists(st.binary(max_size=160), max_size=6))
@example(prefix=b"", tails=[])
@example(prefix=b"7|map:task", tails=[b"", b"0", b"123"])
@example(prefix=b"p" * 100, tails=[b"t" * 40, b"", b"u" * 29])
@example(prefix=b"q" * 130, tails=[b"", b"r"])
def test_prefixed_digests_are_one_shot_hashes(prefix, tails):
    """One absorbed prefix, one ``copy()`` per tail: every variate is
    the one-shot ``blake2b(prefix + tail)``'s, across a block boundary
    (128 bytes) too."""
    assert units(prefix, tails).tolist() == [
        int.from_bytes(hashlib.blake2b(prefix + tail, digest_size=8)
                       .digest(), "little") / 2.0 ** 64
        for tail in tails]


def test_unit_is_stable_and_uniform_range():
    values = [unit(1, f"s|salt{i}") for i in range(100)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert values == [unit(1, f"s|salt{i}") for i in range(100)]
    assert len(set(values)) > 90  # not degenerate
