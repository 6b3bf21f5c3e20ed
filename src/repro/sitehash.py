"""The suite's determinism law: every seeded draw is a hash of its site.

A random decision -- a straggler tail, a shuffle flow's rank, a fault
striking, a retry's jitter, a scenario's key -- is the 8-byte blake2b
digest of ``"{seed}|{site}"`` read as a uniform [0, 1) variate.  No
shared RNG is consumed, so no decision can perturb another and the same
spec gives the same bits serially, under ``jobs=N`` and from any cache.
A stored record's stamp is the same digest of its ``(key, size)`` pair.

Every engine draws through this module; the expressions are pinned by
a golden table in ``tests/core/test_sitehash.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np

_TWO64 = 2.0 ** 64


def key(data: bytes) -> int:
    """The 8-byte blake2b digest of ``data``, little-endian."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "little")


def unit(seed: int, site: str) -> float:
    """The uniform [0, 1) variate of ``site`` under ``seed``."""
    return key(f"{seed}|{site}".encode()) / _TWO64


def units(prefix: bytes, tails) -> np.ndarray:
    """The variates of ``prefix + tail``, one per tail -- what
    :func:`unit` gives for sites that share an encoded ``"{seed}|..."``
    prefix.

    The prefix is absorbed once and each tail hashed on a ``copy()`` of
    that state: incremental hashing equals one-shot hashing by blake2b's
    definition, and a copy skips constructing a parametrised hash
    object, which is most of the cost of a short site.
    """
    copy = hashlib.blake2b(prefix, digest_size=8).copy
    out = []
    append = out.append
    for tail in tails:
        state = copy()
        state.update(tail)
        append(state.digest())
    return np.frombuffer(b"".join(out), dtype="<u8") / _TWO64


def stamp(key_bytes: bytes, size: int) -> int:
    """The verifiable stamp of a stored ``(key, size)`` pair: every
    storage backend returns it for the live value of a key."""
    return key(key_bytes + size.to_bytes(8, "little")) & 0x7FFFFFFFFFFFFFFF
