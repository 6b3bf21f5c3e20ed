"""The data-side cache chain beside the engines, in a forked process.

A :class:`~repro.uarch.perfctx.PerfContext` records its accesses and
simulates them later, and nothing reads a simulated event before
``settle()`` (see docs/MODEL.md, "Recording and draining").  So the
longest part of a drain -- the L1D -> L2 -> L3 chain,
:func:`~repro.uarch.hierarchy.cache_chain` -- can run in a second
process while the engines go on recording.  The DTLB and the whole
fetch side stay in the caller.

One sidecar per process, forked at the first drain that needs it; a
process forked later (a ``Harness(jobs=N)`` pool worker) starts its own
and never writes to its parent's (:func:`current` checks the pid).

* The addresses travel through a shared anonymous int64 ring of
  :data:`RING` elements.  The sidecar copies a batch out and
  acknowledges it; the caller waits for acknowledgements only when the
  ring is full.
* Small pipe messages carry the rest: ``("open", key, caches)``,
  ``("data", key, start, count, runs)``, ``("settle", key)``,
  ``("drop", keys)`` and ``("stats",)``, each behind the sender's pid: a
  message from any process but the owner stops the sidecar.
* The sidecar keeps one chain per live context ``key``; ``finalize`` or
  the garbage collection of the context drops it.
* ``settle`` returns every level's ``accesses`` / ``misses`` and tags
  and the memory bytes of every data run drained since the last one;
  the caller installs them into its own caches.

If the sidecar raises or dies, the next call that talks to it raises
:class:`RuntimeError` with the sidecar's error; it never waits on a
dead process.  The sidecar exits at the end of its input: when its
owner closes the pipe (:func:`shutdown`, at exit) or exits.

The handle is not thread-safe: the contexts of one process drain from
one thread, as every caller in this package does.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import mmap
import os
import resource
import signal
import time
import traceback
import weakref
from multiprocessing import Pipe

import numpy as np

from repro.obs.metrics import METRICS
from repro.uarch.cache import Cache
from repro.uarch.hierarchy import cache_chain

#: Whether this platform can fork.  Tests patch it to ``False`` to take
#: the in-process path; nothing else sets it.
AVAILABLE = hasattr(os, "fork")

#: Addresses the shared ring holds: 2 MB, four 65 536-address drains.
#: Untraced cold 19-workload suite, 2 vCPUs, seeds 0 / 1, three runs
#: each: 2^18 -> 2.87 / 2.96 / 2.89 and 2.97 / 3.00 / 2.96 s, peak RSS
#: 184 / 176 MB; 2^20 -> 2.88 / 2.90 / 2.95 and 3.12 / 2.95 / 2.99 s,
#: 190 / 183 MB.  A 64 MB ring only raised the peak RSS (180 -> 245 MB).
RING = 1 << 18

#: Seconds ``close`` waits for a sidecar to exit before killing it.
EXIT_TIMEOUT = 5.0


class Sidecar:
    """The owner's handle on one forked sidecar process."""

    def __init__(self):
        self.owner = os.getpid()
        self._ring = np.frombuffer(mmap.mmap(-1, RING * 8), dtype=np.int64)
        self._conn, child = Pipe()
        self._keys = itertools.count()
        #: Addresses written into the ring, and copied out of it, ever.
        self._head = self._released = 0
        #: Keys of contexts gone since the last message.
        self._dropped: list = []
        #: Messages sent; the sidecar counts those it received.
        self.sent = 0
        self.failure = None
        self.pid = os.fork()
        if self.pid == 0:
            _serve(child, self._ring, self.owner, self._conn)
        child.close()

    # -- what a context asks -------------------------------------------------

    def open(self, caches) -> int:
        """Start a chain from the state of ``caches``; returns its key."""
        key = next(self._keys)
        self._send(("open", key,
                    [(cache.config, cache.state()) for cache in caches]))
        return key

    def drain(self, key: int, addresses: np.ndarray, weights: list,
              ends: np.ndarray) -> None:
        """Hand one translated batch of runs to chain ``key``."""
        METRICS.counter("uarch.sidecar.drains").inc()
        total, sent = addresses.size, 0
        while True:
            count = min(total - sent, RING)
            self._reserve(count)
            start = self._head % RING
            first = min(count, RING - start)
            self._ring[start:start + first] = addresses[sent:sent + first]
            self._ring[:count - first] = addresses[sent + first:sent + count]
            self._head += count
            sent += count
            # A batch longer than the ring goes in parts; the runs ride
            # with the last one, and the chain runs once, on the whole.
            last = sent == total
            self._send(("data", key, start, count,
                        (weights, ends) if last else None))
            if last:
                return

    def settle(self, key: int, caches) -> list:
        """Wait for chain ``key``, install its state into ``caches`` and
        return the memory bytes of its data runs since the last call."""
        self._send(("settle", key))
        _, states, mem_bytes, busy, rss = self._reply()
        for cache, state in zip(caches, states):
            cache.restore(state)
        METRICS.counter("uarch.sidecar.busy_s").inc(busy)
        peak = METRICS.gauge("uarch.sidecar.peak_rss_mb")
        peak.set(max(peak.value, rss))
        return mem_bytes

    def forget(self, key: int) -> None:
        """Drop chain ``key`` with the next message (safe to call from a
        garbage-collection callback: it only appends)."""
        self._dropped.append(key)

    def stats(self) -> dict:
        """The sidecar's ``received`` messages, ``live`` chains and pid."""
        self._send(("stats",))
        return self._reply()[1]

    def close(self) -> None:
        """End the sidecar's input; the owner also reaps it.  A chain
        still attached raises from then on."""
        if self.failure is None:
            self.failure = RuntimeError(
                f"uarch sidecar (pid {self.pid}) was shut down")
        self._conn.close()
        if self.owner != os.getpid():
            return
        deadline = time.monotonic() + EXIT_TIMEOUT
        while True:
            try:
                if os.waitpid(self.pid, os.WNOHANG)[0]:
                    return
            except ChildProcessError:
                return
            if time.monotonic() > deadline:
                os.kill(self.pid, signal.SIGKILL)
            time.sleep(0.005)

    # -- the pipe ------------------------------------------------------------

    def _send(self, message) -> None:
        if self.failure is not None:
            raise self.failure
        # Take the acknowledgements waiting, so the sidecar never blocks
        # on a full pipe while this process blocks on it.
        while self._conn.poll():
            self._receive()
        try:
            if self._dropped:
                dropped, self._dropped = self._dropped, []
                self._conn.send((os.getpid(), "drop", dropped))
                self.sent += 1
            self._conn.send((os.getpid(),) + message)
            self.sent += 1
        except OSError as error:
            raise self._fail("is gone") from error

    def _reserve(self, count: int) -> None:
        """Wait until ``count`` more addresses fit into the ring."""
        if self._head + count - self._released <= RING:
            return
        began = time.perf_counter()
        while self._head + count - self._released > RING:
            self._receive()
        METRICS.counter("uarch.sidecar.wait_s").inc(time.perf_counter() - began)

    def _reply(self) -> tuple:
        began = time.perf_counter()
        reply = None
        while reply is None:
            reply = self._receive()
        METRICS.counter("uarch.sidecar.wait_s").inc(time.perf_counter() - began)
        return reply

    def _receive(self):
        """One message: an acknowledgement is counted (None), an error
        raised, a reply returned."""
        try:
            message = self._conn.recv()
        except (EOFError, OSError) as error:
            raise self._fail("exited") from error
        if message[0] == "ack":
            self._released += message[1]
            return None
        if message[0] == "error":
            raise self._fail("raised:\n" + message[1])
        return message

    def _fail(self, why: str) -> RuntimeError:
        if self.failure is None:
            self.failure = RuntimeError(f"uarch sidecar (pid {self.pid}) {why}")
            self.close()
        return self.failure


class Chain:
    """One context's L1D -> L2 -> L3 chain, kept in this process's
    sidecar from the state of ``caches``; dropped there by :meth:`close`
    or when ``owner`` is collected."""

    def __init__(self, owner, caches):
        self.caches = caches
        self.sidecar = current()
        self.key = self.sidecar.open(caches)
        self.close = weakref.finalize(owner, self.sidecar.forget, self.key)
        self.close.atexit = False

    def drain(self, addresses, weights, ends) -> None:
        self.sidecar.drain(self.key, addresses, weights, ends)

    def settle(self) -> list:
        return self.sidecar.settle(self.key, self.caches)


_SIDECAR = None


def current() -> Sidecar:
    """This process's sidecar, forked on first use (and again after a
    failure).  One inherited through ``fork`` belongs to the parent: its
    pipe is closed here, never written."""
    global _SIDECAR
    sidecar = _SIDECAR
    if sidecar is not None and sidecar.owner == os.getpid() \
            and sidecar.failure is None:
        return sidecar
    if sidecar is not None:
        sidecar.close()
    _SIDECAR = Sidecar()
    return _SIDECAR


def shutdown() -> None:
    """Stop this process's sidecar, if it has one."""
    global _SIDECAR
    sidecar, _SIDECAR = _SIDECAR, None
    if sidecar is not None:
        sidecar.close()


atexit.register(shutdown)


# -- the sidecar process -------------------------------------------------------

def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _serve(conn, ring: np.ndarray, owner: int, owner_end) -> None:
    """The sidecar's loop over ``conn``; never returns.  ``owner_end``
    is the owner's end of the pipe, closed here so that the owner's exit
    ends the input."""
    try:
        owner_end.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # the owner decides
        gc.freeze()         # the inherited heap is never collected here
        forked_rss = _maxrss_mb()
        chains: dict = {}    # key -> (caches, line bits, pending mem bytes)
        parts: dict = {}     # key -> lines of a batch longer than the ring
        busy = 0.0
        received = 0
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            received += 1
            sender, kind, *message = message
            if sender != owner:
                raise RuntimeError(f"a message from pid {sender}, whose "
                                   f"sidecar this is not (owner: {owner})")
            if kind == "data":
                key, start, count, runs = message
                caches, bits, pending = chains[key]
                stop = start + count
                lines = (ring[start:stop] if stop <= RING else np.concatenate(
                    (ring[start:], ring[:stop - RING]))) >> bits
                conn.send(("ack", count))
                if runs is None:
                    parts.setdefault(key, []).append(lines)
                    continue
                if key in parts:
                    lines = np.concatenate(parts.pop(key) + [lines])
                began = time.perf_counter()
                pending.extend(cache_chain(caches, lines, *runs))
                busy += time.perf_counter() - began
            elif kind == "open":
                key, levels = message
                caches = []
                for config, state in levels:
                    caches.append(Cache(config))
                    caches[-1].restore(state)
                chains[key] = (caches, levels[0][0].line_size.bit_length() - 1,
                               [])
            elif kind == "settle":
                caches, _, pending = chains[message[0]]
                conn.send(("state", [cache.state() for cache in caches],
                           pending, busy, _maxrss_mb() - forked_rss))
                pending.clear()
                busy = 0.0
            elif kind == "drop":
                for key in message[0]:
                    chains.pop(key, None)
                    parts.pop(key, None)
            elif kind == "stats":
                conn.send(("stats", {"received": received,
                                     "live": len(chains),
                                     "pid": os.getpid()}))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass        # the owner is gone: nobody to tell
    finally:
        os._exit(0)
