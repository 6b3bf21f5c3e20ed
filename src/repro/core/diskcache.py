"""Persistent on-disk cache for characterization results.

A full figure regeneration re-runs the same (workload, scale, stack,
machine) points that the previous invocation already simulated; the
in-memory memo in :class:`~repro.core.harness.Harness` cannot help across
processes.  This cache makes repeated benchmark/figure/CLI runs
near-instant: results are pickled under a directory keyed by a
*code fingerprint* -- a content hash of every ``repro`` source file -- so
any change to the simulator or the workloads automatically invalidates
every cached result.

Layout::

    <root>/<fingerprint>/<sha256(key)>.pkl

The root defaults to ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro-bigdatabench``, else
``~/.cache/repro-bigdatabench``.  Entries from stale fingerprints are
left on disk (cheap, and useful when switching branches) until
:meth:`DiskCache.prune` or :meth:`DiskCache.clear` removes them.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import shutil
import tempfile
from typing import Optional

logger = logging.getLogger(__name__)

#: Environment variable overriding the cache root directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_FINGERPRINT: Optional[str] = None


def default_cache_dir() -> str:
    """The cache root: env override, XDG cache dir, or ``~/.cache``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    if not xdg:
        xdg = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "repro-bigdatabench")


def code_fingerprint(refresh: bool = False) -> str:
    """Content hash of every ``repro`` source file (cached per process).

    Hashing relative paths together with file bytes means renames,
    additions, deletions, and edits all change the fingerprint, which is
    the cache's invalidation key.
    """
    global _FINGERPRINT
    if _FINGERPRINT is not None and not refresh:
        return _FINGERPRINT
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, package_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


class DiskCache:
    """Pickle-backed key/value store keyed by the code fingerprint.

    Keys are arbitrary ``repr``-able values (the harness uses tuples of
    workload name, scale, stack, machine/cluster reprs, and seed); values
    are arbitrary picklable objects.  ``hits`` / ``misses`` count ``get``
    outcomes for benchmarking and tests.
    """

    def __init__(self, root: str = None, fingerprint: str = None):
        self.root = root or default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> str:
        """Where the current fingerprint's entries live."""
        return os.path.join(self.root, self.fingerprint)

    def _path(self, key) -> str:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self.directory, digest + ".pkl")

    def get(self, key):
        """The cached value for ``key``, or None on a miss.

        Unreadable/corrupt entries are deleted and reported as misses.
        """
        from repro.obs.metrics import METRICS

        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            METRICS.counter("diskcache.misses").inc()
            return None
        except Exception as exc:
            # A corrupted or truncated entry (killed writer, disk error,
            # unpicklable bytes) must never poison a run: log it, drop
            # the file, and let the harness re-run the point.
            logger.warning("discarding corrupt cache entry %s (%s: %s)",
                           path, type(exc).__name__, exc)
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            METRICS.counter("diskcache.misses").inc()
            METRICS.counter("diskcache.corrupt_entries").inc()
            return None
        self.hits += 1
        METRICS.counter("diskcache.hits").inc()
        return value

    def put(self, key, value) -> str:
        """Store ``value`` under ``key`` atomically; returns the path."""
        from repro.obs.metrics import METRICS

        METRICS.counter("diskcache.puts").inc()
        path = self._path(key)
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.directory)
                       if name.endswith(".pkl"))
        except FileNotFoundError:
            return 0

    def clear(self) -> None:
        """Remove every entry under the root, all fingerprints included."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.hits = 0
        self.misses = 0

    def prune(self) -> None:
        """Remove entries of *other* (stale) code fingerprints only."""
        try:
            subdirs = os.listdir(self.root)
        except FileNotFoundError:
            return
        for name in subdirs:
            if name != self.fingerprint:
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)


def resolve_cache(cache) -> Optional[DiskCache]:
    """Normalize a ``cache`` argument: a DiskCache instance, True (build
    the default cache), or None/False (no caching).

    Explicit identity checks, not truthiness: an *empty* DiskCache has
    ``len() == 0`` and must still count as a cache.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return DiskCache()
    return cache
