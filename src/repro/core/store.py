"""One store for everything the suite persists.

BDGS treats data generation as a one-time cost that many runs share
(paper Section 5): a generated input, a generated serving stream and a
characterization result are each made once and then re-read, across
processes and across invocations.  This module is the one place they
are kept.  An entry is ``(kind, key)``, filed under the *fingerprint of
the modules that produce that kind* -- a content hash of those sources
-- so an edit invalidates exactly the entries it can change:

==========  =====================================================
kind        sources hashed into its fingerprint
==========  =====================================================
result      every ``repro`` source (any edit can move a result)
dataset     ``datagen/``, ``keyed.py``, ``workloads/inputs.py``
stream      ``serving/load.py``
==========  =====================================================

This module counts in every kind, because it defines the on-disk
format.  Layout::

    <root>/<kind>/<fingerprint>/<sha256(repr(key))>/meta.json
    <root>/<kind>/<fingerprint>/<sha256(repr(key))>/<array>.npy | value.pkl

An ndarray, or an object with a ``to_arrays()/from_arrays()`` codec
(the BDGS data sets, :class:`~repro.serving.load.ArrivalStream`), is
written as ``.npy`` files and re-opened with ``np.load(mmap_mode="r")``:
pool workers and repeat runs map the same page-cache pages read-only.
Anything else is pickled.  Writes are atomic (a temp dir, then
``rename``); a corrupt or truncated entry is logged, discarded and read
as a miss; an unwritable store hands the object back unchanged.  One
size-capped LRU GC covers every kind, stale fingerprints first.

The root is ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-bigdatabench``,
else ``~/.cache/repro-bigdatabench``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import os
import pickle
import shutil
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.metrics import METRICS

logger = logging.getLogger(__name__)

#: Environment variable overriding the store root directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: GC cap over all kinds: 1 GiB.
CAP_BYTES = 1 << 30

#: kind -> the package-relative sources (a trailing ``/`` names a
#: directory) whose edits can change an entry of that kind; ``""``
#: covers every source.
KINDS = {
    "result": ("",),
    "dataset": ("datagen/", "keyed.py", "workloads/inputs.py"),
    "stream": ("serving/load.py",),
}

_FORMAT_SOURCE = "core/store.py"

_FINGERPRINTS: dict = {}


def default_root() -> str:
    """The store root: env override, XDG cache dir, or ``~/.cache``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "repro-bigdatabench")


def fingerprint(kind: str, refresh: bool = False) -> str:
    """Content hash of the sources that produce ``kind`` (cached per
    process).  Relative paths are hashed with the bytes, so renames,
    additions and deletions change it as well as edits."""
    if kind in _FINGERPRINTS and not refresh:
        return _FINGERPRINTS[kind]
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    sources = KINDS[kind] + (_FORMAT_SOURCE,)
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, package_dir).replace(os.sep, "/")
            if filename.endswith(".py") and rel.startswith(sources):
                digest.update(rel.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    _FINGERPRINTS[kind] = digest.hexdigest()[:16]
    return _FINGERPRINTS[kind]


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------

def _codecs() -> dict:
    """Class name -> class for every object stored as arrays.

    Imported lazily: ``repro.datagen`` and ``repro.serving`` must not be
    a hard import cost of ``repro.core``.
    """
    from repro.datagen.graph import Graph
    from repro.datagen.table import ECommerceData, ResumeSet, ReviewSet, Table
    from repro.datagen.text import TextCorpus
    from repro.serving.load import ArrivalStream

    return {cls.__name__: cls
            for cls in (TextCorpus, Graph, Table, ECommerceData, ReviewSet,
                        ResumeSet, ArrivalStream)}


def encode(obj) -> "tuple[str, dict, dict]":
    """Split ``obj`` into ``(codec_name, json_meta, named_arrays)``;
    TypeError when it has no array codec (the store then pickles it)."""
    if isinstance(obj, np.ndarray) and not obj.dtype.hasobject:
        return "ndarray", {}, {"array": obj}
    name = type(obj).__name__
    if name not in _codecs():
        raise TypeError(f"no array codec for {name!r}")
    meta, arrays = obj.to_arrays()
    return name, meta, arrays


def decode(codec_name: str, meta: dict, arrays: dict):
    """Rebuild the object a codec split apart (arrays may be memmaps)."""
    if codec_name == "ndarray":
        return arrays["array"]
    cls = _codecs().get(codec_name)
    if cls is None:
        raise TypeError(f"unknown array codec {codec_name!r}")
    return cls.from_arrays(meta, arrays)


def frozen(obj):
    """``obj`` with every array its codec names set read-only.

    A data set shared in memory is made what a data set shared through
    the store already is -- ``get`` hands out read-only memmaps -- so an
    in-place write fails the same way wherever the input came from.
    """
    for array in encode(obj)[2].values():
        array.setflags(write=False)
    return obj


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    """One stored entry, as reported by :meth:`Store.entries`."""

    path: str
    kind: str
    fingerprint: str
    key: str            # repr of the logical key
    codec: str
    nbytes: int
    mtime: float

    @property
    def stale(self) -> bool:
        return self.fingerprint != fingerprint(self.kind)


def _count(kind: str, outcome: str) -> None:
    METRICS.counter(f"store.{kind}.{outcome}").inc()


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(dirpath, name))
               for dirpath, _, names in os.walk(directory) for name in names)


class Store:
    """Content-addressed store of every kind in :data:`KINDS`.

    ``hits`` / ``misses`` count ``get`` outcomes over all kinds; the
    process metrics count them per kind (``store.<kind>.*``).
    """

    def __init__(self, root: str = None):
        self.root = os.fspath(root) if root else default_root()
        self.hits = 0
        self.misses = 0
        #: Bytes under the root as this process last knew them (None
        #: until the first put scans): puts add to it, and only a tally
        #: over the cap pays for a full GC scan.
        self._bytes: Optional[int] = None

    def path(self, kind: str, key) -> str:
        """The entry directory for ``(kind, key)`` (existing or not)."""
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self.root, kind, fingerprint(kind), digest)

    # -- read path -----------------------------------------------------------

    def get(self, kind: str, key):
        """The stored object, arrays memory-mapped; None on a miss."""
        obj = self._load(kind, key)
        if obj is None:
            self.misses += 1
            _count(kind, "misses")
        else:
            self.hits += 1
            _count(kind, "hits")
        return obj

    def _load(self, kind: str, key):
        """Open one entry.  A corrupt or truncated one (a killed writer,
        a disk error) is discarded and read as a miss, never raised."""
        directory = self.path(kind, key)
        meta_path = os.path.join(directory, "meta.json")
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if meta["codec"] == "pickle":
                with open(os.path.join(directory, "value.pkl"),
                          "rb") as handle:
                    obj = pickle.load(handle)
            else:
                obj = decode(meta["codec"], meta["meta"], {
                    name: np.load(os.path.join(directory, name + ".npy"),
                                  mmap_mode="r", allow_pickle=False)
                    for name in meta["arrays"]})
        except Exception as exc:
            if isinstance(exc, OSError) and not os.path.isdir(directory):
                return None  # a plain miss
            logger.warning("discarding corrupt %s entry %s (%s: %s)", kind,
                           directory, type(exc).__name__, exc)
            shutil.rmtree(directory, ignore_errors=True)
            _count(kind, "corrupt_entries")
            return None
        try:
            os.utime(meta_path)  # LRU touch; never fails a read
        except OSError:
            pass
        return obj

    # -- write path ----------------------------------------------------------

    def put(self, kind: str, key, obj):
        """Store ``obj`` under ``(kind, key)`` atomically.

        Returns the memory-mapped re-read of an array-coded object (so
        even the generating process serves it from the page cache), else
        ``obj`` itself -- also when the store is unwritable: the store
        accelerates runs, it never fails them.
        """
        try:
            codec, meta, arrays = encode(obj)
        except TypeError:
            codec, meta, arrays = "pickle", {}, {}
        directory = self.path(kind, key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(directory), exist_ok=True)
            tmp = tempfile.mkdtemp(dir=os.path.dirname(directory),
                                   prefix=".tmp-")
            for name, array in arrays.items():
                np.save(os.path.join(tmp, name + ".npy"),
                        np.ascontiguousarray(array), allow_pickle=False)
            if codec == "pickle":
                with open(os.path.join(tmp, "value.pkl"), "wb") as handle:
                    pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
            with open(os.path.join(tmp, "meta.json"), "w",
                      encoding="utf-8") as handle:
                json.dump({"key": repr(key), "codec": codec, "meta": meta,
                           "arrays": sorted(arrays)}, handle)
            nbytes = _tree_bytes(tmp)
            os.rename(tmp, directory)
        except BaseException as exc:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
            if not isinstance(exc, Exception):
                raise
            if not os.path.isdir(directory):  # else: lost a benign race
                logger.warning("store unwritable at %s (%s: %s)", directory,
                               type(exc).__name__, exc)
                _count(kind, "put_failures")
                return obj
            nbytes = 0
        _count(kind, "puts")
        self._bytes = (self.total_bytes() if self._bytes is None
                       else self._bytes + nbytes)
        if self._bytes > CAP_BYTES:
            self.gc()
        if codec == "pickle":
            return obj
        reopened = self._load(kind, key)
        return obj if reopened is None else reopened

    # -- inventory and GC ----------------------------------------------------

    def entries(self) -> "list[Entry]":
        """Every entry under the root, all kinds and fingerprints (a
        temp dir is a dotfile, which ``glob`` skips)."""
        found = []
        for kind in KINDS:
            pattern = os.path.join(glob.escape(self.root), kind, "*", "*",
                                   "meta.json")
            for meta_path in sorted(glob.glob(pattern)):
                directory = os.path.dirname(meta_path)
                try:
                    with open(meta_path, "r", encoding="utf-8") as handle:
                        meta = json.load(handle)
                    found.append(Entry(
                        path=directory, kind=kind,
                        fingerprint=os.path.basename(
                            os.path.dirname(directory)),
                        key=meta["key"], codec=meta["codec"],
                        nbytes=_tree_bytes(directory),
                        mtime=os.path.getmtime(meta_path)))
                except (OSError, ValueError, LookupError, TypeError):
                    continue  # unreadable: a get discards it
        return found

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.entries())

    def gc(self, cap_bytes: int = None) -> "list[Entry]":
        """Evict least-recently-used entries until the store fits
        ``cap_bytes`` (default :data:`CAP_BYTES`), stale fingerprints
        first; returns the evicted entries."""
        cap = CAP_BYTES if cap_bytes is None else cap_bytes
        entries = self.entries()
        total = sum(entry.nbytes for entry in entries)
        removed = []
        for entry in sorted(entries, key=lambda e: (not e.stale, e.mtime)):
            if total <= cap:
                break
            shutil.rmtree(entry.path, ignore_errors=True)
            total -= entry.nbytes
            removed.append(entry)
        self._bytes = total
        return removed

    def clear(self) -> None:
        """Remove everything under the root."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.hits = 0
        self.misses = 0
        self._bytes = None


# ---------------------------------------------------------------------------
# Resolution and activation
# ---------------------------------------------------------------------------

_DEFAULTS: dict = {}
_DEFAULTS_LOCK = threading.Lock()


def default_store() -> Store:
    """The process-wide store of the current root (one per root)."""
    root = default_root()
    with _DEFAULTS_LOCK:
        if root not in _DEFAULTS:
            _DEFAULTS[root] = Store(root)
        return _DEFAULTS[root]


def resolve(store) -> Optional[Store]:
    """Normalize a ``cache=`` / ``artifacts=`` argument: None or False
    -> no store; True -> the default store; a path -> a store rooted
    there; a :class:`Store` -> itself."""
    if store is None or store is False:
        return None
    if store is True:
        return default_store()
    if isinstance(store, (str, os.PathLike)):
        return Store(store)
    return store


_ACTIVE = threading.local()


@contextmanager
def activated(store: Optional[Store], ctx=None, memo: dict = None):
    """Scope in which :func:`current` resolves to ``store``.

    The harness wraps each ``prepare`` and each run in this, so the BDGS
    input helpers (:mod:`repro.workloads.inputs`) and the serving stream
    generator see its store -- and, when ``prepare`` passes one, the
    profiling context for ``artifact:*`` spans -- without threading
    either through every signature.  Thread-local, so concurrent
    harnesses cannot observe each other's stores.

    ``memo`` maps dataset keys to the objects already served: within a
    scope each distinct data set is generated (or opened) once, with or
    without a store.  The default lasts for this scope only.
    """
    previous = getattr(_ACTIVE, "scope", None)
    _ACTIVE.scope = (store, ctx, {} if memo is None else memo)
    try:
        yield store
    finally:
        _ACTIVE.scope = previous


def current() -> Optional[Store]:
    """The active scope's store (None when it has none), else the
    default store."""
    scope = getattr(_ACTIVE, "scope", None)
    return default_store() if scope is None else scope[0]


def current_memo() -> Optional[dict]:
    """The dataset memo of the active scope (None when no scope is
    active: bare ``prepare()`` calls share nothing and store nothing)."""
    scope = getattr(_ACTIVE, "scope", None)
    return scope[2] if scope is not None else None


def current_ctx():
    """The profiling context of the active scope (never None)."""
    from repro.uarch.perfctx import NULL_CONTEXT

    scope = getattr(_ACTIVE, "scope", None)
    ctx = scope[1] if scope is not None else None
    return NULL_CONTEXT if ctx is None else ctx
