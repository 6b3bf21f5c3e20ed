"""The shared input plane: a memory-mapped BDGS artifact store.

BDGS input generation is a first-class phase of every run (paper
Section 4): the generator "scales up" seed data sets to the requested
volume before a workload executes.  At suite scale that generation
dominates cold wall clock, and it used to happen once *per process* --
every pool worker and every fresh CLI invocation regenerated every
corpus, graph, and table it touched.

This module makes each generated input exist exactly once, machine-wide:

* Every prepared data object (:class:`~repro.datagen.text.TextCorpus`,
  :class:`~repro.datagen.graph.Graph`,
  :class:`~repro.datagen.table.Table` and friends) carries a
  ``to_arrays()/from_arrays()`` codec splitting it into JSON-scalar
  metadata plus named numpy arrays.
* :class:`ArtifactStore` spills those arrays once to ``.npy`` files
  under a content-addressed directory and re-opens them with
  ``np.load(mmap_mode="r")`` -- so pool workers and repeat CLI runs map
  the *same page-cache pages* read-only instead of regenerating or
  pickling inputs.
* Artifacts are keyed by ``(kind, scale, seed, params...)`` under a
  *datagen-source fingerprint* (a content hash of every datagen module),
  so any change to a generator automatically invalidates its artifacts.
* Corrupt or truncated artifacts are discarded and regenerated, never
  raised (mirroring :mod:`repro.core.diskcache`); a size-capped LRU GC
  keeps the store bounded.

Layout::

    <root>/<datagen-fingerprint>/<sha256(key)>/meta.json
    <root>/<datagen-fingerprint>/<sha256(key)>/<array>.npy

Within one harness the plane is in memory first: every
:func:`activated` scope carries a dataset memo under the same keys, asked
before the store, so workloads that read the same data set share one
read-only object whether or not anything is spilled (:func:`frozen`).

The root defaults to ``$REPRO_ARTIFACT_DIR``, else
``<result-cache-root>/artifacts``.  ``REPRO_NO_ARTIFACTS=1`` disables
the default store entirely (the per-harness ``artifacts=False`` and the
CLI ``--no-artifacts`` flag do the same per run).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

logger = logging.getLogger(__name__)

#: Environment variable overriding the artifact root directory.
ENV_ARTIFACT_DIR = "REPRO_ARTIFACT_DIR"

#: Environment variable disabling the default artifact store entirely.
ENV_NO_ARTIFACTS = "REPRO_NO_ARTIFACTS"

#: Environment variable capping the store size (megabytes) for the GC.
ENV_ARTIFACT_CAP = "REPRO_ARTIFACT_CAP_MB"

#: Default GC cap: 1 GiB of artifacts.
DEFAULT_CAP_BYTES = 1 << 30

_FINGERPRINT: Optional[str] = None


def default_artifact_dir() -> str:
    """The artifact root: env override, else ``<cache-root>/artifacts``."""
    env = os.environ.get(ENV_ARTIFACT_DIR)
    if env:
        return env
    from repro.core.diskcache import default_cache_dir

    return os.path.join(default_cache_dir(), "artifacts")


def datagen_fingerprint(refresh: bool = False) -> str:
    """Content hash of every datagen-relevant source file.

    Unlike :func:`repro.core.diskcache.code_fingerprint` (which covers
    the whole package, because any source edit can change a simulated
    *result*), artifacts only depend on the generators: the
    ``repro.datagen`` modules, the keyed kernels they draw and group
    with (``repro.keyed``), the BDGS wiring in
    ``repro.workloads.inputs``, and this module (whose codec/key layout
    is part of the on-disk format).  Editing the simulator therefore
    keeps generated inputs warm; editing a generator invalidates them.
    """
    global _FINGERPRINT
    if _FINGERPRINT is not None and not refresh:
        return _FINGERPRINT
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    sources = [os.path.join(package_dir, "workloads", "inputs.py"),
               os.path.join(package_dir, "core", "artifacts.py"),
               os.path.join(package_dir, "keyed.py")]
    datagen_dir = os.path.join(package_dir, "datagen")
    for name in sorted(os.listdir(datagen_dir)):
        if name.endswith(".py"):
            sources.append(os.path.join(datagen_dir, name))
    _FINGERPRINT = _source_digest(sources, package_dir)
    return _FINGERPRINT


_SERVING_FINGERPRINT: Optional[str] = None


def serving_fingerprint(refresh: bool = False) -> str:
    """Content hash of the serving stream-generation source.

    Arrival streams (``("serving-stream", seed, profile, mix)`` keys)
    depend only on the generator in ``repro.serving.load`` and this
    module's codec/key layout -- editing the replay engines keeps
    generated streams warm; editing the generator invalidates them.
    """
    global _SERVING_FINGERPRINT
    if _SERVING_FINGERPRINT is not None and not refresh:
        return _SERVING_FINGERPRINT
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    sources = [os.path.join(package_dir, "serving", "load.py"),
               os.path.join(package_dir, "core", "artifacts.py")]
    _SERVING_FINGERPRINT = _source_digest(sources, package_dir)
    return _SERVING_FINGERPRINT


def _source_digest(sources, package_dir: str) -> str:
    digest = hashlib.sha256()
    for path in sources:
        digest.update(os.path.relpath(path, package_dir).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------

def _codecs() -> dict:
    """Class name -> class for every artifact-storable data object.

    Imported lazily: ``repro.datagen`` must not be a hard import cost of
    ``repro.core`` (and the datagen modules never import this one, so
    there is no cycle either way).
    """
    from repro.datagen.graph import Graph
    from repro.datagen.table import ECommerceData, ResumeSet, ReviewSet, Table
    from repro.datagen.text import TextCorpus
    from repro.serving.load import ArrivalStream

    return {cls.__name__: cls
            for cls in (TextCorpus, Graph, Table, ECommerceData, ReviewSet,
                        ResumeSet, ArrivalStream)}


def encode(obj) -> "tuple[str, dict, dict]":
    """Split ``obj`` into ``(codec_name, json_meta, named_arrays)``."""
    if isinstance(obj, np.ndarray):
        return "ndarray", {}, {"array": obj}
    name = type(obj).__name__
    if name not in _codecs():
        raise TypeError(f"no artifact codec for {name!r}")
    meta, arrays = obj.to_arrays()
    return name, meta, arrays


def frozen(obj):
    """``obj`` with every array its codec names set read-only.

    A data set shared in memory is made what a data set shared through
    the store already is -- ``get`` hands out read-only memmaps -- so an
    in-place write fails the same way wherever the input came from.
    """
    for array in encode(obj)[2].values():
        array.setflags(write=False)
    return obj


def decode(codec_name: str, meta: dict, arrays: dict):
    """Rebuild the object a codec split apart (arrays may be memmaps)."""
    if codec_name == "ndarray":
        return arrays["array"]
    cls = _codecs().get(codec_name)
    if cls is None:
        raise TypeError(f"unknown artifact codec {codec_name!r}")
    return cls.from_arrays(meta, arrays)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

@dataclass
class ArtifactEntry:
    """One stored artifact, as reported by :meth:`ArtifactStore.entries`."""

    path: str
    fingerprint: str
    key: str            # repr of the logical key (kind, scale, seed, ...)
    codec: str
    nbytes: int
    mtime: float

    @property
    def stale(self) -> bool:
        return self.fingerprint not in (datagen_fingerprint(),
                                        serving_fingerprint())


class ArtifactStore:
    """Content-addressed store of memory-mapped input artifacts.

    ``get`` re-opens arrays with ``np.load(mmap_mode="r")``: callers
    receive objects whose arrays are read-only views of the page cache,
    shared across every process that opens the same artifact.
    ``hits`` / ``misses`` count ``get`` outcomes for benchmarks/tests.
    """

    def __init__(self, root: str = None, fingerprint: str = None,
                 cap_bytes: int = None):
        self.root = root or default_artifact_dir()
        self.fingerprint = fingerprint or datagen_fingerprint()
        if cap_bytes is None:
            cap_mb = os.environ.get(ENV_ARTIFACT_CAP)
            cap_bytes = (int(float(cap_mb) * 1024 * 1024) if cap_mb
                         else DEFAULT_CAP_BYTES)
        self.cap_bytes = cap_bytes
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> str:
        """Where the current datagen fingerprint's artifacts live."""
        return os.path.join(self.root, self.fingerprint)

    def path(self, key) -> str:
        """The artifact directory for ``key`` (existing or not)."""
        digest = hashlib.sha256(repr(key).encode()).hexdigest()
        return os.path.join(self.directory, digest)

    # -- read path -----------------------------------------------------------

    def get(self, key):
        """The decoded artifact for ``key``, arrays mmapped; None on miss."""
        from repro.obs.metrics import METRICS

        obj = self._load(key)
        if obj is None:
            self.misses += 1
            METRICS.counter("artifacts.misses").inc()
        else:
            self.hits += 1
            METRICS.counter("artifacts.hits").inc()
        return obj

    def _load(self, key):
        """Open and decode one artifact; corrupt entries are discarded
        and reported as misses, never raised (a truncated ``.npy`` from
        a killed writer must not poison a run)."""
        from repro.obs.metrics import METRICS

        directory = self.path(key)
        meta_path = os.path.join(directory, "meta.json")
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            arrays = {
                name: np.load(os.path.join(directory, name + ".npy"),
                              mmap_mode="r", allow_pickle=False)
                for name in meta["arrays"]
            }
            obj = decode(meta["codec"], meta["meta"], arrays)
        except FileNotFoundError:
            return None
        except Exception as exc:
            logger.warning("discarding corrupt artifact %s (%s: %s)",
                           directory, type(exc).__name__, exc)
            shutil.rmtree(directory, ignore_errors=True)
            METRICS.counter("artifacts.corrupt_entries").inc()
            return None
        # Touch for the LRU GC (best effort; never fails a read).
        try:
            os.utime(meta_path)
        except OSError:
            pass
        return obj

    def __contains__(self, key) -> bool:
        return os.path.exists(os.path.join(self.path(key), "meta.json"))

    # -- write path ----------------------------------------------------------

    def put(self, key, obj):
        """Spill ``obj`` once, atomically; returns the mmap-backed
        re-read (so even the generating process serves its input from
        the shared page cache).  Falls back to returning ``obj``
        unchanged if the store is unwritable -- artifacts accelerate
        runs, they never fail them."""
        from repro.obs.metrics import METRICS

        try:
            codec_name, meta, arrays = encode(obj)
        except TypeError:
            return obj  # no codec: the object simply is not storable
        directory = self.path(key)
        try:
            os.makedirs(self.directory, exist_ok=True)
            tmp = tempfile.mkdtemp(dir=self.directory, prefix=".tmp-")
            try:
                for name, array in arrays.items():
                    np.save(os.path.join(tmp, name + ".npy"),
                            np.ascontiguousarray(array),
                            allow_pickle=False)
                with open(os.path.join(tmp, "meta.json"), "w",
                          encoding="utf-8") as handle:
                    json.dump({"key": repr(key), "codec": codec_name,
                               "meta": meta,
                               "arrays": sorted(arrays)}, handle)
                os.rename(tmp, directory)
            except (OSError, ValueError):
                shutil.rmtree(tmp, ignore_errors=True)
                if not os.path.isdir(directory):  # lost a benign race?
                    raise
        except (OSError, ValueError) as exc:
            logger.warning("artifact store unwritable at %s (%s: %s)",
                           directory, type(exc).__name__, exc)
            METRICS.counter("artifacts.put_failures").inc()
            return obj
        METRICS.counter("artifacts.puts").inc()
        self.gc()
        reopened = self._load(key)
        return obj if reopened is None else reopened

    # -- inventory and GC ----------------------------------------------------

    def entries(self) -> "list[ArtifactEntry]":
        """Every artifact under the root, all fingerprints included."""
        found = []
        try:
            fingerprints = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return found
        for fp in fingerprints:
            fp_dir = os.path.join(self.root, fp)
            if not os.path.isdir(fp_dir):
                continue
            for name in sorted(os.listdir(fp_dir)):
                directory = os.path.join(fp_dir, name)
                meta_path = os.path.join(directory, "meta.json")
                if name.startswith(".tmp-") or not os.path.isfile(meta_path):
                    continue
                try:
                    with open(meta_path, "r", encoding="utf-8") as handle:
                        meta = json.load(handle)
                    nbytes = sum(
                        os.path.getsize(os.path.join(directory, f))
                        for f in os.listdir(directory)
                    )
                    found.append(ArtifactEntry(
                        path=directory, fingerprint=fp,
                        key=meta.get("key", "?"),
                        codec=meta.get("codec", "?"),
                        nbytes=nbytes,
                        mtime=os.path.getmtime(meta_path),
                    ))
                except (OSError, ValueError):
                    continue  # unreadable entry; GC will collect it
        return found

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.entries())

    def gc(self, cap_bytes: int = None) -> "list[ArtifactEntry]":
        """Evict least-recently-used artifacts until the store fits
        ``cap_bytes`` (stale-fingerprint entries go first); returns the
        evicted entries."""
        cap = self.cap_bytes if cap_bytes is None else cap_bytes
        entries = self.entries()
        total = sum(entry.nbytes for entry in entries)
        if total <= cap:
            return []
        # Oldest first; current-fingerprint entries sort after stale
        # ones of the same age so live inputs survive the longest.
        entries.sort(key=lambda e: (not e.stale, e.mtime))
        removed = []
        for entry in entries:
            if total <= cap:
                break
            shutil.rmtree(entry.path, ignore_errors=True)
            total -= entry.nbytes
            removed.append(entry)
        return removed

    def clear(self) -> None:
        """Remove every artifact under the root, all fingerprints."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.hits = 0
        self.misses = 0


# ---------------------------------------------------------------------------
# Default store and activation
# ---------------------------------------------------------------------------

_DEFAULT_STORES: dict = {}
_DEFAULT_LOCK = threading.Lock()


def default_store() -> Optional[ArtifactStore]:
    """The process-wide default store (None when disabled by env)."""
    if os.environ.get(ENV_NO_ARTIFACTS):
        return None
    root = default_artifact_dir()
    with _DEFAULT_LOCK:
        store = _DEFAULT_STORES.get(root)
        if store is None:
            store = _DEFAULT_STORES[root] = ArtifactStore(root=root)
    return store


def resolve_store(artifacts) -> Optional[ArtifactStore]:
    """Normalize a harness/CLI ``artifacts`` argument.

    None -> the env-resolved default store; True -> a fresh default
    store; False -> disabled; a string/path -> a store rooted there; an
    :class:`ArtifactStore` -> itself.
    """
    if artifacts is None:
        return default_store()
    if artifacts is False:
        return None
    if artifacts is True:
        return ArtifactStore()
    if isinstance(artifacts, (str, os.PathLike)):
        return ArtifactStore(root=os.fspath(artifacts))
    return artifacts


_ACTIVE = threading.local()


@contextmanager
def activated(store: Optional[ArtifactStore], ctx=None, memo: dict = None):
    """Scope in which :func:`current_store` resolves to ``store``.

    The harness wraps each ``workload.prepare`` call in this, so the
    BDGS input helpers (:mod:`repro.workloads.inputs`) see the store --
    and the profiling context, for ``artifact:*`` spans -- without
    threading either through every ``prepare`` signature.  Thread-local,
    so concurrent harnesses cannot observe each other's stores.

    ``memo`` maps dataset keys to the objects already served: within a
    scope each distinct data set is generated (or opened) once, with or
    without a store.  The harness passes a dict of its own so that the
    sharing spans all its ``prepare`` calls; the default lasts for this
    scope only.
    """
    previous = getattr(_ACTIVE, "scope", None)
    _ACTIVE.scope = (store, ctx, {} if memo is None else memo)
    try:
        yield store
    finally:
        _ACTIVE.scope = previous


def current_store() -> Optional[ArtifactStore]:
    """The store of the innermost :func:`activated` scope (None when no
    scope is active: bare ``prepare()`` calls never touch the disk)."""
    scope = getattr(_ACTIVE, "scope", None)
    return scope[0] if scope is not None else None


def current_memo() -> Optional[dict]:
    """The dataset memo of the innermost :func:`activated` scope (None
    when no scope is active: bare ``prepare()`` calls share nothing)."""
    scope = getattr(_ACTIVE, "scope", None)
    return scope[2] if scope is not None else None


def current_or_default_store() -> Optional[ArtifactStore]:
    """The active scope's store when one is active (honoring an explicit
    in-scope disable), else the process-wide default.

    The serving stream cache uses this: sweeps and CLI studies run
    *outside* any ``activated`` scope (the harness only scopes
    ``prepare``), but should still hit the machine-wide store.
    """
    scope = getattr(_ACTIVE, "scope", None)
    if scope is not None:
        return scope[0]
    return default_store()


_SERVING_STORES: dict = {}


def serving_store(base: ArtifactStore) -> ArtifactStore:
    """A store sharing ``base``'s root/cap but keyed under the
    serving-source fingerprint (see :func:`serving_fingerprint`)."""
    key = (base.root, base.cap_bytes)
    with _DEFAULT_LOCK:
        store = _SERVING_STORES.get(key)
        if store is None:
            store = _SERVING_STORES[key] = ArtifactStore(
                root=base.root, fingerprint=serving_fingerprint(),
                cap_bytes=base.cap_bytes)
    return store


def current_ctx():
    """The profiling context of the active scope (never None)."""
    from repro.uarch.perfctx import NULL_CONTEXT

    scope = getattr(_ACTIVE, "scope", None)
    ctx = scope[1] if scope is not None else None
    return NULL_CONTEXT if ctx is None else ctx
