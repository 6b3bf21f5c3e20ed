"""The workload registry: every Table 4 row, constructible by name.

Three tiers: :data:`WORKLOAD_CLASSES` is exactly the paper's 19 Table 4
rows (``workload_names`` and the figure/suite surfaces stay pinned to
them); :data:`STREAMING_CLASSES` (ids 20-22) and
:data:`SCENARIO_CLASSES` (ids 23-26, the multi-backend scenario plane)
are extension families -- resolvable through :func:`create` /
:func:`info` and the RunSpec/Harness path, listed by
:func:`streaming_names` / :func:`scenario_names`, but never mixed into
the paper tables.
"""

from __future__ import annotations

from repro.core.workload import Workload
from repro.errors import InputError
from repro.workloads import (
    AggregateQueryWorkload,
    BfsWorkload,
    CollaborativeFilteringWorkload,
    ConnectedComponentsWorkload,
    FeedWorkload,
    GrepWorkload,
    IndexWorkload,
    IotWorkload,
    JoinQueryWorkload,
    KmeansWorkload,
    NaiveBayesWorkload,
    NutchServerWorkload,
    OlioServerWorkload,
    OrdersWorkload,
    PageRankWorkload,
    ReadWorkload,
    RubisServerWorkload,
    ScanWorkload,
    SelectQueryWorkload,
    SortWorkload,
    StreamingGrepWorkload,
    StreamingSessionsWorkload,
    StreamingWordCountWorkload,
    WordCountWorkload,
    WriteWorkload,
    YcsbWorkload,
)

#: All 19 workload classes, keyed by their Table 4 names.
WORKLOAD_CLASSES = {
    cls.info.name: cls
    for cls in (
        SortWorkload, GrepWorkload, WordCountWorkload, BfsWorkload,
        ReadWorkload, WriteWorkload, ScanWorkload,
        SelectQueryWorkload, AggregateQueryWorkload, JoinQueryWorkload,
        NutchServerWorkload, PageRankWorkload, IndexWorkload,
        OlioServerWorkload, KmeansWorkload, ConnectedComponentsWorkload,
        RubisServerWorkload, CollaborativeFilteringWorkload,
        NaiveBayesWorkload,
    )
}

#: The streaming extension family (see :mod:`repro.workloads.streaming`).
STREAMING_CLASSES = {
    cls.info.name: cls
    for cls in (
        StreamingWordCountWorkload, StreamingGrepWorkload,
        StreamingSessionsWorkload,
    )
}

#: The multi-backend scenario family (see :mod:`repro.workloads.scenarios`).
SCENARIO_CLASSES = {
    cls.info.name: cls
    for cls in (
        YcsbWorkload, OrdersWorkload, FeedWorkload, IotWorkload,
    )
}

#: Every extension registry, searched after Table 4.
_EXTENSION_REGISTRIES = (STREAMING_CLASSES, SCENARIO_CLASSES)


class UnknownWorkloadError(InputError, KeyError):
    """Raised for a workload name not in Table 4 (or its extensions).

    Subclasses both InputError (it is a bad argument -- the message
    lists every valid choice) and KeyError (the registry is a mapping,
    and long-standing callers catch the lookup that way).
    """

    def __init__(self, name: str):
        known = ", ".join(all_names())
        super().__init__(f"unknown workload {name!r}; known: {known}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def workload_names() -> list:
    """The 19 names in Table 6 order."""
    return sorted(WORKLOAD_CLASSES, key=lambda n: WORKLOAD_CLASSES[n].info.workload_id)


def streaming_names() -> list:
    """The streaming extension family, in workload-id order."""
    return sorted(STREAMING_CLASSES,
                  key=lambda n: STREAMING_CLASSES[n].info.workload_id)


def scenario_names() -> list:
    """The multi-backend scenario family, in workload-id order."""
    return sorted(SCENARIO_CLASSES,
                  key=lambda n: SCENARIO_CLASSES[n].info.workload_id)


def all_names() -> list:
    """Every constructible name: Table 6 order, then the extensions."""
    return workload_names() + streaming_names() + scenario_names()


def create(name: str, **kwargs) -> Workload:
    """Instantiate a workload by its Table 4 (or extension) name.

    An unknown name fails fast with :class:`UnknownWorkloadError` --
    callers building a :class:`~repro.core.runspec.RunSpec` get the
    valid choices immediately instead of a deep registry KeyError.
    """
    cls = _lookup(name)
    if cls is None:
        raise UnknownWorkloadError(name)
    return cls(**kwargs)


def info(name: str):
    """The Table 4 metadata row of one workload."""
    cls = _lookup(name)
    return cls.info if cls is not None else create(name)


def _lookup(name: str):
    cls = WORKLOAD_CLASSES.get(name)
    if cls is not None:
        return cls
    for registry in _EXTENSION_REGISTRIES:
        cls = registry.get(name)
        if cls is not None:
            return cls
    return None


def by_app_type(app_type: str) -> list:
    """Workload names of one application type (Section 4.1)."""
    return [n for n in workload_names()
            if WORKLOAD_CLASSES[n].info.app_type == app_type]


def analytics_names() -> list:
    """Workloads measured in DPS (offline + realtime analytics)."""
    return [n for n in workload_names()
            if WORKLOAD_CLASSES[n].info.metric == "DPS"]


def service_names() -> list:
    """Workloads measured in RPS (online services)."""
    return [n for n in workload_names()
            if WORKLOAD_CLASSES[n].info.metric == "RPS"]


def oltp_names() -> list:
    """Workloads measured in OPS (Cloud OLTP)."""
    return [n for n in workload_names()
            if WORKLOAD_CLASSES[n].info.metric == "OPS"]
