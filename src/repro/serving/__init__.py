"""Online-serving framework: load generation, replay, queueing, and the
three servers (Nutch search, Olio social events, Rubis auctions).

The serving API is the :class:`LoadProfile` / :class:`ServingRun` /
:func:`run_serving` triple (see :mod:`repro.serving.slo`): a frozen load
description drives a timestamped arrival stream through the cluster's
per-node queues and reports tail-latency SLOs.  The legacy
:class:`ServingSimulation` analytic path still works (one release, with
a ``DeprecationWarning``) and the ``mm_c`` queueing model it sampled
remains exported as the validation baseline.
"""

from repro.serving.load import (
    ArrivalStream,
    LoadProfile,
    ServingOptions,
    generate_stream,
)
from repro.serving.nutch import InvertedIndex, NutchServer
from repro.serving.olio import OlioServer
from repro.serving.queueing import QueueingResult, mm_c
from repro.serving.rubis import RubisServer
from repro.serving.simulation import Server, ServingResult, ServingSimulation
from repro.serving.slo import (
    AUTOSCALE_NODES,
    ServingRun,
    SLOReport,
    autoscale_sweep,
    measure_demand,
    run_serving,
)
from repro.serving.vector import (
    REQUEST_DTYPE,
    RequestArena,
    replay,
)

__all__ = [
    "AUTOSCALE_NODES",
    "ArrivalStream",
    "InvertedIndex",
    "LoadProfile",
    "NutchServer",
    "OlioServer",
    "QueueingResult",
    "REQUEST_DTYPE",
    "RequestArena",
    "RubisServer",
    "SLOReport",
    "Server",
    "ServingOptions",
    "ServingResult",
    "ServingRun",
    "ServingSimulation",
    "autoscale_sweep",
    "generate_stream",
    "measure_demand",
    "mm_c",
    "replay",
    "run_serving",
]
