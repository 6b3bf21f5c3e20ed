"""The online-service backend interface.

A :class:`Server` owns its backing data and handles one request at a
time, charging the profiler for everything the request path does.
:func:`repro.serving.slo.measure_demand` samples it to derive the mean
per-request service demand that the replay consumes.
"""

from __future__ import annotations

import numpy as np

from repro.uarch.codemodel import SERVER_STACK


class Server:
    """Base class for the online-service backends."""

    name = "server"
    code_profile = SERVER_STACK

    #: Effective CPI of the request path (deep stack, poor locality).
    effective_cpi = 1.4

    #: Our backing data stands for a ~1000x larger production database;
    #: DB regions are declared at that scale (DESIGN.md, substitution 3).
    DB_SCALE = 1000

    #: RAM-hot working set of the database (indexes + buffer pool head).
    DB_HOT_BYTES = 8 * 1024 * 1024

    #: Short-lived allocation per request (request/response objects,
    #: string copies, template buffers).  It sweeps a young region bigger
    #: than L2 but L3-resident: the source of the high L2 MPKI the paper
    #: measures for online services (avg 40, except Nutch at 4.1).
    REQUEST_CHURN_BYTES = 5 * 1024 * 1024

    #: Request mix ``((operation, probability), ...)`` -- the load
    #: generator draws request kinds from this distribution when
    #: building arrival streams.  Subclasses with a real mix override.
    MIX = (("request", 1.0),)

    def touch_db(self, ctx, region: str) -> float:
        """Declare the paper-scale DB region; return its hot fraction."""
        declared = max(1, self.dataset_bytes() * self.DB_SCALE)
        ctx.touch(region, declared)
        return max(1e-7, min(1.0, self.DB_HOT_BYTES / declared))

    def charge_request_churn(self, ctx, requests: int = 1) -> None:
        """Allocation churn of ``requests`` requests through the young
        generation (batched by the simulation loop for speed)."""
        if self.REQUEST_CHURN_BYTES <= 0 or requests <= 0:
            return
        nbytes = self.REQUEST_CHURN_BYTES * requests
        ctx.touch("server:young", 6 * 1024 * 1024)
        ctx.seq_write("server:young", nbytes, elem=16)
        ctx.seq_read("server:young", nbytes * 0.6, elem=16)

    def handle(self, rng: np.random.Generator, ctx) -> str:
        """Serve one request; return the request type served."""
        raise NotImplementedError

    def dataset_bytes(self) -> int:
        """Real size of the server's backing data."""
        raise NotImplementedError
