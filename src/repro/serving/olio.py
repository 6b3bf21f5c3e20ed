"""Olio-like social-events server (social network domain, Apache+MySQL).

Serves a Web 2.0 event-site mix -- home timelines, event pages, person
pages, event creation -- against user/event/attendance tables.  Request
paths are dominated by random accesses across the whole database working
set, which is why the paper measures online services like Olio with the
*highest* L2 MPKI of the suite.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.graph import Graph
from repro.serving.server import Server


class OlioServer(Server):
    """The social-events application server plus its database."""

    name = "Olio Server"

    #: Olio's request path is interpreted web code (PHP/Rails): far more
    #: cycles per instruction than compiled services, which is what puts
    #: its saturation point inside the paper's 100..3200 req/s sweep.
    effective_cpi = 4.2

    #: Request mix: (operation, probability).
    MIX = (
        ("home_timeline", 0.45),
        ("event_detail", 0.30),
        ("person_page", 0.15),
        ("add_event", 0.10),
    )

    def __init__(self, social_graph: Graph, num_events: int = 20000,
                 seed: int = 0):
        if num_events <= 0:
            raise ValueError("num_events must be positive")
        rng = np.random.default_rng(seed)
        self.graph = social_graph
        self.num_users = social_graph.num_nodes
        self.num_events = num_events
        # Events reference creators; attendance links users to events.
        self.event_creator = rng.integers(0, self.num_users, size=num_events)
        self.event_time = np.sort(rng.integers(0, 1 << 30, size=num_events))
        attendance = max(1, 5 * num_events)
        self.attendance_user = rng.integers(0, self.num_users, size=attendance)
        self.attendance_event = rng.integers(0, num_events, size=attendance)
        self._adj = social_graph.symmetrized().adjacency()
        self._ops = [op for op, _ in self.MIX]
        self._probs = np.array([p for _, p in self.MIX])
        self._added_events = 0
        self._db_hot = 1e-4  # refreshed per request in handle()

    def dataset_bytes(self) -> int:
        # Profiles ~2 KB/user, events ~1 KB, attendance rows ~32 B.
        return (self.num_users * 2048 + self.num_events * 1024
                + len(self.attendance_user) * 32)

    def handle(self, rng: np.random.Generator, ctx) -> str:
        self._db_hot = self.touch_db(ctx, "olio:db")
        op = self._ops[int(rng.choice(len(self._ops), p=self._probs))]
        handler = getattr(self, f"_{op}")
        handler(rng, ctx)
        return op

    # -- request handlers -------------------------------------------------------

    def _home_timeline(self, rng, ctx) -> None:
        """Recent events by the user's friends: graph hop + event fetch."""
        user = int(rng.integers(0, self.num_users))
        indptr, indices = self._adj
        friends = indices[indptr[user]:indptr[user + 1]]
        shown = friends[:25]
        # Friend rows + their recent events: scattered point reads.
        ctx.skewed_read("olio:db", 40 * (1 + len(shown)),
                        hot_fraction=self._db_hot, hot_prob=0.97)
        recent = np.searchsorted(self.event_time, self.event_time[-1] - (1 << 20))
        page = min(20, self.num_events - recent) if recent < self.num_events else 0
        ctx.skewed_read("olio:db", 30 * max(page, 1),
                        hot_fraction=self._db_hot, hot_prob=0.97)
        ctx.int_ops(2_300_000 + 22_000 * len(shown))
        ctx.branch_ops(720_000 + 6_000 * len(shown))
        ctx.fp_ops(19_000)  # template math, timestamps
        ctx.seq_write("olio:response", 4096)

    def _event_detail(self, rng, ctx) -> None:
        """One event page: event row, creator, attendee sample, comments."""
        event = int(rng.integers(0, self.num_events))
        attending = int((self.attendance_event == event).sum() % 50)
        ctx.skewed_read("olio:db", 60 + 20 * max(attending, 1),
                        hot_fraction=self._db_hot, hot_prob=0.97)
        ctx.int_ops(1_700_000 + 15_000 * max(attending, 1))
        ctx.branch_ops(540_000)
        ctx.fp_ops(15_000)
        ctx.seq_write("olio:response", 8192)

    def _person_page(self, rng, ctx) -> None:
        user = int(rng.integers(0, self.num_users))
        indptr, _ = self._adj
        degree = int(indptr[user + 1] - indptr[user])
        ctx.skewed_read("olio:db", 50 + 10 * min(degree, 30),
                        hot_fraction=self._db_hot, hot_prob=0.97)
        ctx.int_ops(1_400_000 + 8_000 * min(degree, 30))
        ctx.branch_ops(430_000)
        ctx.fp_ops(12_000)
        ctx.seq_write("olio:response", 4096)

    def _add_event(self, rng, ctx) -> None:
        ctx.rand_write("olio:db", 80)
        ctx.seq_write("olio:log", 512)
        ctx.int_ops(2_900_000)
        ctx.branch_ops(860_000)
        ctx.fp_ops(22_000)
        self._added_events += 1
