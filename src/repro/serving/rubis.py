"""Rubis-like auction server (e-commerce domain, Apache+JBoss+MySQL).

Serves the classic RUBiS auction mix -- browse categories, view items,
bid, view user profiles -- against item/bid/user tables derived from the
e-commerce transaction data.  Bids concentrate on hot items (auction
sniping), giving the store a skewed write pattern.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.table import ECommerceData
from repro.keyed import sort_group
from repro.serving.simulation import Server


class RubisServer(Server):
    """The auction application server plus its database."""

    name = "Rubis Server"

    #: JBoss EJB path: heavyweight per-request processing.
    effective_cpi = 3.8

    MIX = (
        ("browse_category", 0.35),
        ("view_item", 0.35),
        ("place_bid", 0.15),
        ("view_user", 0.15),
    )

    NUM_CATEGORIES = 20

    def __init__(self, data: ECommerceData, seed: int = 0):
        rng = np.random.default_rng(seed)
        items = data.items
        self.num_items = items.num_rows
        if self.num_items == 0:
            raise ValueError("auction needs a non-empty item table")
        self.num_users = int(data.orders.column("BUYER_ID").max()) + 1
        self.item_price = items.column("GOODS_PRICE").astype(np.float64)
        self.item_category = rng.integers(0, self.NUM_CATEGORIES, size=self.num_items)
        self.bid_counts = np.zeros(self.num_items, dtype=np.int64)
        self.high_bid = self.item_price.copy()
        # Hot items attract most bids (Zipf over item rank).
        pop = np.arange(1, self.num_items + 1, dtype=np.float64) ** -1.1
        self._item_cdf = np.cumsum(pop / pop.sum())
        self._ops = [op for op, _ in self.MIX]
        self._probs = np.array([p for _, p in self.MIX])
        sorted_category, self._category_index = sort_group(self.item_category)
        self._category_starts = np.searchsorted(
            sorted_category, np.arange(self.NUM_CATEGORIES))
        self._db_hot = 1e-4  # refreshed per request in handle()

    def dataset_bytes(self) -> int:
        # Items ~512 B, users ~1 KB, bids ~64 B each (growing).
        return int(self.num_items * 512 + self.num_users * 1024
                   + self.bid_counts.sum() * 64)

    def handle(self, rng: np.random.Generator, ctx) -> str:
        self._db_hot = self.touch_db(ctx, "rubis:db")
        op = self._ops[int(rng.choice(len(self._ops), p=self._probs))]
        getattr(self, f"_{op}")(rng, ctx)
        return op

    def _hot_item(self, rng) -> int:
        return int(np.searchsorted(self._item_cdf, rng.random()))

    # -- request handlers -------------------------------------------------------

    def _browse_category(self, rng, ctx) -> None:
        """Paged listing of one category: an index-range scan."""
        category = int(rng.integers(0, self.NUM_CATEGORIES))
        start = self._category_starts[category]
        end = (
            self._category_starts[category + 1]
            if category + 1 < self.NUM_CATEGORIES else self.num_items
        )
        page = min(25, max(1, end - start))
        ctx.seq_read("rubis:db", 512 * page)
        ctx.skewed_read("rubis:db", 20 * page,
                        hot_fraction=self._db_hot, hot_prob=0.97)
        ctx.int_ops(2_100_000 + 26_000 * page)
        ctx.branch_ops(640_000 + 4_000 * page)
        ctx.fp_ops(17_000)
        ctx.seq_write("rubis:response", 6144)

    def _view_item(self, rng, ctx) -> None:
        item = self._hot_item(rng)
        bids_shown = min(10, int(self.bid_counts[item]))
        ctx.skewed_read("rubis:db", 50 + 10 * bids_shown,
                        hot_fraction=self._db_hot, hot_prob=0.97)
        ctx.int_ops(1_650_000 + 12_000 * max(1, bids_shown))
        ctx.branch_ops(500_000)
        ctx.fp_ops(14_000)
        ctx.seq_write("rubis:response", 5120)

    def _place_bid(self, rng, ctx) -> None:
        """Transactional write: read-check-update on a hot row."""
        item = self._hot_item(rng)
        increment = 1.0 + float(rng.random()) * 5.0
        self.high_bid[item] += increment
        self.bid_counts[item] += 1
        ctx.skewed_read("rubis:db", 40,  # row read + index
                        hot_fraction=self._db_hot, hot_prob=0.97)
        ctx.rand_write("rubis:db", 60)   # bid row, item update, indexes
        ctx.seq_write("rubis:log", 384)  # redo log
        ctx.int_ops(3_100_000)
        ctx.branch_ops(940_000)
        ctx.fp_ops(24_000)

    def _view_user(self, rng, ctx) -> None:
        ctx.skewed_read("rubis:db", 80,
                        hot_fraction=self._db_hot, hot_prob=0.97)
        ctx.int_ops(1_300_000)
        ctx.branch_ops(390_000)
        ctx.fp_ops(11_000)
        ctx.seq_write("rubis:response", 4096)
