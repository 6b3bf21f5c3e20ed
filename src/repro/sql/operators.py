"""Physical query operators: scan, filter, project, aggregate, join.

Operators are vectorized over whole column batches (the columnar
execution style of Impala/Shark, the paper's realtime-analytics stacks)
and charge the profiler for their row-by-row work: predicate branches,
hash-table builds and probes, aggregation updates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.datagen.table import Table
from repro.keyed import sort_group

_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Param:
    """The ``index``-th ``?`` of a statement, counted from 0."""

    index: int


@dataclass(frozen=True)
class Predicate:
    """``column <op> literal`` filter condition; the literal of a
    prepared statement is a :class:`Param` until an execution binds it."""

    column: str
    op: str
    literal: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unsupported comparator {self.op!r}")

    def mask(self, table: Table, params=()) -> np.ndarray:
        literal = self.literal
        if type(literal) is Param:
            try:
                literal = params[literal.index]
            except IndexError:
                raise ValueError(
                    f"parameter {literal.index} is not bound") from None
        return _COMPARATORS[self.op](table.columns[self.column], literal)


def scan(name: str, table: Table, columns: list, nbytes: int, ctx,
         region: str) -> Table:
    """Columnar scan: read only the touched columns, into a table
    called ``name`` (the name the source is registered under)."""
    source = table.columns
    rows = table.num_rows
    touched_fraction = len(columns) / max(1, len(source))
    ctx.seq_read(region, nbytes * touched_fraction, elem=8)
    # Hive-style per-row executor overhead: object inspectors, SerDe,
    # plus one row-object allocation swept through the young generation.
    ctx.int_ops(420 * rows * len(columns))
    ctx.branch_ops(140 * rows)
    ctx.fp_ops(7 * rows)
    ctx.touch("sql:young", 4 * 1024 * 1024)
    ctx.seq_write("sql:young", 420 * rows, elem=16)
    return Table(name, {c: source[c] for c in columns})


def filter_rows(table: Table, predicates: list, ctx, params=()) -> Table:
    """Apply conjunctive predicates."""
    if not predicates:
        return table
    rows = table.num_rows
    mask = None
    for predicate in predicates:
        matched = predicate.mask(table, params)
        mask = matched if mask is None else mask & matched
        ctx.int_ops(340 * rows)
        ctx.branch_ops(110 * rows)
        ctx.fp_ops(3 * rows)
    return Table(table.name, {n: c[mask] for n, c in table.columns.items()})


def project(table: Table, columns: list, ctx) -> Table:
    ctx.int_ops(len(columns) * table.num_rows * 30)
    source = table.columns
    return Table(table.name, {c: source[c] for c in columns})


@dataclass(frozen=True)
class Aggregate:
    """One aggregate expression: ``func(column) AS alias``."""

    func: str       # count / sum / avg / min / max
    column: str     # "*" for count(*)
    alias: str

    _IMPLS = {
        "sum": np.add.reduceat,
        "min": np.minimum.reduceat,
        "max": np.maximum.reduceat,
    }

    def apply(self, values: np.ndarray, starts: np.ndarray, counts: np.ndarray):
        if self.func == "count":
            return counts.astype(np.int64)
        if self.func == "avg":
            return np.add.reduceat(values, starts) / counts
        try:
            return self._IMPLS[self.func](values, starts)
        except KeyError:
            raise ValueError(f"unsupported aggregate {self.func!r}") from None


def hash_aggregate(table: Table, group_by: list, aggregates: list, ctx,
                   region: str) -> Table:
    """Group-by via sort-based grouping with hash-table cost accounting."""
    rows = table.num_rows
    ctx.touch(region, max(1 << 16, rows * 16))
    # Group keys are Zipf-skewed (popular goods, frequent buyers), so the
    # hash-table upserts concentrate on hot buckets.
    ctx.skewed_write(region, rows, hot_fraction=0.08, hot_prob=0.85)
    ctx.int_ops(420 * rows * max(1, len(group_by) + len(aggregates)))
    ctx.branch_ops(130 * rows)
    ctx.fp_ops(8 * rows * max(1, len(aggregates)))

    if not group_by:
        out = {}
        if rows == 0:
            # SQL over an empty relation: COUNT is 0; SUM folds to 0;
            # MIN/MAX have no witness (NaN stands in for NULL).
            for agg in aggregates:
                if agg.func == "count":
                    out[agg.alias] = np.array([0], dtype=np.int64)
                elif agg.func == "sum":
                    out[agg.alias] = np.array([0.0])
                else:
                    out[agg.alias] = np.array([np.nan])
            return Table("result", out)
        counts = np.array([rows], dtype=np.int64)
        starts = np.array([0], dtype=np.int64)
        for agg in aggregates:
            values = table.column(agg.column) if agg.column != "*" else np.zeros(rows)
            out[agg.alias] = agg.apply(values, starts, counts)
        return Table("result", out)

    key_cols = [table.column(c) for c in group_by]
    order = np.lexsort(key_cols[::-1])
    sorted_keys = [c[order] for c in key_cols]
    change = np.zeros(rows, dtype=bool)
    if rows:
        change[0] = True
        for col in sorted_keys:
            change[1:] |= col[1:] != col[:-1]
    starts = np.nonzero(change)[0]
    counts = np.diff(np.append(starts, rows))
    out = {}
    for name, col in zip(group_by, sorted_keys):
        out[name] = col[starts]
    for agg in aggregates:
        values = (
            table.column(agg.column)[order] if agg.column != "*"
            else np.zeros(rows)
        )
        out[agg.alias] = agg.apply(values, starts, counts)
    return Table("result", out)


def hash_join(left: Table, right: Table, left_key: str, right_key: str, ctx,
              region: str) -> Table:
    """Inner equi-join: build on the smaller side, probe with the larger."""
    build, probe = (left, right) if left.num_rows <= right.num_rows else (right, left)
    build_key = left_key if build is left else right_key
    probe_key = right_key if build is left else left_key

    ctx.touch(region, max(1 << 16, build.num_rows * 24))
    ctx.rand_write(region, build.num_rows)     # build side inserts
    # Probe keys follow the fact table's skew: hot build rows stay cached.
    ctx.skewed_read(region, probe.num_rows, hot_fraction=0.1, hot_prob=0.8)
    ctx.int_ops(520 * (build.num_rows + probe.num_rows))
    ctx.branch_ops(160 * probe.num_rows)
    ctx.fp_ops(3 * probe.num_rows)

    build_keys = build.column(build_key)
    probe_keys = probe.column(probe_key)
    sorted_build, order = sort_group(build_keys)
    left_idx = np.searchsorted(sorted_build, probe_keys, side="left")
    right_idx = np.searchsorted(sorted_build, probe_keys, side="right")
    match_counts = right_idx - left_idx
    probe_rows = np.repeat(np.arange(probe.num_rows), match_counts)
    build_positions = _expand_ranges(left_idx, right_idx)
    build_rows = order[build_positions]

    columns = {}
    for name, col in build.columns.items():
        columns[f"{build.name}.{name}"] = col[build_rows]
    for name, col in probe.columns.items():
        columns[f"{probe.name}.{name}"] = col[probe_rows]
    return Table("join", columns)


def _expand_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenate arange(start, stop) for each pair, vectorized."""
    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_starts = np.zeros(len(starts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out_starts[1:])
    indices = np.arange(total, dtype=np.int64)
    offsets = indices - np.repeat(out_starts, counts)
    return np.repeat(starts, counts) + offsets
