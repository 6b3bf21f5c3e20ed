"""The SQL front end, and the columnar engine that lowers it in process.

Table 4's relational queries run on three executors: the in-process
columnar engine here (:class:`SqlEngine`; Impala, MySQL), Hive's
MapReduce jobs (:mod:`repro.sql.hive_exec`) and Shark's Spark stages
(:mod:`repro.sql.shark_exec`).  All three share one front end: table
registration, parsing, binding, the ``sql:query`` span with its
statistics, and the answer of a global aggregate over an empty relation.
They differ only in how they lower the bound plan, and what that costs.

A statement is parsed once (:meth:`SqlEngine.prepare`) and *bound* once:
:meth:`SqlEngine.run_plan` resolves its column references against the
registered schemas, keeps the result on the statement, and binds again
only after a table it scans was registered with other columns.
``execute(sql)`` is ``run_plan(prepare(sql))``, so a statement with its
literals inline and one run with ``?`` parameters execute the same code.

Registered tables carry their *real* serialized byte size so scans charge
proportionate IO.  The columnar engine runs scan -> join -> filter ->
aggregate/project, all under the database code profile.  Per-query
statistics feed the realtime-analytics metrics.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.cluster.node import PAPER_CLUSTER
from repro.cluster.timemodel import JobCost
from repro.datagen.table import Table
from repro.keyed import sort_group
from repro.obs.metrics import METRICS
from repro.sql import operators
from repro.sql.parser import Query, SqlError, parse
from repro.uarch.codemodel import DATABASE_STACK
from repro.uarch.perfctx import context_or_null


@dataclass
class QueryStats:
    """Execution statistics of one query."""

    rows_scanned: int = 0
    rows_joined: int = 0
    rows_filtered: int = 0
    rows_out: int = 0
    input_bytes: float = 0.0
    tables: list = field(default_factory=list)
    #: Scan fragments re-executed after an injected executor crash.
    fragments_retried: int = 0


@dataclass
class QueryResult:
    table: Table
    stats: QueryStats
    cost: JobCost

    @property
    def num_rows(self) -> int:
        return self.table.num_rows


#: Our tables stand for 8192x more data (32 GB at paper scale).
PAPER_TABLE_RATIO = 8192


@dataclass
class _Registered:
    table: Table
    nbytes: int
    #: The column names, in order: what statements bind against.
    schema: tuple


@dataclass(frozen=True)
class _Side:
    """One scanned table of a bound statement."""

    name: str        # the registration name
    schema: tuple    # the registered schema this side was bound against
    needed: list     # the columns the statement touches
    region: str      # "sql:table:<name>"
    site: str        # "sql:scan:<name>": the scan's span and fault site


@dataclass(frozen=True)
class _Plan:
    """A statement bound to registered schemas: everything about its
    execution that does not depend on the rows or the parameters.  It
    stands for as long as every side's table is registered with the
    schema it was bound against."""

    sides: tuple            # the FROM table, then the JOIN table if any
    join_keys: tuple        # (FROM side's key, JOIN side's key) or None
    predicates: list        # resolved Predicate items
    aggregates: list        # resolved Aggregate items
    group_by: list
    projection: list        # the columns of a non-aggregate statement


class _FrontEnd:
    """What every executor shares: registration, parsing, binding and the
    ``sql:query`` span.  An executor gives :meth:`_metered` (the ledger
    its lowering charges) and :meth:`_lower` (the bound plan to a table)."""

    def __init__(self, ctx=None, cluster=None):
        self.ctx = context_or_null(ctx)
        self.cluster = cluster or PAPER_CLUSTER
        self._tables: dict = {}

    def register(self, name: str, table: Table, nbytes: int) -> None:
        """Register ``table`` under ``name`` with its real serialized size."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._tables[name] = _Registered(
            table=table, nbytes=nbytes, schema=tuple(table.columns))

    def prepare(self, sql: str) -> Query:
        """Parse one statement; ``?`` stands for a predicate literal that
        each :meth:`run_plan` call supplies."""
        METRICS.counter("sql.statements_parsed").inc()
        return parse(sql)

    def execute(self, sql: str) -> QueryResult:
        """Parse and run one query."""
        return self.run_plan(self.prepare(sql))

    def run_plan(self, query: Query, params=()) -> QueryResult:
        """Run a parsed statement with ``params`` for its ``?``s, binding
        it to the registered schemas first unless its plan still stands."""
        if len(params) != query.params:
            raise SqlError(f"statement takes {query.params} parameter(s), "
                           f"got {len(params)}")
        plan = self._bound(query)
        self._check(query, plan)
        stats = QueryStats()
        with self._metered(stats) as ledger:
            with self.ctx.span("sql:query", category="sql") as sp:
                result = self._lower(plan, params, stats, ledger)
                if plan.aggregates and not plan.group_by \
                        and not result.num_rows:
                    result = _over_empty(plan.aggregates)
                stats.rows_out = result.num_rows
                sp.set("rows_scanned", stats.rows_scanned)
                sp.set("rows_out", stats.rows_out)
        METRICS.counter("sql.queries").inc()
        METRICS.counter("sql.rows_scanned").inc(stats.rows_scanned)
        METRICS.counter("sql.input_bytes").inc(stats.input_bytes)
        return QueryResult(table=result, stats=stats, cost=ledger.job)

    def _check(self, query: Query, plan: _Plan) -> None:
        """Raise :class:`SqlError` for a statement this executor cannot run."""

    # -- binding -----------------------------------------------------------------

    def _bound(self, query: Query) -> _Plan:
        """The statement's plan: the one it carries if that still stands,
        a fresh binding (kept on the statement) otherwise."""
        plan = query.plan
        if plan is not None:
            for side in plan.sides:
                registered = self._tables.get(side.name)
                if registered is None or registered.schema != side.schema:
                    break
            else:
                return plan
        plan = query.plan = self._bind(query)
        return plan

    def _bind(self, query: Query) -> _Plan:
        joined = query.join is not None
        sides = [self._bind_side(query, query.table, joined)]
        join_keys = None
        if joined:
            sides.append(self._bind_side(query, query.join.table, joined))
            left_key = self._resolve(query, query.join.left_column, joined)
            right_key = self._resolve(query, query.join.right_column, joined)
            # Keys are qualified "<table>.<col>"; split per side.
            base_key = (left_key if left_key.split(".")[0] == sides[0].name
                        else right_key)
            other_key = right_key if base_key is left_key else left_key
            join_keys = (base_key.split(".", 1)[1], other_key.split(".", 1)[1])
        predicates = [
            operators.Predicate(
                column=self._resolve(query, p.column, joined),
                op=p.op, literal=p.literal,
            )
            for p in query.where
        ]
        aggregates, group_by, projection = [], [], []
        if query.is_aggregate:
            aggregates = [
                operators.Aggregate(
                    func=a.func,
                    column=(a.column if a.column == "*"
                            else self._resolve(query, a.column, joined)),
                    alias=a.alias,
                )
                for a in query.aggregates
            ]
            group_by = [self._resolve(query, g, joined) for g in query.group_by]
        else:
            projection = [self._resolve(query, c, joined)
                          for c in query.select_columns]
        METRICS.counter("sql.plans_bound").inc()
        return _Plan(sides=tuple(sides), join_keys=join_keys,
                     predicates=predicates, aggregates=aggregates,
                     group_by=group_by, projection=projection)

    def _bind_side(self, query: Query, ref, joined: bool) -> _Side:
        registered = self._lookup(ref.name)
        return _Side(
            name=ref.name, schema=registered.schema,
            needed=self._columns_for(query, ref, registered.table, joined),
            region=f"sql:table:{ref.name}", site=f"sql:scan:{ref.name}")

    def _columns_for(self, query: Query, ref, table: Table, joined: bool) -> list:
        """Columns of ``ref``'s table the query touches."""
        wanted = set()

        def note(raw: str) -> None:
            if raw == "*":
                return
            if "." in raw:
                alias, column = raw.split(".", 1)
                if alias in (ref.alias, ref.name):
                    wanted.add(column)
            elif not joined:
                wanted.add(raw)  # validated against the schema below

        for column in query.select_columns:
            note(column)
        for aggregate in query.aggregates:
            note(aggregate.column)
        for predicate in query.where:
            note(predicate.column)
        for column in query.group_by:
            note(column)
        if query.join is not None:
            note(query.join.left_column)
            note(query.join.right_column)
        unknown = [c for c in wanted if c not in table.columns]
        if unknown:
            raise SqlError(f"unknown column(s) {unknown} in table {ref.name!r}")
        return sorted(wanted) if wanted else list(table.columns)

    def _resolve(self, query: Query, raw: str, joined: bool) -> str:
        """Map a (possibly alias-qualified) reference to an output column."""
        if not joined:
            return raw.split(".", 1)[1] if "." in raw else raw
        if "." in raw:
            alias, column = raw.split(".", 1)
            name = self._alias_to_name(query, alias)
            return f"{name}.{column}"
        raise SqlError(f"column {raw!r} must be qualified in a join query")

    def _alias_to_name(self, query: Query, alias: str) -> str:
        for ref in filter(None, [query.table, query.join.table if query.join else None]):
            if alias in (ref.alias, ref.name):
                return ref.name
        raise SqlError(f"unknown table alias {alias!r}")

    def _lookup(self, name: str) -> _Registered:
        try:
            return self._tables[name]
        except KeyError:
            raise SqlError(f"table {name!r} is not registered") from None


def _over_empty(aggregates: list) -> Table:
    """A global aggregate over an empty relation: COUNT is 0; SUM folds
    to 0; MIN/MAX/AVG have no witness (NaN stands in for NULL)."""
    return Table("result", {
        a.alias: (np.array([0], dtype=np.int64) if a.func == "count"
                  else np.array([0.0 if a.func == "sum" else np.nan]))
        for a in aggregates})


class SqlEngine(_FrontEnd):
    """Executes bound plans on in-process columnar operators."""

    EFFECTIVE_CPI = 0.95

    #: Query planning/coordination overhead (paper-scale seconds).
    QUERY_FIXED_SECONDS = 1.5

    def __init__(self, ctx=None, cluster=None, faults=None):
        from repro.faults.inject import resolve_faults

        super().__init__(ctx, cluster)
        self.faults = resolve_faults(self.ctx, faults)

    @contextmanager
    def _metered(self, stats: QueryStats):
        """One ``query`` phase: the lowering's instructions, the bytes its
        scans read and the planning overhead."""
        ledger = CostLedger(self.cluster, ctx=self.ctx, cpi=self.EFFECTIVE_CPI)
        with ledger.measured(
                "query", fixed_seconds=self.QUERY_FIXED_SECONDS) as pending:
            yield ledger
            pending.disk_read_bytes = stats.input_bytes
            pending.working_bytes = stats.input_bytes

    def _lower(self, plan: _Plan, params, stats: QueryStats, ledger) -> Table:
        ctx = self.ctx
        with ctx.code(DATABASE_STACK):
            current = self._scan_side(plan.sides[0], stats)
            if plan.join_keys is not None:
                other = self._scan_side(plan.sides[1], stats)
                base_key, other_key = plan.join_keys
                with ctx.span("sql:join", category="sql") as sp:
                    current = operators.hash_join(
                        current, other, base_key, other_key, ctx,
                        region="sql:join",
                    )
                    stats.rows_joined = current.num_rows
                    sp.set("rows", stats.rows_joined)

            if plan.predicates:
                with ctx.span("sql:filter", category="sql",
                              predicates=len(plan.predicates)) as sp:
                    current = operators.filter_rows(
                        current, plan.predicates, ctx, params)
                    stats.rows_filtered = current.num_rows
                    sp.set("rows", stats.rows_filtered)

            if plan.aggregates:
                with ctx.span("sql:aggregate", category="sql",
                              groups=len(plan.group_by)):
                    return operators.hash_aggregate(
                        current, plan.group_by, plan.aggregates, ctx,
                        region="sql:agg"
                    )
            with ctx.span("sql:project", category="sql",
                          columns=len(plan.projection)):
                return operators.project(current, plan.projection, ctx)

    def _scan_side(self, side: _Side, stats: QueryStats) -> Table:
        ctx = self.ctx
        registered = self._tables[side.name]
        table, nbytes, needed = registered.table, registered.nbytes, side.needed
        rows = table.num_rows
        ctx.touch(side.region, nbytes * PAPER_TABLE_RATIO)
        # Joined sides keep qualified names so both sides can coexist:
        # the scanned table is called by the registration name.
        with ctx.span(side.site, category="sql", columns=len(needed)) as sp:
            scanned = operators.scan(side.name, table, needed, nbytes, ctx,
                                     region=side.region)
            sp.set("rows", rows)
        # Chaos: an executor running this scan fragment may crash; the
        # coordinator re-dispatches the fragment (the scan work and IO
        # are charged again) and the result is recomputed identically.
        faults = self.faults
        if faults.enabled:
            if faults.fires("task_crash", side.site) is not None:
                if faults.recovery:
                    with ctx.span("recovery:fragment_retry",
                                  category="faults"):
                        scanned = operators.scan(
                            side.name, table, needed, nbytes, ctx,
                            region=side.region)
                    stats.fragments_retried += 1
                    faults.recovered("fragment_retry", side.site, rows=rows)
                else:
                    # The in-process engine cannot actually destroy its
                    # tables; an unrecovered fragment crash fails the
                    # query in a real engine, recorded here as loss.
                    faults.lost("scan_fragment", side.site)
        stats.rows_scanned += rows
        stats.input_bytes += nbytes * (len(needed) / max(1, len(side.schema)))
        stats.tables.append(side.name)
        return scanned


@dataclass(frozen=True)
class _Part:
    """One scanned side of a staged statement, resolved to arrays."""

    name: str            # the registration name
    nbytes: int          # its registered size: a staged scan reads it all
    mask: np.ndarray     # the rows its WHERE predicates keep
    keys: np.ndarray     # int64 group or join keys (None for a select)
    values: np.ndarray   # float64 projected, folded or joined-through column


def _mask(table: Table, predicates: list, prefix: str = "") -> np.ndarray:
    """The rows of ``table`` every predicate on it keeps; in a join, the
    predicates on the side whose columns are qualified with ``prefix``."""
    mask = np.ones(table.num_rows, dtype=bool)
    for predicate in predicates:
        if predicate.column.startswith(prefix):
            mask &= replace(predicate,
                            column=predicate.column[len(prefix):]).mask(table)
    return mask


def _owner(column: str) -> str:
    """The registration name a join query's qualified column belongs to."""
    return column.split(".", 1)[0]


class _Staged(_FrontEnd):
    """The front end of the executors that lower a plan to framework
    stages (Hive's MapReduce jobs, Shark's Spark stages).

    It resolves the plan to arrays -- each side's WHERE mask, its group
    or join keys and values, the dim/fact split of a join -- and the
    executor lowers three shapes over them: ``_select(ledger, part)``
    gives the kept row positions in order, ``_fold(ledger, part, func)``
    one aggregate's ``(keys, values)`` per group in any order, and
    ``_join_sum(ledger, dim, fact)`` ``(joined pairs, keys, sums)``.  A
    scan reads its table's whole ``nbytes``: stages read rows, not columns.
    Stages shuffle on int64 keys and fold float64 values, so group and
    join keys must be integers; the answer takes the columns' dtypes back
    (exact while a sum of integers stays below 2**53).
    """

    def _check(self, query: Query, plan: _Plan) -> None:
        join_ok = plan.join_keys is None or (
            len(plan.aggregates) == 1 and plan.aggregates[0].func == "sum"
            and len(plan.group_by) == 1
            and _owner(plan.group_by[0]) != _owner(plan.aggregates[0].column))
        if query.params or len(plan.group_by) > 1 or not join_ok:
            raise SqlError(
                f"{type(self).__name__} runs one GROUP BY column, a JOIN only "
                "as join + one SUM + one GROUP BY with group and value on "
                "opposite sides, and no ? statement (columnar engine only)")
        keyed = [(side.name, key)
                 for side, key in zip(plan.sides, plan.join_keys or ())]
        keyed += [(plan.sides[0].name, g) if plan.join_keys is None
                  else tuple(g.split(".", 1)) for g in plan.group_by]
        for name, column in keyed:
            dtype = self._tables[name].table.column(column).dtype
            if dtype.kind not in "iu" or not np.can_cast(dtype, np.int64):
                raise SqlError(
                    f"{type(self).__name__} groups and joins on integer "
                    f"keys; {name}.{column} is {dtype}")

    @contextmanager
    def _metered(self, stats: QueryStats):
        """The jobs' phases, which the lowering absorbs as they run."""
        yield CostLedger(self.cluster, ctx=self.ctx)

    def _lower(self, plan: _Plan, params, stats: QueryStats, ledger) -> Table:
        scanned = []
        for side in plan.sides:
            registered = self._tables[side.name]
            stats.rows_scanned += registered.table.num_rows
            stats.input_bytes += registered.nbytes
            stats.tables.append(side.name)
            scanned.append(registered)
        if plan.join_keys is not None:
            return self._join(plan, scanned, stats, ledger)
        registered = scanned[0]
        table = registered.table
        mask = _mask(table, plan.predicates)
        if plan.predicates:
            stats.rows_filtered = int(mask.sum())

        def part(keys, column: str) -> _Part:
            values = (np.ones(table.num_rows) if column == "*"
                      else table.column(column).astype(np.float64))
            return _Part(plan.sides[0].name, registered.nbytes, mask, keys,
                         values)

        if not plan.aggregates:
            rows = self._select(ledger, part(None, plan.projection[0]))
            return Table("result", {c: table.column(c)[rows]
                                    for c in plan.projection})
        keys = (table.column(plan.group_by[0]).astype(np.int64)
                if plan.group_by else np.zeros(table.num_rows, dtype=np.int64))
        columns = {}
        for aggregate in plan.aggregates:
            groups, folded = sort_group(*self._fold(
                ledger, part(keys, aggregate.column), aggregate.func))
            if plan.group_by:
                columns.setdefault(plan.group_by[0], groups.astype(
                    table.column(plan.group_by[0]).dtype, copy=False))
            columns[aggregate.alias] = folded.astype(
                _folded_dtype(aggregate, table), copy=False)
        return Table("result", columns)

    def _join(self, plan: _Plan, scanned: list, stats: QueryStats,
              ledger) -> Table:
        """The dimension side holds the group column, the fact side the
        summed one; each side's predicates filter it before the join."""
        group, aggregate = plan.group_by[0], plan.aggregates[0]
        dim = 0 if plan.sides[0].name == _owner(group) else 1
        parts, dtypes = [], []
        for index, column in ((dim, group), (1 - dim, aggregate.column)):
            side, table = plan.sides[index], scanned[index].table
            values = table.column(column.split(".", 1)[1])
            dtypes.append(values.dtype)
            parts.append(_Part(
                side.name, scanned[index].nbytes,
                _mask(table, plan.predicates, f"{side.name}."),
                table.column(plan.join_keys[index]).astype(np.int64),
                values.astype(np.float64)))
        stats.rows_joined, keys, sums = self._join_sum(ledger, *parts)
        keys, sums = sort_group(keys, sums)
        return Table("result", {
            group: keys.astype(dtypes[0], copy=False),
            aggregate.alias: sums.astype(dtypes[1], copy=False)})


def _folded_dtype(aggregate, table: Table):
    """COUNT is int64, AVG float64; SUM/MIN/MAX answer in their column's
    dtype, as the columnar engine's folds do."""
    if aggregate.func in ("count", "avg"):
        return np.int64 if aggregate.func == "count" else np.float64
    return table.column(aggregate.column).dtype
