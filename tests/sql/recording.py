"""A context that logs every charge, span and span attribute, and the
statements whose logs ``engine_charges.json`` pins.

The file was recorded from the inline statements on the commit before
statements became preparable (parse, resolve and build per query), so it
states the engine's charging order independently of the code under test.
"""

import numpy as np

from repro.datagen.table import Table
from repro.sql import SqlEngine
from repro.uarch.perfctx import NullPerfContext

CHARGES = ("int_ops", "fp_ops", "branch_ops", "touch", "seq_read",
           "seq_write", "rand_read", "rand_write", "stride_read",
           "skewed_read", "skewed_write")


class _Span:
    def __init__(self, log, name):
        self.log, self.name = log, name

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.log.append(["close", self.name])
        return False

    def set(self, key, value):
        self.log.append(["set", self.name, key, value])


class RecordingContext(NullPerfContext):
    def __init__(self):
        self.log = []
        for name in CHARGES:
            setattr(self, name, self._charge(name))

    def _charge(self, name):
        def charge(*args, **kwargs):
            self.log.append([name, list(args), kwargs])
        return charge

    def span(self, name, category="", **attrs):
        self.log.append(["open", name, category, attrs])
        return _Span(self.log, name)


#: name -> (inline text, prepared text, parameters)
STATEMENTS = {
    "point": ("SELECT K, S FROM kv WHERE K = 3",
              "SELECT K, S FROM kv WHERE K = ?", (3,)),
    "filter": ("SELECT V FROM kv WHERE K >= 2 AND S != 21 AND V < 4.5",
               "SELECT V FROM kv WHERE K >= ? AND S != ? AND V < ?",
               (2, 21, 4.5)),
    "group": ("SELECT G, SUM(V) AS s, COUNT(*) AS n FROM kv WHERE K > 0 "
              "GROUP BY G",
              "SELECT G, SUM(V) AS s, COUNT(*) AS n FROM kv WHERE K > ? "
              "GROUP BY G", (0,)),
    "join": ("SELECT d.G, SUM(f.V) AS s FROM dim d JOIN kv f ON d.G = f.G "
             "WHERE f.V > 1 GROUP BY d.G",
             "SELECT d.G, SUM(f.V) AS s FROM dim d JOIN kv f ON d.G = f.G "
             "WHERE f.V > ? GROUP BY d.G", (1,)),
    "all": ("SELECT K, S, G, V FROM kv", "SELECT K, S, G, V FROM kv", ()),
}


def engine_with(ctx) -> SqlEngine:
    engine = SqlEngine(ctx=ctx)
    rows = np.arange(6, dtype=np.int64)
    engine.register("kv", Table("kv", {
        "K": rows, "S": rows * 7, "G": rows % 3, "V": rows * 1.5}), 264)
    engine.register("dim", Table("dim", {
        "G": np.arange(3, dtype=np.int64),
        "W": np.arange(3, dtype=np.int64) * 10}), 66)
    return engine


def record_inline(sql: str) -> list:
    ctx = RecordingContext()
    engine_with(ctx).execute(sql)
    return ctx.log


def record_prepared(sql: str, params: tuple) -> list:
    """The log of the statement's second run: its plan is already bound."""
    ctx = RecordingContext()
    engine = engine_with(ctx)
    statement = engine.prepare(sql)
    engine.run_plan(statement, params)
    del ctx.log[:]
    engine.run_plan(statement, params)
    return ctx.log


if __name__ == "__main__":
    # PYTHONPATH=src python tests/sql/recording.py > tests/sql/engine_charges.json
    import json

    logs = {name: record_inline(inline)
            for name, (inline, _, _) in STATEMENTS.items()}
    print("{")
    for i, (name, log) in enumerate(logs.items()):
        events = ",\n  ".join(json.dumps(event) for event in log)
        comma = "," if i + 1 < len(logs) else ""
        print(f' "{name}": [\n  {events}\n ]{comma}')
    print("}")
