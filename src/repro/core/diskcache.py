"""The result kind of :class:`repro.core.store.Store`, under its old name.

Kept only because ``bench/workloads.py`` imports it and ``bench/`` may
change only with the benchmark itself; ROADMAP item 1(g) deletes it.
"""

from repro.core.store import Store


class DiskCache:
    """``get(key)`` / ``put(key, value)`` on the ``result`` kind."""

    def __init__(self, root: str = None):
        self.store = Store(root)

    def get(self, key):
        return self.store.get("result", key)

    def put(self, key, value):
        return self.store.put("result", key, value)
