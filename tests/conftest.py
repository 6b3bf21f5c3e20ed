"""Suite-wide test hygiene.

The store (repro.core.store) defaults to a machine-wide directory; tests
must never read stale entries from -- or leak entries into -- the
developer's real store.  Point the default root at a session-private
temporary directory before any repro module resolves it (the default
store is constructed lazily, keyed by root, so setting the environment
here is sufficient).
"""

import os
import tempfile

os.environ.setdefault(
    "REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-test-store-"))
