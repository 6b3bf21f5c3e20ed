"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

See ``bench/README.md``.  The measured program is the ``repro`` package
under ``src/``; it is put on ``sys.path`` here so that ``python3
bench/run.py`` and ``pytest bench/`` work from a bare checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
