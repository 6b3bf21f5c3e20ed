"""Trace exporters: JSON tree, Chrome trace-event format, ASCII tree.

Three consumers, three shapes:

* :func:`trace_to_tree` -- a nested plain-dict tree (machine-readable,
  schema-stable, what ``repro trace --format json`` prints);
* :func:`trace_to_chrome` -- the Chrome ``chrome://tracing`` /
  Perfetto trace-event format (a JSON object with a ``traceEvents``
  list of complete ``"ph": "X"`` events), so traces drop straight into
  the standard timeline viewers;
* :func:`render_trace` -- an indented text tree for the terminal.

Timestamps: wall-clock microseconds relative to the root span's start.
Every event carries the span's exact instruction delta in ``args``, so
viewers can attribute simulated work, not just host wall time.
"""

from __future__ import annotations

import json

from repro.obs.trace import Span

#: Chrome trace-event timestamps are microseconds.
_US = 1e6


def span_to_dict(span: Span) -> dict:
    """One span (and its subtree) as plain dicts."""
    record = {
        "name": span.name,
        "category": span.category,
        "wall_seconds": span.wall_seconds,
        "instructions": span.instructions,
        "self_instructions": span.self_instructions,
        "attrs": {k: v for k, v in span.attrs.items()},
        "children": [span_to_dict(child) for child in span.children],
    }
    if span.events is not None:
        record["events"] = {
            "loads": span.events.loads,
            "stores": span.events.stores,
            "branches": span.events.branches,
            "int_ops": span.events.int_ops,
            "fp_ops": span.events.fp_ops,
            "mem_bytes": span.events.mem_bytes,
            "l1i_misses": span.events.l1i_misses,
            "l2_misses": span.events.l2_misses,
            "l3_misses": span.events.l3_misses,
            "itlb_misses": span.events.itlb_misses,
            "dtlb_misses": span.events.dtlb_misses,
        }
    return record


def trace_to_tree(root: Span, metadata: dict = None) -> dict:
    """The JSON-tree export: metadata plus the nested span tree."""
    return {
        "format": "repro-trace-tree",
        "version": 1,
        "metadata": dict(metadata or {}),
        "root": span_to_dict(root),
    }


def trace_to_chrome(root: Span, metadata: dict = None) -> dict:
    """The Chrome trace-event export (load via chrome://tracing).

    Complete events (``"ph": "X"``) with microsecond ``ts``/``dur``
    relative to the root span's start; nesting is implied by time
    containment on one pid/tid, which is exactly how the spans nest.
    """
    events = []
    origin = root.start_wall
    for span in root.walk():
        events.append({
            "name": span.name,
            "cat": span.category or "repro",
            "ph": "X",
            "ts": (span.start_wall - origin) * _US,
            "dur": span.wall_seconds * _US,
            "pid": 1,
            "tid": 1,
            "args": {
                "instructions": span.instructions,
                "self_instructions": span.self_instructions,
                **{k: v for k, v in span.attrs.items()
                   if isinstance(v, (int, float, str, bool))},
            },
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def dump_json(payload: dict) -> str:
    """Serialize an export payload (fails fast on non-JSON values)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def render_trace(root: Span, metadata: dict = None) -> str:
    """Indented text tree: per-span instruction share, wall time, and
    -- for spans that missed -- cache/TLB misses and memory traffic."""
    total = root.instructions
    lines = []
    title = metadata.get("workload") if metadata else None
    lines.append(f"trace: {title or root.name}"
                 f"  ({total:.4g} instructions, {root.wall_seconds * 1e3:.1f} ms wall)")
    for span, depth in _walk_depth(root, 0):
        share = (span.instructions / total * 100.0) if total > 0 else 0.0
        extras = " ".join(
            f"{k}={v}" for k, v in span.attrs.items()
            if isinstance(v, (int, float, str, bool))
        )
        lines.append(
            "  " * depth
            + f"- {span.name}: {span.instructions:.4g} instr ({share:.1f}%)"
            + f", {span.wall_seconds * 1e3:.2f} ms"
            + _misses(span)
            + (f"  [{extras}]" if extras else "")
        )
    return "\n".join(lines)


def _misses(span: Span) -> str:
    """``, misses L1I .. DTLB .., N MB`` of a span that has any."""
    events = span.events
    if events is None:
        return ""
    misses = {"L1I": events.l1i_misses, "L2": events.l2_misses,
              "L3": events.l3_misses, "ITLB": events.itlb_misses,
              "DTLB": events.dtlb_misses}
    if not (any(misses.values()) or events.mem_bytes):
        return ""
    return (", misses " + " ".join(f"{k} {v:.3g}" for k, v in misses.items())
            + f", {events.mem_bytes / 1e6:.4g} MB")


def _walk_depth(span: Span, depth: int):
    yield span, depth
    for child in span.children:
        yield from _walk_depth(child, depth + 1)
