"""Compare two suite documents written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of the same
code), B the change.  Each (workload, end-to-end metric) is one row: the
median and quartiles of both sides, the ratio B/A with its base, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``REGRESSION``  B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (distance between quartiles over
  the median, either side) is wider than the bound, so "no worse" cannot
  be told from noise -- unless every run of B is better than every run
  of A;
* ``ok``          otherwise.

``fail_frac`` may not rise at all.  When both documents ran the same
seed and size, the fields that repeat bit for bit must be equal: the
statistics digest and the per-layer ``sim.*`` and ``*.sim_accesses``
values (``MISMATCH`` otherwise).  Per-layer metrics have no bound; they
are listed with their ratio to show where a difference sits.  Exit
status is 1 on any REGRESSION or MISMATCH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def is_exact(metric: str) -> bool:
    """Per-layer metrics that are counts made by the simulated program."""
    return metric.startswith("sim.") or metric.endswith(".sim_accesses")


def spread(summary: dict) -> float:
    if "q1" not in summary or not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"]) / abs(base["median"])
    if worse_by > bound:
        return "REGRESSION"
    if max(spread(base), spread(change)) > bound:
        if better == "lower":
            all_better = max(change["samples"]) < min(base["samples"])
        else:
            all_better = min(change["samples"]) > max(base["samples"])
        if not all_better:
            return "unresolved"
    return "ok"


def quartiles(summary: dict) -> str:
    if "q1" not in summary:
        return f"{summary['median']:.5g} (n={summary['n']})"
    return (f"{summary['median']:.5g} [{summary['q1']:.5g}..{summary['q3']:.5g}]"
            f" (n={summary['n']})")


def compare(base: dict, change: dict, spec: dict) -> tuple:
    """Rows of text and the number of REGRESSION/MISMATCH, unresolved."""
    rows, bad, unresolved = [], 0, 0
    same_inputs = (base.get("seed") == change.get("seed")
                   and base.get("size") == change.get("size"))
    for name, old in base["workloads"].items():
        new = change["workloads"].get(name)
        if new is None:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = old["end_to_end"][key], new["end_to_end"][key]
            result = verdict(a, b, metric["better"], metric["bound"])
            bad += result == "REGRESSION"
            unresolved += result == "unresolved"
            rows.append(
                f"{name:15s} {key:12s} A {quartiles(a)}  B {quartiles(b)}  "
                f"B/A {b['median'] / a['median']:.3f} of {a['median']:.5g} "
                f"{metric['unit']}  bound {metric['bound']:.2f} "
                f"{metric['better']}  {result}")
        fail_a = old["failed"] / old["attempted"]
        fail_b = new["failed"] / new["attempted"]
        result = "REGRESSION" if fail_b > fail_a else "ok"
        bad += result == "REGRESSION"
        rows.append(f"{name:15s} {'fail_frac':12s} A {fail_a:.5g} "
                    f"({old['failed']}/{old['attempted']})  B {fail_b:.5g} "
                    f"({new['failed']}/{new['attempted']})  {result}")
        if same_inputs:
            result = ("ok" if old["stats_digest"] == new["stats_digest"]
                      else "MISMATCH")
            bad += result == "MISMATCH"
            rows.append(f"{name:15s} {'stats_digest':12s} "
                        f"A {old['stats_digest'][:12]}  "
                        f"B {new['stats_digest'][:12]}  {result}")
        layers_a, layers_b = old.get("per_layer"), new.get("per_layer")
        if not (layers_a and layers_b):
            continue
        for key in layers_a:
            if key not in layers_b:
                continue
            a, b = layers_a[key], layers_b[key]
            ratio = f"B/A {b / a:.3f} of {a:.5g}" if a else f"A {a} B {b}"
            note = ""
            if same_inputs and is_exact(key):
                note = "  ok" if a == b else "  MISMATCH"
                bad += a != b
            rows.append(f"{name:15s}   {key:34s} {ratio}{note}")
    return rows, bad, unresolved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)
    rows, bad, unresolved = compare(documents[0], documents[1], spec)
    print("\n".join(rows))
    print(f"{bad} regression(s) or mismatch(es), {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
