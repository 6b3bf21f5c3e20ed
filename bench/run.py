"""Run the benchmark: ``python3 bench/run.py`` (or ``python -m bench.run``).

Two ways to call it.

* One workload for a fixed measuring time, as ``BENCHMARK.json``'s
  command is driven::

      python3 bench/run.py --workload suite_cold --seed 3 --seconds 10 --trace 0

  The last line of standard output is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
  with ``--trace 0``, the per-layer metrics with ``--trace 1``.

* The whole suite into one JSON document, for baselines and
  ``bench/compare.py``::

      python3 bench/run.py [--workload NAME] [--seed 0] [--repeats 3]
                           [--trace] [--out FILE]

Every repeat runs in a fresh subprocess (cold interpreter, its own peak
RSS, ``PYTHONHASHSEED=0``, private cache and temp directories inside the
checkout): the child sets up, runs the timed region once and reports.
Set-up time is the time from spawning the child to the start of its
timed region.  Exit status is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

if __package__ in (None, ""):   # run as a script: make ``bench`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT  # noqa: E402  (also puts src/ on sys.path)

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DIGESTS_JSON = ROOT / "bench" / "digests.json"
TMP_ROOT = ROOT / ".bench_tmp"

#: A run takes at least this many repeats, so that its median can drop
#: one slow outlier -- unless one repeat alone outlasts ``--seconds``
#: (suite_cold); set-up is then sampled this often all the same, by
#: children that stop after set-up.
MIN_SAMPLES = 3

#: Children keep freed memory inside the process (glibc serves every
#: allocation from a heap it never trims, none from mmap) and numpy does
#: not ask for huge pages, so that pages are touched once and reused.  On
#: the sizing machine (a KVM guest) the kernel time for the first touch
#: of a fresh page varied 15x between identical runs -- Grep at 8x input:
#: 0.14 to 2.07 s of system time for the same 11 k faults -- and
#: ``wall_s`` of volume_x8 swung between 10 and 27 s.  The price: the cost
#: of allocation churn is under-weighted (see bench/README.md).
STEADY_MEMORY = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

#: A child that has not reported by then is killed.
CHILD_TIMEOUT_SECONDS = 170


class CheckFailed(Exception):
    """A child died, or reported something that cannot be right."""


# -- the child: set up, run the timed region once, report ----------------------

def child(args) -> int:
    from bench import layers, workloads

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    trace = bool(args.trace)
    state = workload.setup(args.seed, size, trace)
    gc.collect()
    report = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    rec = layers.Recorder()
    probe = layers.UarchProbe()
    with probe if trace else nullcontext():
        start = time.perf_counter()
        outcome = workload.run(state, rec)
        wall = time.perf_counter() - start
    report.update(
        wall_s=wall, work=outcome.work,
        attempted=outcome.attempted, failed=outcome.failed,
        stats_digest=outcome.digest, checks_failed=[],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if trace:
        metrics, spans = workload.per_layer(state, outcome, rec, probe, wall)
        metrics.update(probe.metrics(wall))
        metrics["bench.traced_wall_s"] = wall
        recorded = recorded_digests().get(args.workload, {}).get(
            str(args.seed))
        metrics["sim.stats_digest_changed"] = int(
            args.size == "full" and recorded is not None
            and recorded != outcome.digest)
        report["per_layer"] = metrics
        report["spans"] = spans
        if workload.uarch_idle and metrics["uarch.calls"]:
            report["checks_failed"].append("uarch was called in a timed "
                                           "region that must leave it idle")
    print(json.dumps(report))
    return 0


# -- the parent: spawn children, aggregate, print ------------------------------

def spawn(workload: str, seed: int, size: str, tmp: Path, *,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run one child and return its report plus ``setup_s``."""
    tmp.mkdir(parents=True)
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed), "--size", size,
               "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp),
               REPRO_CACHE_DIR=str(tmp / "cache"),
               REPRO_ARTIFACT_DIR=str(tmp / "artifacts"), **STEADY_MEMORY)
    started = time.monotonic()
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired as error:
        raise CheckFailed(f"{workload}: child timed out") from error
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise CheckFailed(f"{workload}: child exited with {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def measure(workload: str, seed: int, size: str, tmp: Path, *,
            seconds: float = None, repeats: int = None) -> dict:
    """Untraced repeats of one workload: ``repeats`` of them, or as many
    as it takes to spend ``seconds`` in timed regions (see MIN_SAMPLES)."""
    reports = []

    def enough() -> bool:
        if repeats:
            return len(reports) >= repeats
        walls = [r["wall_s"] for r in reports]
        return bool(walls) and sum(walls) >= seconds and (
            len(walls) >= MIN_SAMPLES or walls[0] >= seconds)

    while not enough():
        reports.append(spawn(workload, seed, size, tmp / f"r{len(reports)}"))
    setups = [r["setup_s"] for r in reports]
    while len(setups) < MIN_SAMPLES:
        setups.append(spawn(workload, seed, size, tmp / f"s{len(setups)}",
                            setup_only=True)["setup_s"])
    digests = {r["stats_digest"] for r in reports}
    samples = {
        "wall_s": [r["wall_s"] for r in reports],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reports],
        "work_per_s": [r["work"] / r["wall_s"] for r in reports],
    }
    return {
        "seed": seed, "repeats": len(reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        # Repeats of one seed must agree bit for bit.
        "checks_failed": ["digest differs between repeats"]
        if len(digests) > 1 else [],
        "stats_digest": reports[0]["stats_digest"],
        "end_to_end": {name: summarize(values)
                       for name, values in samples.items()},
    }


def summarize(values: list) -> dict:
    """Median and quartiles; no further percentile, for want of samples."""
    summary = {"median": statistics.median(values), "n": len(values),
               "samples": values}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def declared() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def recorded_digests() -> dict:
    if not DIGESTS_JSON.exists():
        return {}
    with open(DIGESTS_JSON) as handle:
        return json.load(handle)


def is_correct(record: dict) -> bool:
    return not record["failed"] and not record["checks_failed"]


# -- the two command-line modes ------------------------------------------------

def run_for_driver(args, tmp: Path) -> int:
    """One workload, ``--seconds`` of measuring, one JSON line."""
    spec = declared()
    if args.trace:
        record = spawn(args.workload, args.seed, args.size, tmp / "traced",
                       trace=True)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(record["per_layer"]) - set(units))
        if unknown:
            raise CheckFailed(f"metrics missing from BENCHMARK.json: "
                              f"{unknown}")
        # A layer this workload leaves idle did nothing: zero.
        values = {name: record["per_layer"].get(name, 0) for name in units}
    else:
        record = measure(args.workload, args.seed, args.size, tmp,
                         seconds=args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: record["end_to_end"][name]["median"]
                  for name in units}
    for name, value in values.items():
        print(f"{args.workload:16s} {name:36s} {value:.6g} {units[name]}")
    for check in record["checks_failed"]:
        print(f"CHECK FAILED: {check}", file=sys.stderr)
    print(json.dumps({
        "correct": is_correct(record),
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if is_correct(record) else 1


def run_suite(args, tmp: Path) -> int:
    """All workloads (or one) into one JSON document."""
    from bench import workloads

    spec = declared()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    document = {
        "bench": "suite", "seed": args.seed, "size": args.size,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "work_units": workloads.WORK_UNITS,
        "workloads": {},
    }
    correct = True
    for name in names:
        record = measure(name, args.seed, args.size, tmp / name,
                         repeats=args.repeats)
        if args.trace:
            traced = spawn(name, args.seed, args.size, tmp / name / "traced",
                           trace=True)
            wall = record["end_to_end"]["wall_s"]["median"]
            traced["per_layer"]["bench.trace_overhead_frac"] = (
                traced["per_layer"]["bench.traced_wall_s"] / wall - 1)
            record["per_layer"] = traced["per_layer"]
            record["spans"] = traced["spans"]
            record["attempted"] += traced["attempted"]
            record["failed"] += traced["failed"]
            record["checks_failed"] += traced["checks_failed"]
            if traced["stats_digest"] != record["stats_digest"]:
                record["checks_failed"].append(
                    "digest differs between traced and untraced passes")
            if name == "replay_planes":
                document["serving_legs"] = serving_legs(record, args.size)
        document["workloads"][name] = record
        correct = correct and is_correct(record)
        print_record(name, record, units)
    if args.record_digests:
        digests = recorded_digests()
        for name, record in document["workloads"].items():
            digests.setdefault(name, {})[str(args.seed)] = \
                record["stats_digest"]
        with open(DIGESTS_JSON, "w") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0 if correct else 1


def print_record(name: str, record: dict, units: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    for metric, summary in record["end_to_end"].items():
        spread = (f"  [{summary['q1']:.6g} .. {summary['q3']:.6g}]"
                  if "q1" in summary else "")
        print(f"{name:16s} {metric:36s} {summary['median']:.6g} "
              f"{units[metric]}{spread}  n={summary['n']}")
    fail_frac = record["failed"] / record["attempted"]
    print(f"{name:16s} {'fail_frac':36s} {fail_frac:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for metric, value in sorted(record.get("per_layer", {}).items()):
        print(f"{name:16s} {metric:36s} {value:.6g} "
              f"{units.get(metric, 'ratio')}")
    for check in record["checks_failed"]:
        print(f"CHECK FAILED: {name}: {check}", file=sys.stderr)


def serving_legs(record: dict, size: str) -> dict:
    """Simulated requests per host second of each replay leg, with its
    request count, and the peak RSS of the process that ran them.

    ROADMAP quotes two serving headlines, 2.7 M sim-req/s (a 10^6-request
    stream) and 542 k (the 5 x 10^7-request day): one ``replay()`` at two
    stream sizes.  A rate only means something beside its request count,
    its policy (fast path or event path) and the memory it needed.
    """
    from bench import workloads

    legs = []
    for policy, key in workloads.SERVING_LEGS:
        requests = workloads.SIZES[size][key]
        seconds = record["per_layer"][f"serving.replay_{policy}_s"]
        legs.append({"policy": policy, "requests": requests,
                     "seconds": seconds,
                     "sim_req_per_s": requests / seconds})
    return {"legs": legs,
            "peak_rss_mb": record["end_to_end"]["peak_rss_mb"]["median"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long and print "
                             "one JSON line (the BENCHMARK.json command)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--out", help="write the suite document here")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this seed's digests in bench/digests.json")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if args.seconds is not None and not args.workload:
        parser.error("--seconds needs --workload")

    tmp = TMP_ROOT / f"run-{os.getpid()}"
    try:
        if args.seconds is not None:
            return run_for_driver(args, tmp)
        return run_suite(args, tmp)
    except CheckFailed as error:
        print(f"FAILED: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.exists() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
