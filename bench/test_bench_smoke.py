"""Smoke tests of the benchmark itself, on a seconds-scale configuration.

Run with ``python -m pytest bench/`` (tier-1's ``testpaths`` does not
collect this directory).  The "smoke" size of ``bench/workloads.py``
shrinks every workload; the code paths, metric names and checks are the
ones the full size runs.
"""

import copy
import json
import re

import pytest

from bench import compare, layers, run, workloads
from repro.core import registry
from repro.uarch.cache import Cache
from repro.uarch.hierarchy import MemorySystem
from repro.uarch.tlb import Tlb

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SPEC = run.declared()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass of every workload, for seeds 0 and 1."""
    tmp = tmp_path_factory.mktemp("traced")
    return {seed: {name: run.spawn(name, seed, "smoke",
                                   tmp / f"{name}-{seed}", trace=True)
                   for name in WORKLOADS}
            for seed in (0, 1)}


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    """A suite document: one untraced repeat of every workload."""
    out = tmp_path_factory.mktemp("suite") / "suite.json"
    assert run.main(["--size", "smoke", "--repeats", "1",
                     "--out", str(out)]) == 0
    with open(out) as handle:
        return json.load(handle)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_names_and_units_are_well_formed():
    assert WORKLOADS == list(workloads.WORKLOADS)
    names = WORKLOADS + [m["name"]
                         for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("name", WORKLOADS)
def test_driver_command_prints_every_end_to_end_metric(name, capsys):
    status = run.main(["--workload", name, "--seed", "0", "--seconds", "0.1",
                       "--size", "smoke", "--trace", "0"])
    result = last_json(capsys)
    assert status == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_driver_command_prints_every_per_layer_metric(capsys):
    status = run.main(["--workload", "storage_stream", "--seed", "0",
                       "--seconds", "0.1", "--size", "smoke", "--trace", "1"])
    result = last_json(capsys)
    assert status == 0 and result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # storage_stream leaves the simulator idle: its metrics read zero.
    assert result["metrics"]["uarch.calls"]["value"] == 0
    assert result["metrics"]["streaming.events"]["value"] > 0


def test_every_declared_per_layer_metric_is_produced_by_a_workload(traced):
    produced = set()
    for record in traced[0].values():
        produced |= set(record["per_layer"])
    # The smoke suite runs three of the 19 points; the other names come
    # from the same function over the registry.
    produced |= {workloads.point_metric("suite", name)
                 for name in registry.workload_names()}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_layers_carry_the_expected_work(traced):
    suite = traced[0]["suite_cold"]["per_layer"]
    assert suite["uarch.calls"] > 0 and suite["uarch.sim_accesses"] > 0
    assert 0 < suite["uarch.share_of_wall"] < 1
    assert suite["sim.instructions_total"] > 0
    assert suite["sim.fidelity_err"] > 0
    assert suite["datagen.prepare_s"] > 0 and suite["engines.self_s"] > 0
    for name in ("replay_planes", "storage_stream"):
        record = traced[0][name]
        assert record["per_layer"]["uarch.calls"] == 0
        assert record["checks_failed"] == []
    assert traced[0]["replay_planes"]["per_layer"]["serving.requests"] > 0
    assert traced[0]["storage_stream"]["per_layer"][
        "scenarios.digest_mismatches"] == 0
    for record in traced[0].values():
        assert record["failed"] == 0
        for span in record["spans"]:
            assert span["end"] >= span["start"]


def test_a_second_seed_changes_digests_but_not_the_metric_set(traced):
    for name in WORKLOADS:
        first, second = traced[0][name], traced[1][name]
        assert first["stats_digest"] != second["stats_digest"], name
        assert set(first["per_layer"]) == set(second["per_layer"]), name


def test_probe_restores_the_simulator_entry_points():
    targets = [(MemorySystem, "data_access"), (MemorySystem, "inst_fetch"),
               (Cache, "access_many"), (Tlb, "access_many")]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    workload = workloads.WORKLOADS["suite_cold"]
    size = dict(workloads.SIZES["smoke"], suite_names=("BFS",))
    with layers.UarchProbe() as probe:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
        workload.run(workload.setup(0, size, False), layers.Recorder())
    assert probe.total_calls() > 0
    assert len(probe.calls["cache_access_many"]) >= len(probe.top_level())
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))


def test_self_seconds_excludes_children_and_simulator_calls():
    spans = [
        {"name": "run:x", "category": "harness", "parent": -1,
         "start": 0.0, "end": 10.0},
        {"name": "mr:map", "category": "mapreduce", "parent": 0,
         "start": 1.0, "end": 6.0},
    ]
    calls = [(2.0, 4.0, 100), (7.0, 8.0, 10)]   # one under each span
    assert layers.self_seconds(spans, calls) == [4.0, 3.0]


def test_compare_reports_a_row_as_unresolved_when_spread_exceeds_bound():
    steady = run.summarize([10.0, 10.1, 10.2])
    noisy = run.summarize([8.0, 10.0, 14.0])
    faster = run.summarize([5.0, 6.0, 7.0])
    assert compare.verdict(steady, steady, "lower", 0.1) == "ok"
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    # ... unless every run of the change beats every run of the base.
    assert compare.verdict(noisy, faster, "lower", 0.1) == "ok"
    assert compare.verdict(faster, noisy, "higher", 0.1) == "ok"
    assert compare.verdict(steady, run.summarize([11.5, 11.6, 11.7]),
                           "lower", 0.1) == "REGRESSION"


def test_compare_passes_an_identical_pair_and_flags_a_slowdown(document,
                                                               capsys):
    rows, bad, _ = compare.compare(document, document, SPEC)
    assert bad == 0
    assert any("stats_digest" in row and row.endswith("ok") for row in rows)

    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "wall_s")
    slower = copy.deepcopy(document)
    wall = slower["workloads"]["suite_cold"]["end_to_end"]["wall_s"]
    wall["median"] *= 1 + bound + 0.1
    wall["samples"] = [s * (1 + bound + 0.1) for s in wall["samples"]]
    rows, bad, _ = compare.compare(document, slower, SPEC)
    assert bad == 1
    assert [row for row in rows if "REGRESSION" in row][0].startswith(
        "suite_cold      wall_s")

    changed = copy.deepcopy(document)
    changed["workloads"]["replay_planes"]["stats_digest"] = "0" * 64
    assert compare.compare(document, changed, SPEC)[1] == 1
