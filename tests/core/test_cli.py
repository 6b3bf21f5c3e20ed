"""Unit tests for the command-line interface."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: ``{command: sorted [option strings, default, choices]}`` recorded from
#: the parser before its shared options moved into one table.
SURFACE = Path(__file__).with_name("cli_surface.json")

README = Path(__file__).resolve().parents[2] / "README.md"

#: The execution flags ``table`` accepted and ignored before it lost them.
TABLE_DROPPED = {"--jobs", "--no-cache", "--no-artifacts", "--cluster",
                 "--profile", "--policy"}


def surface(parser) -> dict:
    """Every command's arguments as ``[option strings, default, choices]``
    (a positional's option strings are its name)."""
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {
        name: sorted(([action.option_strings or [action.dest],
                       action.default,
                       list(action.choices) if action.choices else None]
                      for action in command._actions
                      if not isinstance(action, argparse._HelpAction)),
                     key=json.dumps)
        for name, command in sub.choices.items()
    }


def readme_commands() -> list:
    """The argv of every ``python -m repro ...`` line in README.md."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    return [shlex.split(line.strip(), comments=True)[3:]
            for line in text.splitlines()
            if line.strip().startswith("python -m repro ")]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = parser._subparsers._group_actions[0].choices
        assert set(actions) == {
            "list", "run", "sweep", "table", "figure", "roofline", "rank",
            "export", "trace", "metrics", "chaos", "store", "cluster",
            "serve", "stream", "scenario",
        }

    def test_figure_takes_machine(self):
        args = build_parser().parse_args(["figure", "2", "--machine", "E5310"])
        assert args.machine == "E5310"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "Grep"])
        assert args.workload == "Grep"
        assert args.scale == 1
        assert args.stack is None

    def test_surface_is_the_recorded_one(self):
        recorded = json.loads(SURFACE.read_text(encoding="utf-8"))
        recorded["table"] = [row for row in recorded["table"]
                             if row[0][0] not in TABLE_DROPPED]
        assert surface(build_parser()) == recorded

    def test_single_point_commands_take_no_jobs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "Grep", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_table_rejects_execution_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["table", "4", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_command_parses(self, argv):
        build_parser().parse_args(argv)

    def test_serve_takes_no_engine(self, capsys):
        parser = build_parser()
        assert not hasattr(parser.parse_args(["serve", "nutch"]), "engine")
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "nutch", "--engine", "vector"])
        assert "--engine" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Naive Bayes" in out
        assert out.count("\n") >= 20

    def test_table(self, capsys):
        assert main(["table", "7"]) == 0
        assert "None" in capsys.readouterr().out

    def test_run(self, capsys):
        assert main(["run", "Grep", "--scale", "1"]) == 0
        out = capsys.readouterr().out
        assert "L1I / L2 / L3 MPKI" in out
        assert "correct: True" in out

    def test_run_on_e5310(self, capsys):
        assert main(["run", "Grep", "--machine", "E5310"]) == 0
        assert "E5310" in capsys.readouterr().out

    def test_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["run", "Grep", "--machine", "M1"])

    def test_roofline_subset(self, capsys):
        assert main(["roofline", "Grep"]) == 0
        out = capsys.readouterr().out
        assert "memory" in out  # big data workloads sit under the slope

    def test_export(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "csv")]) == 0
        out = capsys.readouterr().out
        assert "figure6_cache.csv" in out

    def test_figure_6_profiles_each_suite_once(self, capsys, monkeypatch,
                                               tmp_path):
        from repro.analysis import figures

        profiled = []
        run_suite = figures.run_suite

        def counted(*args):
            profiled.append(args)
            return run_suite(*args)

        monkeypatch.setattr(figures, "run_suite", counted)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figure", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6-1" in out and "Figure 6-2" in out
        assert len(profiled) == 4
        # Warm: the suite profiles come from the store with the points.
        assert main(["figure", "6"]) == 0
        assert capsys.readouterr().out == out
        assert len(profiled) == 4

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])

    def test_trace_tree(self, capsys):
        assert main(["trace", "Grep"]) == 0
        out = capsys.readouterr().out
        assert "characterize:Grep" in out
        assert "mr:map" in out

    def test_trace_chrome_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["trace", "Grep", "--format", "chrome",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_metrics_runs_on_a_warm_cache(self, capsys, monkeypatch,
                                          tmp_path):
        from repro.obs.metrics import METRICS

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for _ in range(2):     # two invocations, one process each
            METRICS.reset()
            assert main(["metrics", "Grep"]) == 0
            out = capsys.readouterr().out
            assert "harness.runs" in out
            assert "mr.jobs" in out

    def test_chaos_reports_equivalence(self, capsys):
        assert main(["chaos", "Grep", "--no-cache",
                     "--faults", "task_crash:rate=0.5"]) == 0
        out = capsys.readouterr().out
        assert "IDENTICAL" in out
        assert "task_crash" in out
        assert "recovery actions" in out

    def test_chaos_no_recovery_reports_divergence(self, capsys):
        assert main(["chaos", "Grep", "--no-cache", "--no-recovery",
                     "--faults", "task_crash:rate=0.5"]) == 0
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "work lost" in out

    def test_stream_fault_free(self, capsys):
        assert main(["stream", "wordcount", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Streaming WordCount" in out
        assert "duplicate windows" in out
        assert "checkpoints / restores" in out

    def test_stream_exactly_once_identical_under_faults(self, capsys):
        assert main(["stream", "grep", "--no-cache",
                     "--faults", "operator_crash:rate=0.1"]) == 0
        out = capsys.readouterr().out
        assert "IDENTICAL" in out
        assert "exactly-once" in out

    def test_stream_at_least_once_reports_duplicates(self, capsys):
        assert main(["stream", "wordcount", "--no-cache",
                     "--mode", "at-least-once", "--checkpoint-interval",
                     "24", "--faults", "operator_crash:rate=0.1"]) == 0
        out = capsys.readouterr().out
        assert "duplicate window(s)" in out
        assert "at-least-once replay" in out

    def test_stream_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["stream", "mapreduce"])

    def test_cluster_ls(self, capsys):
        assert main(["cluster", "ls"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out
        assert "mixed" in out
        assert "single" in out

    def test_cluster_show_mixed(self, capsys):
        assert main(["cluster", "show", "mixed"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous" in out
        assert "E5310" in out

    def test_cluster_show_unknown(self):
        with pytest.raises(SystemExit):
            main(["cluster", "show", "warehouse"])

    def test_cluster_show_prints_replay_table(self, capsys):
        assert main(["cluster", "show", "paper"]) == 0
        out = capsys.readouterr().out
        assert "event replay of a sample job" in out
        assert "cpu util" in out

    def test_cluster_show_count_suffix(self, capsys):
        assert main(["cluster", "show", "paper:100"]) == 0
        out = capsys.readouterr().out
        assert "100 nodes" in out
        # 100 identical nodes collapse into one grouped row.
        assert "0-99" in out

    def test_cluster_show_nodes_flag(self, capsys):
        assert main(["cluster", "show", "paper", "--nodes", "30"]) == 0
        out = capsys.readouterr().out
        assert "30 nodes" in out
        assert "0-29" in out

    def test_cluster_show_bad_count_suffix(self):
        with pytest.raises(SystemExit):
            main(["cluster", "show", "paper:zero"])

    def test_run_on_cluster_preset(self, capsys):
        assert main(["run", "Grep", "--cluster", "mixed", "--no-cache",
                     "--no-artifacts"]) == 0
        assert "correct: True" in capsys.readouterr().out

    def test_run_unknown_cluster(self):
        with pytest.raises(SystemExit):
            main(["run", "Grep", "--cluster", "warehouse"])

    def test_store_ls_gc_path(self, tmp_path, capsys):
        import numpy as np

        from repro.core.store import Store

        root = str(tmp_path / "store")
        store = Store(root)
        store.put("dataset", ("text", 1, 0), np.arange(64, dtype=np.int64))
        store.put("result", ("Grep", 1), {"metric": 1.0})
        assert main(["store", "ls", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "Kind" in out
        assert "('text', 1, 0)" in out and "dataset" in out
        assert "('Grep', 1)" in out and "result" in out
        assert "live" in out
        assert main(["store", "path", "--dir", root]) == 0
        assert capsys.readouterr().out.strip() == root
        assert main(["store", "gc", "--dir", root, "--cap-mb", "0"]) == 0
        assert "2 evicted" in capsys.readouterr().out


#: Bad names, stacks and specs: each must end in one line, not a traceback.
BAD_INPUT = [
    ["run", "Bogus"],
    ["sweep", "Bogus"],
    ["metrics", "Bogus"],
    ["run", "BFS", "--stack", "hadoop"],
    ["chaos", "Grep", "--faults", "bogus:rate=1"],
    ["chaos", "Grep", "--faults", "task_crash:rate=2"],
    ["chaos", "Grep", "--faults", "task_crash:rate=abc"],
    ["chaos", "Grep", "--faults", "task_crash:at=x"],
    ["chaos", "Grep", "--faults", "straggler:factor=y"],
    ["chaos", "Grep", "--faults", "node_kill:node=z"],
    ["chaos", "Grep", "--faults", "task_crash:rate=0.5 [ckpt=abc]"],
    ["table", "9"],
    ["run", "Grep", "--scale", "0"],
    ["serve", "nutch", "--profile", "flash:rps=abc"],
    ["run", "Grep", "--policy", "bogus"],
    ["serve", "nutch", "--slo", "0"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_with_one_line(argv, tmp_path):
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src),
           "REPRO_CACHE_DIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1
