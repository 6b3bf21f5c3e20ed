"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        actions = parser._subparsers._group_actions[0].choices
        assert set(actions) == {
            "list", "run", "sweep", "table", "figure", "roofline", "rank",
            "export", "trace", "metrics", "chaos", "artifacts", "cluster",
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

    def test_metrics(self, capsys):
        assert main(["metrics", "Grep", "--no-cache"]) == 0
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

    def test_artifacts_ls_gc_path(self, tmp_path, capsys):
        import numpy as np

        from repro.core.artifacts import ArtifactStore

        root = str(tmp_path / "artifacts")
        ArtifactStore(root=root).put(("text", 1, 0),
                                     np.arange(64, dtype=np.int64))
        assert main(["artifacts", "ls", "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "('text', 1, 0)" in out
        assert "live" in out
        assert main(["artifacts", "path", "--dir", root]) == 0
        assert capsys.readouterr().out.strip().startswith(root)
        assert main(["artifacts", "gc", "--dir", root, "--cap-mb", "0"]) == 0
        assert "1 evicted" in capsys.readouterr().out
