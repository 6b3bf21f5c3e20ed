"""Unit tests for the suite ranking module."""

import pytest

from repro.analysis.ranking import (
    SuiteScore,
    geometric_mean,
    render_ranking,
    score_configurations,
)
from repro.core.harness import Harness


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([4.0, 16.0]) == pytest.approx(8.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([0.0, 9.0]) == pytest.approx(9.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0


class TestScoring:
    @pytest.fixture(scope="class")
    def harness(self):
        return Harness()

    NAMES = ["Grep", "WordCount", "Read", "Nutch Server"]

    def test_scores_cover_metric_classes(self, harness):
        (score,) = score_configurations(harness, {"default": None},
                                        names=self.NAMES)
        assert score.dps_score > 0
        assert score.ops_score > 0
        assert score.rps_score > 0
        assert len(score.per_workload) == len(self.NAMES)

    def test_stack_override_changes_dps(self, harness):
        hadoop, spark = score_configurations(
            harness, {"hadoop": None,
                      "spark": {"Grep": "spark", "WordCount": "spark"}},
            names=["Grep", "WordCount"])
        assert spark.dps_score != hadoop.dps_score
        # Spark's lower fixed overheads win on these small inputs.
        assert spark.dps_score > hadoop.dps_score

    def test_render_orders_by_dps(self, harness):
        a = SuiteScore("slow", 1.0, 1.0, 1.0)
        b = SuiteScore("fast", 5.0, 1.0, 1.0)
        text = render_ranking([a, b])
        lines = text.splitlines()
        assert "fast" in lines[3]
        assert "slow" in lines[4]


def test_a_jobs_2_harness_scores_every_configuration_through_one_pool(
        monkeypatch):
    from repro.core import parallel

    pools = []
    execute_in_pool = parallel.execute_in_pool

    def counted(harness, specs, jobs):
        pools.append(len(specs))
        return execute_in_pool(harness, specs, jobs)

    monkeypatch.setattr(parallel, "execute_in_pool", counted)
    multi = ["Sort", "Grep", "WordCount", "PageRank", "K-means",
             "Connected Components"]
    stacks = ("hadoop", "spark", "mpi")
    scores = score_configurations(
        Harness(jobs=2), {stack: dict.fromkeys(multi, stack)
                          for stack in stacks}, names=multi)
    assert pools == [18]
    assert [score.label for score in scores] == list(stacks)
    assert all(list(score.per_workload) == multi for score in scores)
