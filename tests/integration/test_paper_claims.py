"""Claim tests: the paper's headline findings, asserted as orderings.

Each test pins one of the claims C1-C6 from DESIGN.md.  These are
inequalities and orderings, not exact numbers -- the reproduction targets
the paper's qualitative conclusions (see the Numbers policy in
DESIGN.md).

The shared harness characterizes all 19 workloads once (scale 1, on
the Xeon E5645 and, for Figure 5, the E5310) plus the four traditional
suites on each machine, in one events pass; individual tests read from
that single run set.
"""

import pytest

from repro.analysis import (
    FIGURE_ORDER,
    build_figures,
    figure2,
    figure3_mips,
    figure3_speedup,
)
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.uarch import XEON_E5310, XEON_E5645

TRADITIONAL = ("HPCC", "PARSEC", "SPECFP", "SPECINT")


@pytest.fixture(scope="module")
def harness():
    return Harness(machine=XEON_E5645)


@pytest.fixture(scope="module")
def figures(harness):
    """Figures 4, 5 and 6 from one events pass."""
    return build_figures(harness, ("4", "5", "6"))


@pytest.fixture(scope="module")
def fig4(figures):
    return figures["figure4"]


@pytest.fixture(scope="module")
def fig6_cache(figures):
    return figures["figure6_cache"]


@pytest.fixture(scope="module")
def fig6_tlb(figures):
    return figures["figure6_tlb"]


@pytest.fixture(scope="module")
def fig5(figures):
    return figures["figure5_fp"], figures["figure5_int"]


def _bigdata_events(harness, machine):
    merged = None
    for name in FIGURE_ORDER:
        events = harness.run(RunSpec(workload=name, machine=machine)).events
        merged = events if merged is None else merged.merge(events)
    return merged


class TestC1OperationIntensity:
    """C1: big data workloads have very low operation intensity."""

    def test_fp_intensity_two_orders_below_traditional(self, harness, fig5):
        bigdata = _bigdata_events(harness, XEON_E5645)
        for suite in ("HPCC", "PARSEC", "SPECFP"):
            ratio = fig5[0].row_for(f"Avg_{suite}")[2] / bigdata.fp_intensity
            assert ratio > 20, f"{suite} ratio {ratio:.1f}"
        # Combined traditional average: >= 2 orders of magnitude.
        suites = fig5[0].notes["events"][XEON_E5645.name]
        combined = (
            suites["Avg_HPCC"]
            .merge(suites["Avg_PARSEC"])
            .merge(suites["Avg_SPECFP"])
        )
        assert combined.fp_intensity / bigdata.fp_intensity > 50

    def test_int_intensity_same_order_as_traditional(self, harness, fig5):
        bigdata = _bigdata_events(harness, XEON_E5645)
        for suite in TRADITIONAL:
            ratio = bigdata.int_intensity / fig5[1].row_for(f"Avg_{suite}")[2]
            assert 0.1 < ratio < 10, f"{suite} ratio {ratio:.2f}"

    def test_int_fp_ratio_two_orders_above_traditional(self, fig4):
        bigdata_ratio = fig4.row_for("Avg_BigData")[-1]
        assert bigdata_ratio > 50
        for suite in ("HPCC", "PARSEC", "SPECFP"):
            assert bigdata_ratio > 40 * fig4.row_for(f"Avg_{suite}")[-1]

    def test_grep_has_max_ratio_bayes_near_min(self, fig4):
        workload_rows = [r for r in fig4.rows if not r[0].startswith("Avg_")]
        ratios = {row[0]: row[-1] for row in workload_rows}
        assert max(ratios, key=ratios.get) == "Grep"
        # Naive Bayes and K-means sit at the FP-heavy bottom (paper: 10).
        lowest_two = sorted(ratios, key=ratios.get)[:2]
        assert set(lowest_two) == {"Naive Bayes", "K-means"}
        assert ratios["Naive Bayes"] < 20

    def test_specint_is_the_integer_exception(self, fig4):
        assert fig4.row_for("Avg_SPECINT")[-1] > fig4.row_for("Avg_BigData")[-1]

    def test_fp_share_marginal_for_big_data(self, fig4):
        """Figure 4's invisible FP slivers, against HPCC's FP bars."""
        fp_share = dict(zip(fig4.column("Workload"), fig4.column("FP")))
        assert fp_share["Avg_BigData"] < 0.02
        assert fp_share["Avg_HPCC"] > 0.3


class TestC3CacheBehavior:
    """C3: L1I MPKI >= 4x traditional; L2 higher; L3 effective."""

    def test_l1i_at_least_4x_traditional(self, fig6_cache):
        bigdata = fig6_cache.row_for("Avg_BigData")[1]
        for suite in TRADITIONAL:
            assert bigdata > 4 * fig6_cache.row_for(f"Avg_{suite}")[1], suite

    def test_l2_higher_than_traditional(self, fig6_cache):
        bigdata = fig6_cache.row_for("Avg_BigData")[2]
        for suite in TRADITIONAL:
            assert bigdata > fig6_cache.row_for(f"Avg_{suite}")[2], suite

    def test_l3_effective(self, fig6_cache):
        """BigDataBench's average L3 MPKI sits below HPCC, PARSEC, and
        SPECINT (the paper's 1.5 vs 2.4/2.3/1.9), i.e. the LLC works."""
        bigdata = fig6_cache.row_for("Avg_BigData")[3]
        for suite in ("HPCC", "PARSEC", "SPECINT"):
            assert bigdata < fig6_cache.row_for(f"Avg_{suite}")[3], suite
        # And far below the workloads' own L2 MPKI.
        assert bigdata < 0.3 * fig6_cache.row_for("Avg_BigData")[2]

    def test_online_services_have_highest_l2_except_nutch(self, fig6_cache):
        olio = fig6_cache.row_for("Olio Server")[2]
        rubis = fig6_cache.row_for("Rubis Server")[2]
        nutch = fig6_cache.row_for("Nutch Server")[2]
        analytics_avg = sum(
            fig6_cache.row_for(n)[2]
            for n in ("Sort", "Grep", "WordCount", "PageRank", "Index")
        ) / 5
        assert olio > 2 * analytics_avg
        assert rubis > 2 * analytics_avg
        assert nutch < analytics_avg  # the paper's 4.1 exception
        assert nutch < olio / 3

    def test_bfs_is_the_analytics_l2_outlier(self, fig6_cache):
        bfs = fig6_cache.row_for("BFS")[2]
        for name in ("Sort", "Grep", "WordCount", "PageRank", "Index",
                     "K-means", "Connected Components"):
            assert bfs > fig6_cache.row_for(name)[2], name


class TestC4TlbBehavior:
    """C4: ITLB and DTLB MPKI above traditional; diverse DTLB range."""

    def test_itlb_above_traditional(self, fig6_tlb):
        bigdata = fig6_tlb.row_for("Avg_BigData")[2]
        for suite in TRADITIONAL:
            assert bigdata > 2 * fig6_tlb.row_for(f"Avg_{suite}")[2], suite

    def test_dtlb_above_traditional(self, fig6_tlb):
        bigdata = fig6_tlb.row_for("Avg_BigData")[1]
        for suite in TRADITIONAL:
            assert bigdata > fig6_tlb.row_for(f"Avg_{suite}")[1], suite

    def test_dtlb_diversity_bfs_max_nutch_low(self, fig6_tlb):
        """Paper: DTLB MPKI ranges 0.2 (Nutch) to 14 (BFS)."""
        workload_rows = [r for r in fig6_tlb.rows if not r[0].startswith("Avg_")]
        values = {row[0]: row[1] for row in workload_rows}
        assert max(values, key=values.get) == "BFS"
        assert values["BFS"] > 10 * values["Nutch Server"]
        assert values["Nutch Server"] < 0.3
        assert max(values.values()) > 20 * min(values.values())


class TestC5LevelThreeCache:
    """C5: FP intensity on the E5645 exceeds the E5310 (L3 at work)."""

    def test_bigdata_intensity_higher_with_l3(self, harness, fig5):
        on_new = _bigdata_events(harness, XEON_E5645)
        on_old = _bigdata_events(harness, XEON_E5310)
        assert on_new.fp_intensity > on_old.fp_intensity
        assert on_new.int_intensity > on_old.int_intensity

    def test_figure5_reports_both_machines(self, fig5):
        fig51, fig52 = fig5
        assert fig51.headers == ["Workload", "E5310", "E5645"]
        sort_row = fig51.row_for("Sort")
        assert sort_row[2] >= sort_row[1]  # E5645 >= E5310
        hpcc = fig51.row_for("Avg_HPCC")
        assert hpcc[2] > hpcc[1]  # the L3 lifts the FP suite too

    @pytest.mark.parametrize(
        "name", ["WordCount", "K-means", "Olio Server", "Read"])
    def test_integer_intensity_drops_without_l3(self, fig5, name):
        """The cache ablation: one probe per workload class loses
        integer intensity on the E5310, which has no L3."""
        without, with_l3 = fig5[1].row_for(name)[1:]
        assert with_l3 > without


class TestC2DataVolume:
    """C2: data volume has a non-negligible micro-architectural impact."""

    #: Endpoints of the Table 6 sweep (``repro figure 2`` and
    #: ``figure 3`` run all five points of all 19 workloads).  Figures 2
    #: and 3 are asserted on these workloads: a claim that some workload
    #: moves (or stays) holds for the suite if it holds here.
    SCALES = (1, 32)
    NAMES = ["Grep", "K-means", "Sort", "WordCount"]

    @pytest.fixture(scope="class")
    def sweep_pairs(self, harness):
        points = harness.run_many([RunSpec(workload=name, scale=scale)
                                   for name in self.NAMES
                                   for scale in self.SCALES])
        return dict(zip(self.NAMES, zip(points[::2], points[1::2])))

    def _series(self, figure) -> dict:
        return {row[0]: row[1:] for row in figure.rows}

    def test_volume_moves_microarch_metrics(self, sweep_pairs):
        """Some workload must move noticeably in MIPS or L3 MPKI."""
        moved = 0
        for small, large in sweep_pairs.values():
            mips_gap = large.mips / max(small.mips, 1e-9)
            l3_gap = (large.events.l3_mpki + 1e-9) / (small.events.l3_mpki + 1e-9)
            if not (0.8 < mips_gap < 1.25) or not (0.8 < l3_gap < 1.25):
                moved += 1
        assert moved >= 2

    def test_kmeans_l3_grows_with_volume(self, sweep_pairs):
        small, large = sweep_pairs["K-means"]
        assert large.events.l3_mpki > 1.3 * small.events.l3_mpki

    def test_trends_differ_across_workloads(self, sweep_pairs):
        """Different workloads show different performance trends."""
        gaps = [
            large.result.metric_value / max(small.result.metric_value, 1e-9)
            for small, large in sweep_pairs.values()
        ]
        assert max(gaps) > 1.2 * min(gaps)

    def test_figure2_l3_moves_for_some_and_not_others(self, harness):
        fig = figure2(harness, names=self.NAMES, small_scale=self.SCALES[0],
                      large_scale=self.SCALES[1])
        gaps = {name: large / max(small, 1e-9)
                for name, (large, small) in self._series(fig).items()
                if not name.startswith("Avg_")}
        assert max(gaps.values()) > 1.3
        assert any(0.75 < gap < 1.25 for gap in gaps.values()), gaps

    def test_figure3_mips_trends_differ(self, harness):
        rows = self._series(figure3_mips(harness, names=self.NAMES,
                                         scales=self.SCALES))
        assert rows["Grep"][-1] > 1.4 * rows["Grep"][0]  # paper: 2.9x
        trends = {name: series[-1] / series[0]
                  for name, series in rows.items()}
        assert min(trends.values()) < 0.9 < 1.2 < max(trends.values())

    def test_figure3_speedup_sort_degrades_services_scale(self, harness):
        rows = self._series(figure3_speedup(
            harness, names=self.NAMES + ["Nutch Server"], scales=self.SCALES))
        # Sort: I/O, spill and shuffle congestion (the paper's Figure 3-2
        # explanation); the services scale with offered load.
        assert rows["Sort"][-1] < 0.85
        assert rows["Nutch Server"][-1] > 4.0

    def test_figure3_speedup_normalized_for_every_workload(self, harness):
        rows = self._series(figure3_speedup(harness, scales=self.SCALES[:1]))
        assert len(rows) == len(FIGURE_ORDER)
        for name, series in rows.items():
            assert abs(series[0] - 1.0) < 1e-9, name


class TestStackAblation:
    """The paper's future work (Section 6.3.2): replace MapReduce with
    MPI to test whether the deep framework stack causes the front-end
    stalls -- the same algorithms on all three stacks, one profiler."""

    NAMES = ("Sort", "Grep", "WordCount", "PageRank", "K-means",
             "Connected Components")
    STACKS = ("hadoop", "spark", "mpi")

    @pytest.fixture(scope="class")
    def by_stack(self, harness):
        points = harness.run_many([RunSpec(workload=name, stack=stack)
                                   for name in self.NAMES
                                   for stack in self.STACKS])
        runs = iter(points)
        return {name: {stack: next(runs) for stack in self.STACKS}
                for name in self.NAMES}

    def test_mpi_halves_l1i_misses(self, by_stack):
        for name, runs in by_stack.items():
            assert (runs["hadoop"].events.l1i_mpki
                    > 2 * runs["mpi"].events.l1i_mpki), name

    def test_lighter_stacks_execute_fewer_instructions(self, by_stack):
        for name, runs in by_stack.items():
            hadoop = runs["hadoop"].events.instructions
            assert runs["mpi"].events.instructions < hadoop, name
            assert runs["spark"].events.instructions <= hadoop * 1.05, name

    def test_spark_beats_hadoop_on_iterative_jobs(self, by_stack):
        for name in ("PageRank", "K-means"):
            runs = by_stack[name]
            assert (runs["spark"].modeled_seconds
                    < runs["hadoop"].modeled_seconds), name
