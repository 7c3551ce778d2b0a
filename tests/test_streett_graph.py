"""Graph fairness algorithms: examples, equivalences, invariants."""

import pytest

from fairchk import (
    UsageError,
    parse_model,
    parse_pairs,
    streett_graph_basic,
    streett_graph_improved,
)
from fairchk.model import StreettPairs
from fairchk.oracle import explicit_streett_graph
from fairchk.symbolic import StepCounters

from conftest import mgr_for
from helpers import graph_instance

FORCE_LOCKSTEP = 10**9


class TestExamples:
    def test_whole_cycle_good(self, f1, pairs_l0_u2):
        mgr = mgr_for(f1)
        assert streett_graph_basic(mgr, f1, pairs_l0_u2).winning == [0, 1, 2]
        mgr = mgr_for(f1)
        assert streett_graph_improved(mgr, f1, pairs_l0_u2).winning == [0, 1, 2]

    def test_request_without_grant_loses(self):
        model = parse_model("graph 2\ne 0 1\ne 1 0\n")
        pairs = parse_pairs("pairs 1\nL 1 0\n", 2)
        mgr = mgr_for(model)
        assert streett_graph_basic(mgr, model, pairs).winning == []
        mgr = mgr_for(model)
        assert streett_graph_improved(mgr, model, pairs).winning == []

    def test_reach_into_good_component(self, f2):
        pairs = parse_pairs("pairs 1\nL 1 1\nU 1 3\n", 4)
        mgr = mgr_for(f2)
        assert streett_graph_basic(mgr, f2, pairs).winning == [0, 1, 2, 3]
        for threshold in ("auto", 1, FORCE_LOCKSTEP):
            mgr = mgr_for(f2)
            report = streett_graph_improved(mgr, f2, pairs, threshold=threshold)
            assert report.winning == [0, 1, 2, 3]

    def test_no_pairs_wins_from_cycle_reachers(self, f1):
        mgr = mgr_for(f1)
        report = streett_graph_basic(mgr, f1, StreettPairs(0, ()))
        assert report.winning == [0, 1, 2]

    def test_lockstep_path_taken_when_forced(self, f1):
        # Stripping the bad vertex leaves a 2-vertex path whose candidate
        # goes through the lock-step branch under a huge threshold.
        pairs = parse_pairs("pairs 1\nL 1 0\n", 3)
        mgr = mgr_for(f1)
        report = streett_graph_improved(
            mgr, f1, pairs, threshold=FORCE_LOCKSTEP, debug=True
        )
        assert report.winning == []
        assert report.events["lockstep"] >= 1

    def test_rescc_path_taken_at_low_threshold(self, f1):
        pairs = parse_pairs("pairs 1\nL 1 0\n", 3)
        mgr = mgr_for(f1)
        report = streett_graph_improved(mgr, f1, pairs, threshold=1, debug=True)
        assert report.winning == []
        assert report.events["rescc"] >= 1
        assert report.events["lockstep"] == 0


class TestContracts:
    def test_rejects_mdp(self, f1, f3, pairs_l0_u2):
        """An MDP, or a bad threshold, is rejected before any counted step."""
        calls = [(f3, streett_graph_basic, {}), (f3, streett_graph_improved, {})]
        calls += [(f1, streett_graph_improved, {"threshold": t}) for t in (0, "bogus")]
        for model, algorithm, kwargs in calls:
            mgr = mgr_for(model)
            with pytest.raises(UsageError):
                algorithm(mgr, model, pairs_l0_u2, **kwargs)
            assert mgr.snapshot_counters() == StepCounters(), (algorithm, kwargs)

    def test_report_counters_cover_run(self, f1, pairs_l0_u2):
        mgr = mgr_for(f1)
        report = streett_graph_basic(mgr, f1, pairs_l0_u2)
        assert report.counters == mgr.snapshot_counters()
        assert report.main_steps >= 0
        assert report.wall_time >= 0.0

    def test_preprocessing_excluded_from_main_steps(self, f1, pairs_l0_u2):
        mgr = mgr_for(f1)
        report = streett_graph_improved(mgr, f1, pairs_l0_u2)
        assert report.preprocessing.headline > 0
        assert (
            report.main_steps
            == report.counters.headline - report.preprocessing.headline
        )


class TestEquivalence:
    @pytest.mark.parametrize("threshold", ["auto", "practical", 1, FORCE_LOCKSTEP])
    def test_against_oracle_and_each_other(self, threshold):
        for seed in range(300):
            model, pairs = graph_instance(seed)
            expected = explicit_streett_graph(model, pairs)
            mgr = mgr_for(model)
            assert streett_graph_basic(mgr, model, pairs).winning == expected, seed
            mgr = mgr_for(model)
            got = streett_graph_improved(mgr, model, pairs, threshold=threshold)
            assert got.winning == expected, seed

    def test_debug_invariants_hold(self):
        for seed in range(120):
            model, pairs = graph_instance(seed)
            mgr = mgr_for(model)
            streett_graph_basic(mgr, model, pairs, debug=True)
            mgr = mgr_for(model)
            streett_graph_improved(mgr, model, pairs, debug=True)

    def test_obdd_backend_equal_results_and_counters(self):
        for seed in range(60):
            model, pairs = graph_instance(seed)
            reports = []
            for backend in ("bitset", "obdd"):
                mgr = mgr_for(model, backend)
                reports.append(streett_graph_improved(mgr, model, pairs))
            assert reports[0].winning == reports[1].winning
            assert reports[0].counters == reports[1].counters
