"""MDP fairness algorithms: examples, equivalences, invariants."""

import pytest

from fairchk import (
    UsageError,
    parse_model,
    parse_pairs,
    streett_mdp_basic,
    streett_mdp_improved,
)
from fairchk.model import StreettPairs
from fairchk.oracle import explicit_streett_mdp
from fairchk.symbolic import StepCounters

from conftest import mgr_for
from helpers import brute_streett_mdp, mdp_instance

FORCE_LOCKSTEP = 10**9


class TestExamples:
    def test_good_component_reached_almost_surely(self, f3, pairs_l0_u2):
        mgr = mgr_for(f3)
        assert streett_mdp_basic(mgr, f3, pairs_l0_u2).winning == [0, 1, 2]
        for threshold in ("auto", 1, FORCE_LOCKSTEP):
            mgr = mgr_for(f3)
            report = streett_mdp_improved(mgr, f3, pairs_l0_u2, threshold=threshold)
            assert report.winning == [0, 1, 2]

    def test_unsatisfiable_request(self, f3):
        pairs = parse_pairs("pairs 1\nL 1 2\n", 3)
        mgr = mgr_for(f3)
        assert streett_mdp_basic(mgr, f3, pairs).winning == []
        mgr = mgr_for(f3)
        assert streett_mdp_improved(mgr, f3, pairs).winning == []

    def test_no_pairs_wins_everywhere(self, f3):
        # Every play eventually stays inside some end-component.
        mgr = mgr_for(f3)
        assert streett_mdp_basic(mgr, f3, StreettPairs(0, ())).winning == [0, 1, 2]

    def test_bad_strip_empties_component(self):
        model = parse_model(
            "mdp 4\ne 0 1\ne 1 0\ne 1 2\ne 2 3\ne 3 2\nrandom 1\n"
        )
        pairs = parse_pairs("pairs 1\nL 1 3\nU 1 0\n", 4)
        mgr = mgr_for(model)
        assert streett_mdp_basic(mgr, model, pairs).winning == []
        mgr = mgr_for(model)
        assert streett_mdp_improved(mgr, model, pairs).winning == []

    def test_lockstep_exercised_when_forced(self):
        # Stripping the bad vertex (and its attractor {0,1}) leaves the
        # 2-cycle {2,3}, whose candidate goes through the lock-step branch
        # under a huge threshold and is accepted whole.
        model = parse_model(
            "mdp 4\ne 0 1\ne 1 0\ne 1 2\ne 2 3\ne 3 2\ne 3 0\n"
        )
        pairs = parse_pairs("pairs 1\nL 1 1\n", 4)
        mgr = mgr_for(model)
        report = streett_mdp_improved(
            mgr, model, pairs, threshold=FORCE_LOCKSTEP, debug=True
        )
        assert report.winning == [0, 1, 2, 3]
        assert report.events["lockstep"] >= 1


class TestContracts:
    def test_rejects_graph(self, f1, f3, pairs_l0_u2):
        """A graph, or a bad threshold, is rejected before any counted step."""
        calls = [(f1, streett_mdp_basic, {}), (f1, streett_mdp_improved, {})]
        calls += [(f3, streett_mdp_improved, {"threshold": t}) for t in (0, "bogus")]
        for model, algorithm, kwargs in calls:
            mgr = mgr_for(model)
            with pytest.raises(UsageError):
                algorithm(mgr, model, pairs_l0_u2, **kwargs)
            assert mgr.snapshot_counters() == StepCounters(), (algorithm, kwargs)

    def test_preprocessing_counts_the_mec_initialization(self, f3, pairs_l0_u2):
        mgr = mgr_for(f3)
        report = streett_mdp_improved(mgr, f3, pairs_l0_u2)
        assert report.preprocessing.headline > 0
        assert report.counters.headline >= report.preprocessing.headline


class TestEquivalence:
    @pytest.mark.parametrize("threshold", ["auto", 1, FORCE_LOCKSTEP])
    def test_against_oracle_and_each_other(self, threshold):
        for seed in range(300):
            model, pairs = mdp_instance(seed)
            expected = explicit_streett_mdp(model, pairs)
            mgr = mgr_for(model)
            assert streett_mdp_basic(mgr, model, pairs).winning == expected, seed
            mgr = mgr_for(model)
            got = streett_mdp_improved(mgr, model, pairs, threshold=threshold)
            assert got.winning == expected, seed

    def test_oracle_against_brute_force(self):
        for seed in range(120):
            model, pairs = mdp_instance(seed)
            if model.n > 5:
                continue
            assert explicit_streett_mdp(model, pairs) == brute_streett_mdp(
                model, pairs
            ), seed

    def test_debug_invariants_hold(self):
        for seed in range(120):
            model, pairs = mdp_instance(seed)
            mgr = mgr_for(model)
            streett_mdp_basic(mgr, model, pairs, debug=True)
            mgr = mgr_for(model)
            streett_mdp_improved(mgr, model, pairs, debug=True)

    def test_backends_agree(self):
        for seed in range(60):
            model, pairs = mdp_instance(seed)
            reports = []
            for backend in ("bitset", "obdd"):
                mgr = mgr_for(model, backend)
                reports.append(streett_mdp_improved(mgr, model, pairs))
            assert reports[0].winning == reports[1].winning
            assert reports[0].counters == reports[1].counters

    def test_interleaving_beats_repeated_decomposition_on_cascades(self):
        """Chained request/grant pairs force one removal round per pair.

        The basic variant re-runs the full decomposition per round while
        the interleaved variant absorbs all rounds in one pass, so the
        step ratio shrinks roughly like 1/k.
        """
        from fairchk.model import Model

        ratios = []
        for n in (128, 256):
            edges = sorted(
                {(i, (i + 1) % n) for i in range(n)}
                | {(i, (i + 2) % n) for i in range(n)}
            )
            model = Model("mdp", n, tuple(edges), frozenset()).validate()
            k = n // 8
            anchors = [8 * i for i in range(k)]
            chain = [(frozenset({anchors[0]}), frozenset())]
            chain += [
                (frozenset({anchors[i]}), frozenset({anchors[i - 1]}))
                for i in range(1, k)
            ]
            pairs = StreettPairs(k, tuple(chain))
            mgr = mgr_for(model)
            basic = streett_mdp_basic(mgr, model, pairs)
            mgr = mgr_for(model)
            improved = streett_mdp_improved(mgr, model, pairs)
            assert basic.winning == improved.winning
            assert improved.events["bad_rounds"] == k
            ratios.append(improved.main_steps / basic.main_steps)
        assert ratios[0] < 0.2
        assert ratios[1] < ratios[0] / 1.5  # gap widens with size
