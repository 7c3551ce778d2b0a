"""End-component decomposition: examples, equivalences, invariants."""

import pytest

from fairchk import SymbolicManager, mec_basic, mec_decomposition, mec_improved
from fairchk import all_sccs, generate_objects, parse_model
from fairchk.oracle import explicit_mec

from conftest import mgr_for
from helpers import brute_maximal_ecs, mdp_instance

FORCE_LOCKSTEP = 10**9


class TestExamples:
    def test_random_vertex_breaks_component(self, f3):
        # {0,1} dies because the random vertex can leave; {2} self-loops.
        mgr = mgr_for(f3)
        assert mec_basic(mgr, f3).components == [[2]]
        for threshold in ("auto", 1, FORCE_LOCKSTEP):
            mgr = mgr_for(f3)
            assert mec_improved(mgr, f3, threshold=threshold).components == [[2]]

    def test_plain_cycle_is_one_component(self, f1):
        mgr = mgr_for(f1)
        assert mec_basic(mgr, f1).components == [[0, 1, 2]]

    def test_random_self_escape(self):
        model = parse_model("mdp 2\ne 0 0\ne 0 1\ne 1 1\nrandom 0\n")
        mgr = mgr_for(model)
        assert mec_basic(mgr, model).components == [[1]]
        mgr = mgr_for(model)
        assert mec_improved(mgr, model).components == [[1]]

    def test_trivial_component_needs_self_loop(self):
        model = parse_model("mdp 2\ne 0 1\ne 1 0\ne 1 1\nrandom 0\n")
        # one MEC {0,1}; no singleton components without self-loops
        mgr = mgr_for(model)
        assert mec_basic(mgr, model).components == [[0, 1]]


class TestEquivalence:
    @pytest.mark.parametrize("threshold", ["auto", 1, FORCE_LOCKSTEP])
    def test_against_oracle_and_each_other(self, threshold):
        for seed in range(300):
            model, _ = mdp_instance(seed)
            expected = explicit_mec(model)
            mgr = mgr_for(model)
            assert mec_basic(mgr, model).components == expected, seed
            mgr = mgr_for(model)
            got = mec_improved(mgr, model, threshold=threshold)
            assert got.components == expected, seed

    def test_oracle_against_subset_enumeration(self):
        for seed in range(150):
            model, _ = mdp_instance(seed)
            if model.n > 7:
                continue
            assert explicit_mec(model) == brute_maximal_ecs(model), seed

    def test_debug_invariants_hold(self):
        # Threshold 1 forces the SCC split and 10**9 the lock-step split of
        # the improved loop, each under the candidate and cover checks.  The
        # sparse generated MDPs split far more often than the small dense
        # criteria instances.
        models = [mdp_instance(seed)[0] for seed in range(120)]
        models += [
            generate_objects("mdp-random", n=32, m=48, random_fraction=0.2,
                             seed=seed)[0]
            for seed in range(20)
        ]
        splits = {"rescc": 0, "lockstep": 0}
        for model in models:
            mec_basic(mgr_for(model), model, debug=True)
            for threshold, event in (("auto", None), (1, "rescc"),
                                     (FORCE_LOCKSTEP, "lockstep")):
                report = mec_improved(mgr_for(model), model, threshold=threshold,
                                      debug=True)
                if event:
                    splits[event] += report.events[event]
        assert min(splits.values()) >= 5, splits

    def test_universe_restriction(self):
        for seed in range(100):
            model, _ = mdp_instance(seed)
            rng = __import__("random").Random(seed ^ 0xEC)
            svs = sorted(
                v
                for v in range(model.n)
                if rng.random() < 0.6
            )
            mgr = mgr_for(model)
            got, _ = mec_decomposition(
                mgr, model, all_sccs(mgr, mgr.from_ids(svs)))
            assert [mgr.to_ids(c) for c in got] == explicit_mec(model, svs), seed

    def test_graphs_allowed(self, f2):
        # Graph models decompose into their nontrivial SCCs.
        mgr = mgr_for(f2)
        assert mec_basic(mgr, f2).components == [[0, 1], [2, 3]]

    def test_accepted_components_are_maximal(self):
        from helpers import is_end_component

        for seed in range(120):
            model, _ = mdp_instance(seed)
            mgr = mgr_for(model)
            comps = [set(c) for c in mec_improved(mgr, model).components]
            for i, a in enumerate(comps):
                for b in comps[i + 1:]:
                    assert not (a <= b or b <= a)
                    assert not is_end_component(model, sorted(a | b))

    def test_backends_agree(self):
        for seed in range(60):
            model, _ = mdp_instance(seed)
            reports = [
                mec_improved(SymbolicManager.from_model(model, backend=b), model)
                for b in ("bitset", "obdd")
            ]
            assert reports[0].components == reports[1].components
            assert reports[0].counters == reports[1].counters
