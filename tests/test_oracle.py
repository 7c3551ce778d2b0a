"""The explicit oracles themselves, validated on examples and brute force."""

from fairchk.model import Model, StreettPairs
from fairchk.oracle import (
    explicit_mec,
    explicit_streett_graph,
    explicit_streett_mdp,
    tarjan_scc,
    top_bottom_sccs,
)

from helpers import (
    brute_maximal_ecs,
    brute_streett_graph,
    graph_instance,
    mdp_instance,
)


class TestTarjan:
    def test_two_components(self, f2):
        assert tarjan_scc(f2) == [[0, 1], [2, 3]]

    def test_cycle(self, f1):
        assert tarjan_scc(f1) == [[0, 1, 2]]

    def test_empty_subset(self, f1):
        assert tarjan_scc(f1, []) == []

    def test_subgraph(self, f2):
        assert tarjan_scc(f2, [1, 2]) == [[1], [2]]

    def test_deep_path_no_recursion_limit(self):
        n = 5000
        edges = tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)
        model = Model("graph", n, edges, frozenset())
        assert tarjan_scc(model) == [sorted(range(n))]


class TestTopBottomSccs:
    def test_two_components(self, f2):
        assert top_bottom_sccs(f2) == ([[0, 1]], [[2, 3]])

    def test_single_component_is_both(self, f1):
        assert top_bottom_sccs(f1) == ([[0, 1, 2]], [[0, 1, 2]])

    def test_subgraph(self, f2):
        # Inside {0, 1, 2} the edge 2 -> 3 leaves the subgraph and counts
        # for nothing.
        assert top_bottom_sccs(f2, [0, 1, 2]) == ([[0, 1]], [[2]])
        assert top_bottom_sccs(f2, []) == ([], [])


class TestExplicitMec:
    def test_example(self, f3):
        assert explicit_mec(f3) == [[2]]

    def test_all_player_cycle(self, f1):
        assert explicit_mec(f1) == [[0, 1, 2]]

    def test_single_self_loop(self):
        model = Model("mdp", 1, ((0, 0),), frozenset())
        assert explicit_mec(model) == [[0]]


class TestExplicitStreett:
    def test_graph_strongly_connected_without_bad_is_won_everywhere(self, f1):
        pairs = StreettPairs(1, ((frozenset({0}), frozenset({2})),))
        assert explicit_streett_graph(f1, pairs) == [0, 1, 2]

    def test_graph_oracle_matches_subset_enumeration(self):
        checked = 0
        for seed in range(300):
            model, pairs = graph_instance(seed)
            if model.n > 7:
                continue
            checked += 1
            assert explicit_streett_graph(model, pairs) == brute_streett_graph(
                model, pairs
            ), seed
        assert checked > 50

    def test_mec_oracle_matches_subset_enumeration(self):
        checked = 0
        for seed in range(300):
            model, _ = mdp_instance(seed)
            if model.n > 7:
                continue
            checked += 1
            assert explicit_mec(model) == brute_maximal_ecs(model), seed
        assert checked > 50

    def test_mdp_oracle_example(self, f3):
        pairs = StreettPairs(1, ((frozenset({0}), frozenset({2})),))
        assert explicit_streett_mdp(f3, pairs) == [0, 1, 2]
