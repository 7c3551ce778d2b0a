"""Model and pairs parsing, validation, serialization, bad vertices."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchk import (
    ModelError,
    SymbolicManager,
    UsageError,
    bad_vertices,
    pair_sets,
    parse_model,
    parse_pairs,
    serialize_model,
    serialize_pairs,
)
from fairchk.model import Model, StreettPairs

from conftest import F1_TEXT, F3_TEXT, mgr_for
from helpers import random_graph, random_pairs


class TestParseModel:
    def test_graph(self):
        model = parse_model(F1_TEXT)
        assert model.kind == "graph"
        assert model.n == 3 and model.m == 3
        assert model.edges == ((0, 1), (1, 2), (2, 0))
        assert model.random_vertices == frozenset()

    def test_mdp(self):
        model = parse_model(F3_TEXT)
        assert model.kind == "mdp"
        assert model.random_vertices == frozenset({1})

    def test_sink_rejected(self):
        with pytest.raises(ModelError, match="vertex 1 has no outgoing edge"):
            parse_model("graph 2\ne 0 1\n")
        with pytest.raises(ModelError, match="vertex 2 has no outgoing edge"):
            parse_model("graph 3\ne 0 1\ne 0 2\ne 1 0\n")

    def test_sink_rejected_in_memory_bounded_by_edges(self):
        # A huge vertex count with one edge is rejected without a
        # per-vertex table, by the model and by the manager alike.
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="vertex 1 has no outgoing edge"):
                parse_model("graph 20000000\ne 0 0\n")
            with pytest.raises(UsageError, match="vertex 1 has no outgoing edge"):
                SymbolicManager(20_000_000, [(0, 0)], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            parse_model("graph 2\ne 0 1\ne 0 1\ne 1 0\n")

    def test_out_of_range_rejected_with_line(self):
        with pytest.raises(ModelError, match="line 3"):
            parse_model("graph 2\ne 0 1\ne 1 5\n")

    def test_random_in_graph_rejected(self):
        with pytest.raises(ModelError, match="only valid in mdp"):
            parse_model("graph 1\ne 0 0\nrandom 0\n")

    def test_comments_and_blank_lines(self):
        model = parse_model("# header\n\ngraph 1\ne 0 0  # loop\n")
        assert model.m == 1

    def test_bad_header(self):
        with pytest.raises(ModelError):
            parse_model("digraph 3\n")


class TestParsePairs:
    def test_basic(self):
        pairs = parse_pairs("pairs 1\nL 1 0\nU 1 2\n", 3)
        assert pairs.k == 1
        assert pairs.pairs == ((frozenset({0}), frozenset({2})),)

    def test_omitted_side_is_empty(self):
        pairs = parse_pairs("pairs 1\nL 1 1\n", 3)
        assert pairs.pairs == ((frozenset({1}), frozenset()),)

    def test_zero_pairs(self):
        assert parse_pairs("pairs 0\n", 5).k == 0

    def test_index_out_of_range(self):
        with pytest.raises(ModelError, match="outside 1..1"):
            parse_pairs("pairs 1\nL 2 0\n", 3)

    def test_vertex_out_of_range(self):
        with pytest.raises(ModelError, match="out of range"):
            parse_pairs("pairs 1\nU 1 9\n", 3)


@settings(max_examples=120, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
)
def test_round_trip(rng, n, mdp):
    m = rng.randint(n, min(n * n, 3 * n))
    edges = tuple(random_graph(rng, n, m))
    randoms = (
        frozenset(v for v in range(n) if rng.random() < 0.3) if mdp else frozenset()
    )
    model = Model("mdp" if mdp else "graph", n, edges, randoms).validate()
    assert parse_model(serialize_model(model)) == model
    pairs = random_pairs(rng, n, rng.randint(0, 4))
    assert parse_pairs(serialize_pairs(pairs), n) == pairs


class TestBadVertices:
    def test_missing_grant_marks_requests(self, f1):
        mgr = mgr_for(f1)
        pairs = StreettPairs(1, ((frozenset({0}), frozenset({2})),))
        bad = bad_vertices(mgr, mgr.from_ids([0, 1]), pairs)
        assert mgr.to_ids(bad) == [0]

    def test_present_grant_clears(self, f1):
        mgr = mgr_for(f1)
        pairs = StreettPairs(1, ((frozenset({0}), frozenset({2})),))
        assert mgr.to_ids(bad_vertices(mgr, mgr.universe, pairs)) == []

    def test_no_pairs(self, f1):
        mgr = mgr_for(f1)
        assert mgr.is_empty(bad_vertices(mgr, mgr.universe, StreettPairs(0, ())))

    def test_result_within_input_set(self, f1):
        mgr = mgr_for(f1)
        pairs = StreettPairs(1, ((frozenset({0, 1, 2}), frozenset()),))
        bad = bad_vertices(mgr, mgr.from_ids([1]), pairs)
        assert mgr.to_ids(bad) == [1]

    def test_set_operation_budget(self, f1):
        """At most 2k set operations per evaluation."""
        mgr = mgr_for(f1)
        k = 5
        pairs = random_pairs(__import__("random").Random(3), 3, k, density=0.4)
        psets = pair_sets(mgr, pairs)
        before = mgr.snapshot_counters()
        bad_vertices(mgr, mgr.universe, psets)
        delta = mgr.snapshot_counters() - before
        assert delta.set_ops <= 2 * k
        assert delta.headline == 0

    def test_all_grants_present_gives_empty(self, f1):
        """Whenever every pair's grant set meets the set, nothing is bad."""
        mgr = mgr_for(f1)
        pairs = StreettPairs(
            2,
            (
                (frozenset({0}), frozenset({1})),
                (frozenset({2}), frozenset({0, 2})),
            ),
        )
        assert mgr.is_empty(bad_vertices(mgr, mgr.universe, pairs))
