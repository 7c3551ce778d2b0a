"""Model and pairs parsing, validation, serialization, bad vertices."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchk import (
    ModelError,
    SymbolicManager,
    UsageError,
    bad_vertices,
    oracle,
    pair_sets,
    parse_model,
    parse_pairs,
    serialize_model,
    serialize_pairs,
    streett_graph_basic,
    streett_graph_improved,
    streett_mdp_basic,
    streett_mdp_improved,
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
        # per-vertex table, by the parser and by the manager alike.
        tracemalloc.start()
        try:
            with pytest.raises(ModelError, match="vertex 1 has no outgoing edge"):
                parse_model("graph 20000000\ne 0 0\n")
            with pytest.raises(ModelError, match="vertex 1 has no outgoing edge"):
                SymbolicManager.from_model(Model("graph", 20_000_000, ((0, 0),), frozenset()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_pairs_memory_bounded_by_named_pairs(self):
        # A billion declared pairs, one of them named with a request (pair
        # 9 grants only): parsing and solving cost what that pair costs.
        solvers = {
            "graph": (streett_graph_basic, streett_graph_improved,
                      oracle.explicit_streett_graph),
            "mdp": (streett_mdp_basic, streett_mdp_improved,
                    oracle.explicit_streett_mdp),
        }
        text = "pairs 1000000000\nL 7 0\nU 7 2\nU 9 1\n"
        for kind, (basic, improved, explicit) in solvers.items():
            tracemalloc.start()
            try:
                model = parse_model(f"{kind} 3\ne 0 1\ne 1 2\ne 2 0\n")
                pairs = parse_pairs(text, model.n)
                mgr = SymbolicManager.from_model(model)
                psets = pair_sets(mgr, pairs)
                before = mgr.snapshot_counters()
                bad = bad_vertices(mgr, mgr.from_ids([0, 1]), psets)
                charged = mgr.snapshot_counters() - before
                reports = [solve(SymbolicManager.from_model(model), model, pairs)
                           for solve in (basic, improved)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32_000_000, kind
            assert pairs.k == 10**9
            assert pairs.pairs == ((frozenset({0}), frozenset({2})),)
            assert mgr.to_ids(bad) == [0]
            assert charged.set_ops == 2  # one pair visited, one union
            for report in reports:
                assert report.winning == explicit(model, pairs) == [0, 1, 2]
                assert report.counters.set_ops < 100, (kind, report.algorithm)

    def test_bitset_manager_memory_bounded_by_edges(self):
        # Mask tables would hold 38.7 MB here: each mask reaches its
        # highest neighbour id.
        n = 16_384
        edges = random_graph(random.Random(7), n, 3 * n // 2)
        model = Model("graph", n, tuple(edges), frozenset()).validate()
        tracemalloc.start()
        try:
            mgr = SymbolicManager.from_model(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert mgr.cardinality(mgr.post(mgr.universe)) == len({v for _, v in edges})

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

    def test_pairs_without_requests_are_dropped(self):
        pairs = parse_pairs("pairs 5\nU 1 2\nL 4 1\nL 2\nU 2 0\nU 4 0\n", 3)
        assert pairs.k == 5
        assert pairs.pairs == ((frozenset({1}), frozenset({0})),)
        assert StreettPairs(5, ((frozenset(), frozenset({2})),
                                (frozenset({1}), frozenset({0})))) == pairs
        assert serialize_pairs(pairs) == "pairs 5\nL 1 1\nU 1 0\n"

    def test_more_pairs_than_declared_rejected(self):
        pairs = StreettPairs(1, ((frozenset({0}), frozenset()),
                                 (frozenset({1}), frozenset())))
        with pytest.raises(ModelError, match="exceed the pair count 1"):
            pairs.validate(3)

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
    # Request-free entries anywhere, and a declared count above the list.
    given = list(random_pairs(rng, n, rng.randint(0, 4)).pairs)
    for _ in range(rng.randint(1, 3)):
        right = frozenset(v for v in range(n) if rng.random() < 0.5)
        given.insert(rng.randint(0, len(given)), (frozenset(), right))
    pairs = StreettPairs(len(given) + rng.randint(0, 10**9), tuple(given))
    assert pairs.pairs == tuple(p for p in given if p[0])
    assert parse_pairs(serialize_pairs(pairs), n) == pairs.validate(n)


DEFECTS = ("duplicate", "edge_range", "graph_random", "random_range", "sink", "size")
LINE_DEFECTS = {"duplicate", "edge_range", "graph_random", "random_range"}


def _malform(rng, model, defect):
    """`model` with `defect` added; ``size`` must come last."""
    kind, n = model.kind, model.n
    edges, randoms = list(model.edges), set(model.random_vertices)
    at = rng.randint(0, len(edges))
    if defect == "duplicate" and edges:
        edges.insert(at, rng.choice(edges))
    elif defect == "edge_range":
        bad = rng.choice([-1, n, n + 3])
        edges.insert(at, rng.choice([(bad, rng.randrange(n)), (rng.randrange(n), bad)]))
    elif defect == "graph_random":
        kind = "graph"
        randoms.add(rng.randrange(n))
    elif defect == "random_range":
        randoms.add(rng.choice([-1, n, n + 3]))
    elif defect == "sink":
        sink = rng.randrange(n)
        edges = [e for e in edges if e[0] != sink]
    elif defect == "size":
        n = rng.choice([0, -1, -n])
        if rng.random() < 0.5:
            edges, randoms = [], set()
    return Model(kind, n, tuple(edges), frozenset(randoms))


@settings(max_examples=300, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.sets(st.sampled_from(DEFECTS), max_size=3),
)
def test_parse_rejects_what_validate_rejects(rng, n, mdp, defects):
    # Parsing checks each fact once, not through validate(); it must still
    # reject a serialized model exactly when validate() does.
    edges = tuple(random_graph(rng, n, rng.randint(n, min(n * n, 3 * n))))
    randoms = frozenset(v for v in range(n) if mdp and rng.random() < 0.3)
    model = Model("mdp" if mdp else "graph", n, edges, randoms)
    for defect in sorted(defects):
        model = _malform(rng, model, defect)
    try:
        model.validate()
    except ModelError:
        with pytest.raises(ModelError) as err:
            parse_model(serialize_model(model))
        if defects <= LINE_DEFECTS:
            assert err.value.line is not None
    else:
        assert not defects
        assert parse_model(serialize_model(model)) == model


class TestBadVertices:
    def test_missing_grant_marks_requests(self, f1):
        mgr = mgr_for(f1)
        psets = pair_sets(mgr, StreettPairs(1, ((frozenset({0}), frozenset({2})),)))
        bad = bad_vertices(mgr, mgr.from_ids([0, 1]), psets)
        assert mgr.to_ids(bad) == [0]

    def test_present_grant_clears(self, f1):
        mgr = mgr_for(f1)
        psets = pair_sets(mgr, StreettPairs(1, ((frozenset({0}), frozenset({2})),)))
        assert mgr.to_ids(bad_vertices(mgr, mgr.universe, psets)) == []

    def test_no_pairs(self, f1):
        mgr = mgr_for(f1)
        psets = pair_sets(mgr, StreettPairs(0, ()))
        before = mgr.snapshot_counters()
        assert mgr.is_empty(bad_vertices(mgr, mgr.universe, psets))
        assert mgr.snapshot_counters() == before

    def test_result_within_input_set(self, f1):
        mgr = mgr_for(f1)
        psets = pair_sets(mgr, StreettPairs(1, ((frozenset({0, 1, 2}), frozenset()),)))
        bad = bad_vertices(mgr, mgr.from_ids([1]), psets)
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
        assert mgr.is_empty(bad_vertices(mgr, mgr.universe, pair_sets(mgr, pairs)))

    def test_matches_handle_level_fold(self, backend):
        """The raw-handle fold returns and charges what the same manager
        calls do."""

        def fold(mgr, svs, pairs):
            acc = None
            for left, right in pairs.pairs:
                if mgr.is_empty(mgr.intersect(mgr.from_ids(right), svs)):
                    left = mgr.from_ids(left)
                    acc = left if acc is None else mgr.union(acc, left)
            return mgr.empty() if acc is None else mgr.intersect(acc, svs)

        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 12)
            edges = random_graph(rng, n, rng.randint(n, min(3 * n, n * n)))
            model = Model("graph", n, tuple(edges), frozenset())
            pairs = random_pairs(rng, n, rng.randint(0, 5), density=0.3)
            ids = [v for v in range(n) if rng.random() < 0.6]
            runs = []
            for bad, table in ((bad_vertices, pair_sets), (fold, lambda mgr, pairs: pairs)):
                mgr = mgr_for(model, backend)
                got = bad(mgr, mgr.from_ids(ids), table(mgr, pairs))
                runs.append((mgr.to_ids(got), mgr.snapshot_counters()))
            assert runs[0] == runs[1], (n, pairs, ids)

    @pytest.mark.parametrize("side", [0, 1])
    def test_foreign_pair_handle_rejected(self, f1, side):
        """A table of another manager is refused before anything is
        counted, whether the fold would read the grant alone (side 1: the
        grant meets the set) or both sides of the pair (side 0)."""
        mgr, other = mgr_for(f1), mgr_for(f1)
        grant = frozenset({0}) if side else frozenset()
        psets = pair_sets(other, StreettPairs(1, ((frozenset({0}), grant),)))
        before = mgr.snapshot_counters()
        with pytest.raises(UsageError, match="different manager"):
            bad_vertices(mgr, mgr.universe, psets)
        assert mgr.snapshot_counters() == before
