"""Decision-diagram backend internals."""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from fairchk import SymbolicManager, mec_basic, streett_mdp_basic
from fairchk.model import Model
from fairchk.obdd import ObddBackend
from fairchk.symbolic import _BitsetBackend

from helpers import (
    BITSET_REPRESENTATIONS,
    bitset_representation,
    random_graph,
    reference_obdd_layers,
    reference_obdd_spine,
    sized_ids,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import chain_mdp, ladder_mec  # noqa: E402


def _backend(n, edges, randoms=frozenset()):
    return ObddBackend(n, edges, randoms)


def _layer_ids(backend, layers):
    """Vertex ids of each layer of a search: OBDD layers are their ids,
    bitset layers are masks."""
    if isinstance(backend, ObddBackend):
        return layers
    return [backend.to_ids(h) for h in layers]


class TestSetsAndCounting:
    def test_from_to_ids_round_trip(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 7, 8, 13, 64):
            backend = _backend(n, [(v, v) for v in range(n)])
            for _ in range(20):
                ids = sorted(rng.sample(range(n), rng.randint(0, n)))
                h = backend.from_ids(ids)
                assert backend.to_ids(h) == ids
                assert backend.card(h) == len(ids)
                if ids:
                    assert backend.min_vertex(h) == ids[0]

    def test_universe_excludes_padding(self):
        # n=5 needs 3 bits; ids 5..7 must not leak into any result.
        backend = _backend(5, [(v, (v + 1) % 5) for v in range(5)])
        assert backend.to_ids(backend.universe()) == [0, 1, 2, 3, 4]
        assert backend.to_ids(backend.complement(backend.empty())) == [0, 1, 2, 3, 4]
        assert backend.card(backend.universe()) == 5

    def test_single_vertex_model(self):
        backend = _backend(1, [(0, 0)])
        assert backend.to_ids(backend.universe()) == [0]
        assert backend.to_ids(backend.pre(backend.universe())) == [0]


class TestEdgeOperators:
    def test_pre_post_on_random_graphs(self):
        rng = random.Random(11)
        for trial in range(60):
            n = rng.randint(1, 20)
            m = rng.randint(n, min(3 * n, n * n))
            edges = random_graph(rng, n, m)
            model = Model("graph", n, tuple(edges), frozenset()).validate()
            backend = _backend(n, edges)
            out = model.out_adjacency()
            radj = model.in_adjacency()
            for _ in range(10):
                ids = {v for v in range(n) if rng.random() < 0.4}
                h = backend.from_ids(sorted(ids))
                pre_expected = sorted(
                    {u for u in range(n) if set(out[u]) & ids}
                )
                post_expected = sorted(
                    {v for v in range(n) if set(radj[v]) & ids}
                )
                assert backend.to_ids(backend.pre(h)) == pre_expected
                assert backend.to_ids(backend.post(h)) == post_expected

    def test_node_table_is_shared(self):
        backend = _backend(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        a = backend.from_ids([1, 3])
        b = backend.from_ids([1, 3])
        assert a == b  # hash-consing gives canonical node ids


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 33, 100])
def test_ops_match_bitset_backend(n):
    """Op by op, the decision diagrams hold the same sets as the bit masks
    and as the bitset backend on neighbour tuples."""
    rng = random.Random(1000 + n)
    edges = random_graph(rng, n, rng.randint(n, min(3 * n, n * n)))
    randoms = frozenset(v for v in range(n) if rng.random() < 0.4)
    backends = [ObddBackend(n, edges, randoms)]
    for name in BITSET_REPRESENTATIONS:
        with bitset_representation(name):
            backends.append(_BitsetBackend(n, edges, randoms))
        assert (backends[-1].in_masks is None) == (name == "tuples")

    def random_ids():
        if rng.random() < 0.5:
            return rng.choice(sized_ids(rng, n))
        density = rng.choice((0.0, 0.1, 0.5, 0.9, 1.0))
        return [v for v in range(n) if rng.random() < density]

    for _ in range(25):
        a_ids, b_ids, v = random_ids(), random_ids(), rng.randrange(n)
        results = []
        for bk in backends:
            a, b = bk.from_ids(a_ids), bk.from_ids(b_ids)
            sets = [
                bk.singleton(v), bk.union(a, b), bk.intersect(a, b),
                bk.difference(a, b), bk.difference(b, a), bk.complement(a),
                bk.pre(a), bk.post(a), bk.cpre_random(a, bk.universe()),
                bk.cpre_random(a, b),
            ]
            # The skeleton kernel's loops: the forward search from v inside
            # a ∪ {v} and its spine, then both searches from b, possibly
            # empty, inside a.  A search's layer count is its step count.
            pivot = bk.singleton(v)
            layers, fw = bk.layers(1, pivot, bk.union(a, pivot))
            searches = [bk.layers(side, b, a) for side in (0, 1)]
            results.append((
                [bk.to_ids(h) for h in sets],
                bk.card(a),
                bk.min_vertex(a) if a_ids else None,
                _layer_ids(bk, layers), bk.to_ids(fw),
                bk.spine(layers),
                [(_layer_ids(bk, found), bk.to_ids(seen)) for found, seen in searches],
                bk.spine(searches[1][0]) if b_ids else None,
            ))
        assert results[0] == results[1] == results[2], (n, a_ids, b_ids, v)


def test_ladder_mec_node_table_stays_linear():
    """The basic MEC solve of the benchmark's ladder keeps its node table
    within 15 nodes per vertex; it ends with about 11.6.  Spines grown one
    binary union at a time left about 91 per vertex here, every partial
    spine a dead BDD, and searches that grew every partial union of their
    layers by `or_` left 24.2."""
    model, _ = ladder_mec(0, d=64)
    mgr = SymbolicManager.from_model(model, backend="obdd")
    mec_basic(mgr, model)
    assert len(mgr._b.dd.level) <= 15 * model.n


def test_ladder_mec_apply_cache_stays_linear():
    """The same solve keeps its apply cache within 60 entries per vertex;
    it ends with about 45.4.  With every one-vertex image taken by the
    relational product, and cut to its layer by a conjunction and a
    difference, it held about 235 per vertex here, and with the searches'
    layers and spine hops taken by BDD operations, 160."""
    model, _ = ladder_mec(0, d=64)
    mgr = SymbolicManager.from_model(model, backend="obdd")
    mec_basic(mgr, model)
    assert len(mgr._b.dd._cache) <= 60 * model.n


def test_ring_mdp_fairness_node_table_stays_linear():
    """Basic MDP fairness on the benchmark's bidirected ring gives on OBDDs
    the bitset solve's winning set, events and six counters, and keeps its
    node table within 12 nodes per vertex; it ends with about 7.4.  With
    every search's partial unions grown by `or_` it ended with 67.6."""
    model, pairs = chain_mdp(0, n=256, k=32)
    reports = []
    for backend in ("bitset", "obdd"):
        mgr = SymbolicManager.from_model(model, backend=backend)
        reports.append(streett_mdp_basic(mgr, model, pairs))
    bits, obdd = reports
    assert (obdd.winning, obdd.events, obdd.counters, obdd.preprocessing) == (
        bits.winning, bits.events, bits.counters, bits.preprocessing)
    assert len(mgr._b.dd.level) <= 12 * model.n


def _sparse_graph(rng, n):
    """Edges of a random graph on `n` vertices with out-degrees 0, 1 and
    several, and self-loops: most one-vertex sets have one-vertex images."""
    edges = set()
    for u in range(n):
        degree = rng.choice((0, 1, 1, 1, rng.randint(2, 4)))
        edges.update((u, rng.randrange(n)) for _ in range(degree))
        if rng.random() < 0.2:
            edges.add((u, u))
    return sorted(edges)


def test_one_vertex_images_match_relational_product():
    """The relational product's `pre` and `post` of every one-vertex set
    are the neighbours of the vertex."""
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(1, 64)
        edges = _sparse_graph(rng, n)
        backend = _backend(n, edges)
        succ = [sorted({v for u, v in edges if u == w}) for w in range(n)]
        pred = [sorted({u for u, v in edges if v == w}) for w in range(n)]
        for v in range(n):
            assert backend.to_ids(backend.pre(backend.singleton(v))) == pred[v]
            assert backend.to_ids(backend.post(backend.singleton(v))) == succ[v]


def _search_cases(seed):
    """60 random graphs, sparse or dense, each as ``(n, edges, searches)``
    with 10 searches ``(side, start ids, within ids)``: half from one
    vertex, some from one vertex and vertices with no neighbour on the
    side searched, the rest from a random subset."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 64)
        if rng.random() < 0.5:
            edges = _sparse_graph(rng, n)
        else:
            edges = random_graph(rng, n, rng.randint(2 * n, 4 * n) if n > 4 else n * n)
        # Per side, the vertices with no neighbour on it: added to a start,
        # they leave its image as it is.
        lonely = [[w for w in range(n) if all(e[1 - side] != w for e in edges)]
                  for side in (0, 1)]
        searches = []
        for _ in range(10):
            density = rng.choice((0.3, 0.5, 0.8, 1.0))
            within_ids = [v for v in range(n) if rng.random() < density]
            side = rng.randrange(2)
            draw = rng.random()
            if draw < 0.5:
                start_ids = [rng.randrange(n)]
            elif draw < 0.8:
                start_ids = {rng.randrange(n), *rng.sample(lonely[side], min(
                    len(lonely[side]), rng.randint(1, 2)))}
                if len(start_ids) < 2:
                    start_ids = rng.sample(range(n), min(n, rng.randint(2, 3)))
            else:
                start_ids = rng.sample(range(n), rng.randint(0, n))
            searches.append((side, start_ids, within_ids))
        yield n, edges, searches


def test_one_vertex_layers_and_spine_match_reference():
    """`layers` and `spine` give the vertices of plain BDD operations on
    every layer, their union and the spine, and leave a node table no
    larger.

    At least 20 searches start from one vertex, 20 from several, and 20
    meet a layer of more than 8 vertices."""
    paths = Counter()
    for n, edges, searches in _search_cases(2025):
        fast, ref = _backend(n, edges), _backend(n, edges)
        for side, start_ids, within_ids in searches:
            start, within = ref.from_ids(start_ids), ref.from_ids(within_ids)
            got = fast.layers(side, fast.from_ids(start_ids), fast.from_ids(within_ids))
            expected = reference_obdd_layers(ref, side, start, within)
            layer_ids = [ref.to_ids(h) for h in expected[0]]
            assert got[0] == layer_ids
            assert fast.to_ids(got[1]) == ref.to_ids(expected[1])
            if side == 1 and start_ids:
                assert fast.spine(got[0]) == reference_obdd_spine(ref, expected[0])
            assert len(fast.dd.level) <= len(ref.dd.level)

            size = min(len(start_ids), 2)
            paths[("none", "one", "several")[size]] += 1
            paths["wide"] += max(map(len, layer_ids), default=0) > 8
    assert min(paths[kind] for kind in ("one", "several", "wide")) >= 20, paths


def test_searches_build_only_their_union():
    """A search builds no BDD but the union of its layers: after each one
    the node table is that of a twin backend that built only the start,
    the bound and the union from their ids, in that order.

    Of the 600 searches, 327 reach a layer of several vertices past the
    start, so a search that built such a layer would add nodes."""
    several = 0
    for n, edges, searches in _search_cases(2026):
        bk, twin = _backend(n, edges), _backend(n, edges)
        for side, start_ids, within_ids in searches:
            layers, union = bk.layers(side, bk.from_ids(start_ids), bk.from_ids(within_ids))
            for ids in (start_ids, within_ids, bk.to_ids(union)):
                twin.from_ids(ids)
            assert (bk.dd.level, bk.dd.low, bk.dd.high) == (
                twin.dd.level, twin.dd.low, twin.dd.high)
            several += any(len(layer) > 1 for layer in layers[1:])
    assert several >= 20, several
