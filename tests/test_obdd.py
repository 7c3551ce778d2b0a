"""Decision-diagram backend internals."""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from fairchk import SymbolicManager, mec_basic
from fairchk.model import Model
from fairchk.obdd import ObddBackend
from fairchk.symbolic import _BitsetBackend

from helpers import (
    BITSET_REPRESENTATIONS,
    bitset_representation,
    random_graph,
    reference_obdd_image,
    reference_obdd_layers,
    reference_obdd_spine,
    sized_ids,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import ladder_mec  # noqa: E402


def _backend(n, edges, randoms=frozenset()):
    return ObddBackend(n, edges, randoms)


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
            layers, fw = bk.layers(bk.post, pivot, bk.union(a, pivot))
            searches = [bk.layers(image, b, a) for image in (bk.pre, bk.post)]
            results.append((
                [bk.to_ids(h) for h in sets],
                bk.card(a),
                bk.min_vertex(a) if a_ids else None,
                [bk.to_ids(h) for h in (*layers, fw)],
                bk.spine(layers),
                [([bk.to_ids(h) for h in found], bk.to_ids(seen))
                 for found, seen in searches],
                bk.spine(searches[1][0]) if b_ids else None,
            ))
        assert results[0] == results[1] == results[2], (n, a_ids, b_ids, v)


def test_ladder_mec_node_table_stays_linear():
    """The basic MEC solve of the benchmark's ladder keeps its node table
    within 30 nodes per vertex.  Spines grown one binary union at a time
    left about 91 per vertex here, every partial spine a dead BDD."""
    model, _ = ladder_mec(0, d=64)
    mgr = SymbolicManager.from_model(model, backend="obdd")
    mec_basic(mgr, model)
    assert len(mgr._b.dd.level) <= 30 * model.n


def test_ladder_mec_apply_cache_stays_linear():
    """The same solve keeps its apply cache within 180 entries per vertex.
    With every one-vertex image taken by the relational product, and cut
    to its layer by a conjunction and a difference, it held about 235 per
    vertex here."""
    model, _ = ladder_mec(0, d=64)
    mgr = SymbolicManager.from_model(model, backend="obdd")
    mec_basic(mgr, model)
    assert len(mgr._b.dd._cache) <= 180 * model.n


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
    """`pre` and `post` of every one-vertex set, asked in random order and
    twice each, are the relational product's handles on a fresh backend
    and the neighbours of the vertex; `is_single` and `has_loop` read
    the same sets."""
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(1, 64)
        edges = _sparse_graph(rng, n)
        table, fresh = _backend(n, edges), _backend(n, edges)
        succ = [sorted({v for u, v in edges if u == w}) for w in range(n)]
        pred = [sorted({u for u, v in edges if v == w}) for w in range(n)]
        calls = [(side, v) for side in (0, 1) for v in range(n)] * 2
        rng.shuffle(calls)
        for side, v in calls:
            got = (table.pre, table.post)[side](table.singleton(v))
            assert got == reference_obdd_image(fresh, side, fresh.singleton(v))
            assert table.to_ids(got) == (pred, succ)[side][v]
        assert len(table.dd.level) == len(fresh.dd.level)
        for v in range(n):
            assert table.has_loop(v) == ((v, v) in edges)
        for ids in sized_ids(rng, n):
            assert table.is_single(table.from_ids(ids)) == (len(ids) == 1)


def test_one_vertex_layers_and_spine_match_reference():
    """`layers` and `spine`, one-vertex images read from the image table
    and placed by membership walks, give the handles of plain BDD
    operations on every layer, and leave a node table of the same size."""
    rng = random.Random(2025)
    met = Counter()
    for _ in range(40):
        n = rng.randint(1, 64)
        edges = _sparse_graph(rng, n)
        fast, ref = _backend(n, edges), _backend(n, edges)
        for _ in range(10):
            density = rng.choice((0.5, 0.8, 1.0))
            within_ids = [v for v in range(n) if rng.random() < density]
            if rng.random() < 0.7:
                start_ids = [rng.randrange(n)]
            else:
                start_ids = rng.sample(range(n), rng.randint(0, n))
            side = rng.randrange(2)
            start, within = fast.from_ids(start_ids), fast.from_ids(within_ids)
            assert start == ref.from_ids(start_ids)
            assert within == ref.from_ids(within_ids)
            got = fast.layers((fast.pre, fast.post)[side], start, within)
            expected = reference_obdd_layers(ref, side, start, within)
            assert got == expected
            assert len(fast.dd.level) == len(ref.dd.level)
            if side == 1 and start_ids:
                assert fast.spine(got[0]) == reference_obdd_spine(ref, expected[0])
                assert len(fast.dd.level) == len(ref.dd.level)
            # Which kinds of one-vertex image the search met.
            seen = set()
            for layer in expected[0]:
                ids = ref.to_ids(layer)
                seen.update(ids)
                image = ref.to_ids(reference_obdd_image(ref, side, layer))
                if len(ids) == len(image) == 1:
                    w = image[0]
                    met["outside" if w not in within_ids
                        else "seen" if w in seen else "new"] += 1
    assert min(met[kind] for kind in ("outside", "seen", "new")) >= 20, met
