"""Symbolic layer: one-step operators, set algebra, counters, backends."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchk import (
    ModelError,
    StepCounters,
    SymbolicManager,
    UsageError,
    all_sccs,
    lock_step_search,
    parse_model,
)
from fairchk.model import Model
from fairchk.symbolic import _BitsetBackend

from conftest import F1_TEXT, mgr_for
from helpers import BITSET_REPRESENTATIONS, bitset_representation, random_graph, sized_ids


def ids(mgr, vs):
    return mgr.to_ids(vs)


class TestPre:
    def test_cycle(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.pre(mgr.from_ids([2]))) == [1]

    def test_empty(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.pre(mgr.empty())) == []

    def test_two_components(self, f2, backend):
        mgr = mgr_for(f2, backend)
        assert ids(mgr, mgr.pre(mgr.from_ids([0, 1]))) == [0, 1]


class TestPost:
    def test_cycle(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.post(mgr.from_ids([2]))) == [0]

    def test_universe(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.post(mgr.universe)) == [0, 1, 2]

    def test_empty(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.post(mgr.empty())) == []


class TestCpreRandom:
    def test_mdp(self, f3, backend):
        mgr = mgr_for(f3, backend)
        assert ids(mgr, mgr.cpre_random(mgr.from_ids([2]))) == [1, 2]

    def test_whole_universe(self, f3, backend):
        mgr = mgr_for(f3, backend)
        assert mgr.cpre_random(mgr.universe) == mgr.universe

    def test_single_target(self, f3, backend):
        mgr = mgr_for(f3, backend)
        assert ids(mgr, mgr.cpre_random(mgr.from_ids([0]))) == [1]


class TestCardinalityAndPick:
    def test_cardinality(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert mgr.cardinality(mgr.empty()) == 0
        assert mgr.cardinality(mgr.from_ids([0, 2])) == 2
        assert mgr.cardinality(mgr.universe) == 3

    def test_pick_minimum(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert mgr.pick(mgr.from_ids([2])) == 2
        assert mgr.pick(mgr.from_ids([1, 2])) == 1
        assert mgr.pick(mgr.universe) == 0

    def test_pick_empty_raises(self, f1, backend):
        mgr = mgr_for(f1, backend)
        with pytest.raises(UsageError):
            mgr.pick(mgr.empty())


class TestSetAlgebra:
    def test_identities(self, f1, backend):
        mgr = mgr_for(f1, backend)
        a = mgr.from_ids([0, 1])
        assert mgr.union(a, mgr.empty()) == a
        assert ids(mgr, mgr.difference(a, a)) == []
        assert ids(mgr, mgr.intersect(a, mgr.from_ids([1, 2]))) == [1]
        assert ids(mgr, mgr.complement(a)) == [2]

    def test_union_all_counts_as_a_fold_of_unions(self, f1, backend):
        mgr = mgr_for(f1, backend)
        a, b = mgr.from_ids([0]), mgr.from_ids([0, 2])
        for members, want in (([], []), ([b], [0, 2]), ([a, b, a], [0, 2])):
            before = mgr.snapshot_counters().set_ops
            # A one-shot iterator is read once.
            assert ids(mgr, mgr.union_all(iter(members))) == want
            assert mgr.snapshot_counters().set_ops - before == len(members)


class TestCounters:
    def test_fresh_manager_all_zero(self, f1):
        mgr = mgr_for(f1)
        counters = mgr.snapshot_counters()
        assert counters.headline == 0
        assert counters.as_dict() == {
            "pre_ops": 0,
            "post_ops": 0,
            "cpre_ops": 0,
            "set_ops": 0,
            "cardinality_ops": 0,
            "pick_ops": 0,
        }

    def test_additive_across_calls(self, f1):
        mgr = mgr_for(f1)
        mgr.pre(mgr.universe)
        assert mgr.snapshot_counters().pre_ops == 1
        mgr.post(mgr.universe)
        after = mgr.snapshot_counters()
        assert (after.pre_ops, after.post_ops) == (1, 1)
        assert after.headline == 2

    def test_snapshot_is_a_copy(self, f1):
        mgr = mgr_for(f1)
        snap = mgr.snapshot_counters()
        mgr.pre(mgr.universe)
        assert snap.pre_ops == 0

    def test_cpre_not_folded_into_headline(self, f3):
        mgr = mgr_for(f3)
        mgr.cpre_random(mgr.from_ids([2]))
        counters = mgr.snapshot_counters()
        assert counters.cpre_ops == 1
        assert counters.pre_ops == 0 and counters.headline == 0

    def test_paused_context(self, f1):
        mgr = mgr_for(f1)
        with mgr.counters_paused():
            mgr.pre(mgr.universe)
            mgr.union(mgr.universe, mgr.universe)
        assert mgr.snapshot_counters().headline == 0


class TestHandleHygiene:
    def test_foreign_handle_rejected(self, f1, f2):
        mgr1 = mgr_for(f1)
        mgr2 = mgr_for(f2)
        with pytest.raises(UsageError):
            mgr1.pre(mgr2.universe)
        with pytest.raises(UsageError):
            mgr1.union(mgr1.universe, mgr2.universe)

    def test_every_entry_point_checks_ownership(self, f3, backend):
        mgr = mgr_for(f3, backend)
        own = mgr.from_ids([1])
        # Same model and backend: only the owner differs.
        foreign = mgr_for(f3, backend).from_ids([1])
        calls = [
            mgr.pre, mgr.post, mgr.cpre_random,
            lambda x: mgr.cpre_random(x, within=own),
            lambda x: mgr.cpre_random(own, within=x),
            mgr.complement, mgr.cardinality, mgr.pick, mgr.is_empty,
            mgr.to_ids, lambda x: mgr.contains(x, 1), mgr.min_vertex,
            mgr.is_trivial,
        ]
        for op in (mgr.union, mgr.intersect, mgr.difference):
            calls.append(lambda x, op=op: op(x, own))
            calls.append(lambda x, op=op: op(own, x))
        # A foreign member anywhere in the list: nothing is counted.
        calls += [lambda x: mgr.union_all([x]), lambda x: mgr.union_all([own, own, x])]
        # The SCC kernels run on raw handles but check theirs at entry.
        calls += [
            lambda x: all_sccs(mgr, x),
            lambda x: all_sccs(mgr, x, variant="fwbw"),
            lambda x: lock_step_search(mgr, x, own, own),
            lambda x: lock_step_search(mgr, own, x, own),
            lambda x: lock_step_search(mgr, own, own, x),
        ]
        for call in calls:
            call(own)  # the owner's handle is accepted
            before = mgr.snapshot_counters()
            for bad in (foreign, foreign.h):  # foreign, and not a handle
                with pytest.raises(UsageError):
                    call(bad)
            assert mgr.snapshot_counters() == before  # rejected calls count nothing

    def test_singleton_and_contains_range_checked(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.singleton(2)) == [2]
        for v in (3, -1):
            with pytest.raises(UsageError):
                mgr.singleton(v)
            with pytest.raises(UsageError):
                mgr.contains(mgr.universe, v)
            with pytest.raises(UsageError):
                mgr.looped_singletons([0, v])
        assert mgr.snapshot_counters() == StepCounters()  # nothing counted

    def test_sink_rejected_at_construction(self):
        with pytest.raises(ModelError, match="vertex 1 has no outgoing edge"):
            SymbolicManager(Model("graph", 2, ((0, 1),), frozenset()))

    def test_checked_model_skips_the_repeated_checks(self, backend, monkeypatch):
        # parse_model and Model.validate made every check already.
        plain = Model("graph", 3, ((0, 1), (1, 2), (2, 0)), frozenset())
        checked = (parse_model(F1_TEXT), plain.validate())

        def validate(model):
            raise AssertionError("checked twice")
        monkeypatch.setattr(Model, "validate", validate)
        for model in checked:
            assert model == plain  # the mark is no field
            mgr = SymbolicManager.from_model(model, backend=backend)
            assert ids(mgr, mgr.pre(mgr.from_ids([0]))) == [2]
            assert mgr.snapshot_counters() == StepCounters(pre_ops=1)

    def test_unchecked_model_is_checked(self, backend):
        defects = [
            (((0, 1),), frozenset(), "vertex 1 has no outgoing edge"),
            (((0, 1), (1, 2)), frozenset(), r"edge \(1, 2\) out of range"),
            (((0, 1), (1, 0)), frozenset({2}), "random vertex 2 out of range"),
        ]
        for edges, randoms, message in defects:
            with pytest.raises(ModelError, match=message):
                SymbolicManager(Model("mdp", 2, edges, randoms), backend=backend)
        model = Model("mdp", 2, ((0, 1), (1, 0)), frozenset({1}))
        mgr = SymbolicManager.from_model(model, backend=backend)
        assert ids(mgr, mgr.v_random) == [1]
        assert model._checked  # a second manager skips the checks

    def test_out_of_range_ids_rejected(self, f1):
        mgr = mgr_for(f1)
        with pytest.raises(UsageError):
            mgr.from_ids([3])

    def test_from_ids_takes_a_one_shot_iterator(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.from_ids(v for v in (1, 2))) == [1, 2]
        with pytest.raises(UsageError):
            mgr.from_ids(iter([0, 3]))



def _random_model(rng, n):
    edges = {(u, rng.randrange(n)) for u in range(n)}
    extra = rng.randint(0, 2 * n)
    while len(edges) < min(n * n, n + extra):
        edges.add((rng.randrange(n), rng.randrange(n)))
    randoms = frozenset(v for v in range(n) if rng.random() < 0.4)
    return Model("mdp", n, tuple(sorted(edges)), randoms).validate()


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=64))
def test_pre_matches_edge_enumeration(rng, n):
    """`pre`, `post` and `cpre_random` against a per-vertex enumeration
    of the edges, under both bitset representations.  The targets hold
    sparse and near-full sets, so mask images take both of their paths;
    `post` meets vertices without predecessors."""
    model = _random_model(rng, n)
    targets = [[v for v in range(n) if rng.random() < 0.4], *sized_ids(rng, n)]
    within = [v for v in range(n) if rng.random() < 0.6]
    succ = {u: [] for u in range(n)}
    for u, v in model.edges:
        succ[u].append(v)

    def cpre(z, s):
        # A random vertex needs a successor in z ∩ s; a player-1 vertex
        # needs every successor inside s to lie in z (vacuously, none).
        return sorted(
            u for u in s
            if (any if u in model.random_vertices else all)(
                v in z for v in succ[u] if v in s)
        )

    for name in BITSET_REPRESENTATIONS:
        with bitset_representation(name):
            mgr = mgr_for(model)
        for target in targets:
            inside = set(target)
            z = mgr.from_ids(target)
            got = (ids(mgr, mgr.pre(z)), ids(mgr, mgr.post(z)),
                   ids(mgr, mgr.cpre_random(z)),
                   ids(mgr, mgr.cpre_random(z, within=mgr.from_ids(within))))
            expected = (sorted({u for u, v in model.edges if v in inside}),
                        sorted({v for u, v in model.edges if u in inside}),
                        cpre(inside, set(range(n))),
                        cpre(inside, set(within)))
            assert got == expected, (name, target)
        if name == "masks":  # the full set's images came from its complement
            assert None not in mgr._b._full_images


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=40))
def test_is_trivial_is_one_vertex_without_a_self_loop(rng, n):
    """`is_trivial` on masks, tuples and OBDD, and what it counts: one
    cardinality operation, and one set operation more on one vertex.
    `looped_singletons` finds the self-loop vertices by id and charges what
    `is_trivial` does per vertex."""
    model = _random_model(rng, n)
    forced = {(v, v) for v in rng.sample(range(n), n // 3)}
    edges = tuple(sorted(set(model.edges) | forced))
    model = Model("mdp", n, edges, model.random_vertices).validate()
    loops = {u for u, v in edges if u == v}
    managers = []
    for name in BITSET_REPRESENTATIONS:
        with bitset_representation(name):
            managers.append(mgr_for(model, "bitset"))
    managers.append(mgr_for(model, "obdd"))
    draws = [[v] for v in range(n)] + sized_ids(rng, n)
    for mgr in managers:
        for draw in draws:
            z = mgr.from_ids(draw)
            before = mgr.snapshot_counters()
            single = len(draw) == 1
            assert mgr.is_trivial(z) == (single and draw[0] not in loops), draw
            assert (mgr.snapshot_counters() - before
                    == StepCounters(set_ops=int(single), cardinality_ops=1))
        before = mgr.snapshot_counters()
        looped = mgr.looped_singletons(list(range(n)))
        assert [mgr.to_ids(z) for z in looped] == [[v] for v in sorted(loops)]
        assert mgr.snapshot_counters() - before == StepCounters(set_ops=n, cardinality_ops=n)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=16))
def test_cpre_agrees_with_pre_formula(rng, n):
    """`cpre_random` equals pre(Z) minus the player-1 vertices escaping Z."""
    model = _random_model(rng, n)
    mgr = mgr_for(model)
    z = mgr.from_ids([v for v in range(n) if rng.random() < 0.4])
    direct = mgr.cpre_random(z)
    with mgr.counters_paused():
        formula = mgr.difference(
            mgr.pre(z),
            mgr.intersect(mgr.complement(mgr.v_random), mgr.pre(mgr.complement(z))),
        )
    assert direct == formula


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=12))
def test_backends_agree_on_call_sequences(rng, n):
    model = _random_model(rng, n)
    managers = []
    for name in BITSET_REPRESENTATIONS:
        with bitset_representation(name):
            managers.append(mgr_for(model, "bitset"))
    managers.append(mgr_for(model, "obdd"))
    draws = [
        ([v for v in range(n) if rng.random() < 0.4],
         [v for v in range(n) if rng.random() < 0.5])
        for _ in range(12)
    ]
    draws += zip(sized_ids(rng, n), sized_ids(rng, n))
    for zs, ss in draws:
        results = []
        for mgr in managers:
            z, s = mgr.from_ids(zs), mgr.from_ids(ss)
            results.append(
                (
                    ids(mgr, mgr.pre(z)),
                    ids(mgr, mgr.post(z)),
                    ids(mgr, mgr.cpre_random(z)),
                    ids(mgr, mgr.cpre_random(z, within=s)),
                    ids(mgr, mgr.union(z, s)),
                    ids(mgr, mgr.intersect(z, s)),
                    ids(mgr, mgr.difference(z, s)),
                    mgr.cardinality(z),
                    mgr.is_trivial(z),
                )
            )
        assert results[0] == results[1] == results[2]
    counters = [mgr.snapshot_counters() for mgr in managers]
    assert counters[0] == counters[1] == counters[2]


@pytest.mark.parametrize("n", [4097, 16387])
def test_tuples_match_masks_at_full_width(n):
    """The bitset backend on neighbour tuples, as built above
    `_MASK_MAX_N` with no patch, against mask tables on the same sparse
    model, op by op on sets thousands of bits wide.  n % 8 != 0, so the
    last byte of a set is a partial one."""
    rng = random.Random(n)
    edges = sorted({*random_graph(rng, n, 2 * n), (0, n - 1), (n - 1, 0)})
    randoms = frozenset(rng.sample(range(n), n // 5))
    tuples = _BitsetBackend(n, edges, randoms)
    with bitset_representation("masks"):
        masks = _BitsetBackend(n, edges, randoms)
    assert tuples.in_masks is None and masks.in_masks is not None
    # Ids 0 and n - 1, and either side of byte and 4096-bit boundaries.
    edge_ids = sorted({0, 1, 7, 8, 9, 4095, 4096, n - 9, n - 8, n - 2, n - 1})
    draws = [[v] for v in edge_ids] + [edge_ids, *sized_ids(rng, n)]
    draws += [sorted(rng.sample(range(n), n // 3)), sorted(rng.sample(range(n), n // 2))]
    for a_ids, b_ids in zip(draws, draws[1:] + draws[:1]):
        results = []
        for bk in (tuples, masks):
            a, b = bk.from_ids(a_ids), bk.from_ids(b_ids)
            assert bk.to_ids(a) == a_ids
            # Spines follow the two searches by `post`, as in the kernel.
            searches = [bk.layers(1, a, b), bk.layers(0, b, a),
                        bk.layers(1, bk.empty(), a)]
            results.append((
                bk.pre(a), bk.post(a), bk.difference(a, b), bk.difference(b, a),
                bk.complement(a), bk.cpre_random(a, bk.universe()),
                bk.cpre_random(a, b), searches,
                [bk.spine(found) for found, _ in searches[::2] if found],
                bk.min_vertex(a) if a_ids else None,
            ))
        assert results[0] == results[1], (n, a_ids[:3], b_ids[:3])
        # The searches by their definition; `start` need not lie in `within`.
        a, b = masks.from_ids(a_ids), masks.from_ids(b_ids)
        assert results[0][7] == [_search(masks.post, a, b), _search(masks.pre, b, a),
                                 _search(masks.post, 0, a)]


def _search(image, start, within):
    """Breadth-first layers from `start`, each new inside `within`."""
    out, seen, layer = [], 0, start
    while layer:
        out.append(layer)
        seen |= layer
        layer = image(layer) & within & ~seen
    return out, seen
