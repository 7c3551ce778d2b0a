"""Symbolic layer: one-step operators, set algebra, counters, backends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchk import SymbolicManager, UsageError, all_sccs, lock_step_search
from fairchk.model import Model

from conftest import mgr_for
from helpers import BITSET_REPRESENTATIONS, bitset_representation, sized_ids


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
        ]
        for op in (mgr.union, mgr.intersect, mgr.difference):
            calls.append(lambda x, op=op: op(x, own))
            calls.append(lambda x, op=op: op(own, x))
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

    def test_sink_rejected_at_construction(self):
        with pytest.raises(UsageError):
            SymbolicManager(2, [(0, 1)], frozenset())

    def test_out_of_range_ids_rejected(self, f1):
        mgr = mgr_for(f1)
        with pytest.raises(UsageError):
            mgr.from_ids([3])

    def test_from_ids_takes_a_one_shot_iterator(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert ids(mgr, mgr.from_ids(v for v in (1, 2))) == [1, 2]
        with pytest.raises(UsageError):
            mgr.from_ids(iter([0, 3]))

    def test_constructor_takes_one_shot_iterators(self, backend):
        edges = [(0, 1), (1, 2), (2, 0)]
        for args in ((edges, (v for v in [1])), (iter(edges), [1])):
            mgr = SymbolicManager(3, *args, backend=backend)
            assert ids(mgr, mgr.v_random) == [1]
            assert ids(mgr, mgr.pre(mgr.from_ids([2]))) == [1]
        with pytest.raises(UsageError):
            SymbolicManager(3, iter(edges), (v for v in [3]), backend=backend)


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
    model = _random_model(rng, n)
    targets = [[v for v in range(n) if rng.random() < 0.4], *sized_ids(rng, n)]
    for name in BITSET_REPRESENTATIONS:
        with bitset_representation(name):
            mgr = mgr_for(model)
        for target in targets:
            inside = set(target)
            got = (ids(mgr, mgr.pre(mgr.from_ids(target))),
                   ids(mgr, mgr.post(mgr.from_ids(target))))
            expected = (sorted({u for u, v in model.edges if v in inside}),
                        sorted({v for u, v in model.edges if u in inside}))
            assert got == expected, (name, target)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=16))
def test_cpre_agrees_with_pre_formula(rng, n):
    """The direct evaluation equals pre(Z) minus controlled escapers."""
    model = _random_model(rng, n)
    mgr = mgr_for(model)
    z = mgr.from_ids([v for v in range(n) if rng.random() < 0.4])
    direct = mgr.cpre_random(z)
    with mgr.counters_paused():
        formula = mgr.difference(
            mgr.pre(z), mgr.intersect(mgr.v_player1, mgr.pre(mgr.complement(z)))
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
                )
            )
        assert results[0] == results[1] == results[2]
    counters = [mgr.snapshot_counters() for mgr in managers]
    assert counters[0] == counters[1] == counters[2]
