"""Reachability, random attractor, almost-sure reachability."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchk import (
    InvariantViolation,
    almost_sure_reach,
    random_attractor,
    reach_backward,
)
from fairchk.model import Model
from fairchk.oracle import explicit_almost_sure_reach, explicit_attractor

from conftest import mgr_for
from helpers import (
    BITSET_REPRESENTATIONS,
    bitset_representation,
    brute_almost_sure_reach,
    random_graph,
)


class TestReachBackward:
    def test_chain_into_cycle(self, f2, backend):
        mgr = mgr_for(f2, backend)
        got = reach_backward(mgr, mgr.universe, mgr.from_ids([2, 3]))
        assert mgr.to_ids(got) == [0, 1, 2, 3]

    def test_empty_targets(self, f2, backend):
        mgr = mgr_for(f2, backend)
        assert mgr.is_empty(reach_backward(mgr, mgr.universe, mgr.empty()))

    def test_restricted_universe(self, f2, backend):
        mgr = mgr_for(f2, backend)
        got = reach_backward(mgr, mgr.from_ids([2, 3]), mgr.from_ids([2]))
        assert mgr.to_ids(got) == [2, 3]

    def test_pre_operation_budget(self, f2):
        """At most |result minus targets| + 1 predecessor steps."""
        mgr = mgr_for(f2)
        before = mgr.snapshot_counters()
        got = reach_backward(mgr, mgr.universe, mgr.from_ids([3]))
        delta = mgr.snapshot_counters() - before
        assert delta.pre_ops <= mgr.cardinality(got) - 1 + 1

    def test_matches_manager_loop(self):
        """Result and charge equal the least fixpoint run as counted manager
        calls, on bit masks, neighbour tuples and decision diagrams, also
        from empty targets and from targets outside `svs`."""
        rng = random.Random(31)
        for trial in range(40):
            n = rng.randint(1, 40)
            model = _random_mdp(rng, n)
            svs_ids = [v for v in range(n) if rng.random() < 0.7]
            outside = [v for v in range(n) if v not in svs_ids]
            target_ids = (
                [],
                rng.sample(range(n), rng.randint(1, n)),
                rng.sample(outside, min(2, len(outside))) + svs_ids[:1],
            )
            for name, mgr in _managers(model):
                for t_ids in target_ids:
                    svs, targets = mgr.from_ids(svs_ids), mgr.from_ids(t_ids)
                    runs = []
                    for reach in (reach_backward, _manager_reach_backward):
                        before = mgr.snapshot_counters()
                        got = reach(mgr, svs, targets)
                        runs.append((mgr.to_ids(got), mgr.snapshot_counters() - before))
                    assert runs[0] == runs[1], (trial, name, svs_ids, t_ids)


class TestRandomAttractor:
    def test_mdp_pull(self, f3, backend):
        mgr = mgr_for(f3, backend)
        got = random_attractor(mgr, mgr.universe, mgr.from_ids([2]))
        assert mgr.to_ids(got) == [0, 1, 2]

    def test_empty(self, f3, backend):
        mgr = mgr_for(f3, backend)
        assert mgr.is_empty(random_attractor(mgr, mgr.universe, mgr.empty()))

    def test_forced_player_vertices_cascade(self, f1, backend):
        # All-player-1 cycle: every predecessor is forced in turn.
        mgr = mgr_for(f1, backend)
        got = random_attractor(mgr, mgr.universe, mgr.from_ids([1]))
        assert mgr.to_ids(got) == [0, 1, 2]

    def test_debug_flags_uncovered_escapes(self, f3):
        mgr = mgr_for(f3)
        svs = mgr.from_ids([0, 1])  # random vertex 1 has an edge to 2
        with pytest.raises(InvariantViolation):
            random_attractor(mgr, svs, mgr.from_ids([0]), debug=True)
        # covered by the target set: fine
        random_attractor(mgr, svs, mgr.from_ids([1]), debug=True)

    def test_cpre_operation_budget(self, f3):
        mgr = mgr_for(f3)
        start = mgr.from_ids([2])
        before = mgr.snapshot_counters()
        got = random_attractor(mgr, mgr.universe, start)
        delta = mgr.snapshot_counters() - before
        assert delta.cpre_ops <= mgr.cardinality(got) - 1 + 1


class TestAlmostSureReach:
    def test_mdp(self, f3, backend):
        mgr = mgr_for(f3, backend)
        got = almost_sure_reach(mgr, mgr.from_ids([2]))
        assert mgr.to_ids(got) == [0, 1, 2]

    def test_targets_are_won_on_arrival(self):
        # 0 -> 1 -> 1: from 0 the target {0} is left immediately, but the
        # play starts there, so 0 is still almost-surely winning.
        model = Model("mdp", 2, ((0, 1), (1, 1)), frozenset()).validate()
        mgr = mgr_for(model)
        got = almost_sure_reach(mgr, mgr.from_ids([0]))
        assert mgr.to_ids(got) == [0]

    def test_whole_universe(self, f3, backend):
        mgr = mgr_for(f3, backend)
        assert almost_sure_reach(mgr, mgr.universe) == mgr.universe

    def test_on_graphs_equals_plain_reachability(self, f2, backend):
        mgr = mgr_for(f2, backend)
        targets = mgr.from_ids([2, 3])
        with mgr.counters_paused():
            plain = reach_backward(mgr, mgr.universe, targets)
        assert almost_sure_reach(mgr, targets) == plain


def _managers(model):
    """Managers of `model` on bit masks, neighbour tuples and OBDDs."""
    for name in BITSET_REPRESENTATIONS:
        with bitset_representation(name):
            mgr = mgr_for(model)
        yield name, mgr
    yield "obdd", mgr_for(model, "obdd")


def _manager_reach_backward(mgr, svs, targets):
    """`reach_backward` as counted manager calls: ``pre``, ``intersect``,
    ``difference`` first, then ``union``, ``pre``, ``intersect``,
    ``difference`` per step."""
    acc = targets
    new = mgr.difference(mgr.intersect(mgr.pre(targets), svs), targets)
    while not mgr.is_empty(new):
        acc = mgr.union(acc, new)
        new = mgr.difference(mgr.intersect(mgr.pre(new), svs), acc)
    return acc


def _random_mdp(rng, n):
    m = rng.randint(n, min(3 * n, n * n))
    edges = tuple(random_graph(rng, n, m))
    randoms = frozenset(v for v in range(n) if rng.random() < 0.4)
    return Model("mdp", n, edges, randoms).validate()


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=16))
def test_reach_backward_matches_bfs(rng, n):
    model = _random_mdp(rng, n)
    mgr = mgr_for(model)
    svs_ids = sorted(rng.sample(range(n), rng.randint(1, n)))
    t_ids = [v for v in svs_ids if rng.random() < 0.4]
    got = reach_backward(mgr, mgr.from_ids(svs_ids), mgr.from_ids(t_ids))
    # BFS oracle over reversed edges restricted to the subgraph
    inside = set(svs_ids)
    radj = model.in_adjacency()
    seen = set(t_ids)
    stack = list(t_ids)
    while stack:
        u = stack.pop()
        for w in radj[u]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    assert mgr.to_ids(got) == sorted(seen)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=16))
def test_random_attractor_matches_explicit_fixpoint(rng, n):
    model = _random_mdp(rng, n)
    mgr = mgr_for(model)
    svs_ids = sorted(rng.sample(range(n), rng.randint(1, n)))
    w_ids = [v for v in svs_ids if rng.random() < 0.4]
    got = random_attractor(mgr, mgr.from_ids(svs_ids), mgr.from_ids(w_ids))
    assert mgr.to_ids(got) == sorted(explicit_attractor(model, svs_ids, w_ids))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=1, max_value=10))
def test_almost_sure_reach_matches_explicit(rng, n):
    model = _random_mdp(rng, n)
    mgr = mgr_for(model)
    t_ids = [v for v in range(n) if rng.random() < 0.35]
    got = almost_sure_reach(mgr, mgr.from_ids(t_ids))
    assert mgr.to_ids(got) == sorted(explicit_almost_sure_reach(model, t_ids))


def test_almost_sure_reach_against_strategy_enumeration():
    """Tiny models, compared with brute-force memoryless strategies."""
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        model = _random_mdp(rng, n)
        t_ids = [v for v in range(n) if rng.random() < 0.35]
        mgr = mgr_for(model)
        got = mgr.to_ids(almost_sure_reach(mgr, mgr.from_ids(t_ids)))
        assert got == brute_almost_sure_reach(model, t_ids), (seed, model, t_ids)
