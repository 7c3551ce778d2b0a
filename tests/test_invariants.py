"""The debug invariant checks fire on crafted violations and pass otherwise."""

import pytest

from fairchk import (
    InvariantViolation,
    StepCounters,
    StreettPairs,
    parse_model,
    pair_sets,
)
from fairchk import invariants
from fairchk.refine import bad_vertices
from fairchk.reach import random_attractor, random_escapes
from fairchk.refine import _check_separation_attractor

from conftest import mgr_for


def _graph_identity(within, targets):
    return targets


def test_candidate_witnesses_inside(f2, backend):
    mgr = mgr_for(f2, backend)
    svs, outside, empty = mgr.from_ids([0, 1]), mgr.from_ids([2]), mgr.empty()
    invariants.check_candidate(mgr, svs, mgr.from_ids([0]), empty)
    with pytest.raises(InvariantViolation, match="lost_in"):
        invariants.check_candidate(mgr, svs, outside, empty)
    with pytest.raises(InvariantViolation, match="lost_out"):
        invariants.check_candidate(mgr, svs, empty, outside)


def test_disjoint(f2, backend):
    mgr = mgr_for(f2, backend)
    invariants.check_disjoint(mgr, [mgr.from_ids([0, 1]), mgr.from_ids([2])])
    with pytest.raises(InvariantViolation, match="disjoint"):
        invariants.check_disjoint(mgr, [mgr.from_ids([0, 1]), mgr.from_ids([1, 2])])


def test_no_random_escape(f3, backend):
    # Random vertex 1 has the edge 1 -> 2 out of {0, 1}.
    mgr = mgr_for(f3, backend)
    ids, empty = mgr.from_ids, mgr.empty()
    invariants.check_no_random_escape(mgr, ids([2]), empty)
    invariants.check_no_random_escape(mgr, ids([0, 1]), ids([1]))
    with pytest.raises(InvariantViolation, match=r"outgoing edges: \[1\]"):
        invariants.check_no_random_escape(mgr, ids([0, 1]), empty)
    with pytest.raises(InvariantViolation, match=r"outgoing edges: \[1\]"):
        invariants.check_no_random_escape(mgr, ids([0, 1]), ids([0]))


def test_end_component(f1, f2, f3, backend):
    mgr = mgr_for(f1, backend)
    no_grant = pair_sets(mgr, StreettPairs(1, ((frozenset([0]), frozenset()),)))

    def remove_bad(svs):
        return bad_vertices(mgr, svs, no_grant)

    invariants.check_end_component(mgr, f1, mgr.universe)
    with pytest.raises(InvariantViolation, match="empty"):
        invariants.check_end_component(mgr, f1, mgr.empty())
    with pytest.raises(InvariantViolation, match="no edge"):
        invariants.check_end_component(mgr, f1, mgr.from_ids([0]))
    with pytest.raises(InvariantViolation, match="vertices to remove"):
        invariants.check_end_component(mgr, f1, mgr.universe, remove_bad)
    mgr = mgr_for(f2, backend)
    with pytest.raises(InvariantViolation, match="not strongly connected"):
        invariants.check_end_component(mgr, f2, mgr.universe)
    mgr = mgr_for(f3, backend)
    invariants.check_end_component(mgr, f3, mgr.from_ids([2]))
    with pytest.raises(InvariantViolation, match="random vertices"):
        invariants.check_end_component(mgr, f3, mgr.from_ids([0, 1]))

    # The MEC loops remove the random vertices with an edge leaving the
    # candidate: random vertex 1 has the edge 1 -> 2 out of {0, 1}.
    def escapes(svs):
        return random_escapes(mgr, svs, mgr.universe)

    invariants.check_end_component(mgr, f3, mgr.from_ids([2]), escapes)
    assert mgr.snapshot_counters() == StepCounters()
    with pytest.raises(InvariantViolation, match="vertices to remove"):
        invariants.check_end_component(mgr, f3, mgr.from_ids([0, 1]), escapes)


def test_start_cover(f2, backend):
    # Top SCC {0, 1}, bottom SCC {2, 3}.
    mgr = mgr_for(f2, backend)
    ids, empty = mgr.from_ids, mgr.empty()
    invariants.check_start_cover(mgr, f2, mgr.universe, ids([1]), ids([3]))
    invariants.check_start_cover(mgr, f2, ids([2, 3]), empty, empty)
    with pytest.raises(InvariantViolation, match="top SCC"):
        invariants.check_start_cover(mgr, f2, mgr.universe, ids([2]), empty)
    with pytest.raises(InvariantViolation, match="bottom SCC"):
        invariants.check_start_cover(mgr, f2, mgr.universe, empty, ids([0]))
    with pytest.raises(InvariantViolation, match="not strongly connected"):
        invariants.check_start_cover(mgr, f2, mgr.universe, empty, empty)


def test_extremal(f2, backend):
    # Top SCC {0, 1}, bottom SCC {2, 3}.
    mgr = mgr_for(f2, backend)
    ids = mgr.from_ids
    invariants.check_extremal(mgr, f2, mgr.universe, ids([0, 1]))
    invariants.check_extremal(mgr, f2, mgr.universe, ids([2, 3]))
    with pytest.raises(InvariantViolation, match=r"\[1, 2\] is neither"):
        invariants.check_extremal(mgr, f2, mgr.universe, ids([1, 2]))
    # A chain of three SCCs: {2, 3} is neither top nor bottom in the
    # whole graph, but top without {0, 1} and bottom without {4, 5}.
    chain = parse_model(
        "graph 6\ne 0 1\ne 1 0\ne 1 2\ne 2 3\ne 3 2\ne 3 4\ne 4 5\ne 5 4\n"
    )
    mgr = mgr_for(chain, backend)
    ids = mgr.from_ids
    with pytest.raises(InvariantViolation, match=r"\[2, 3\] is neither"):
        invariants.check_extremal(mgr, chain, mgr.universe, ids([2, 3]))
    invariants.check_extremal(mgr, chain, ids([2, 3, 4, 5]), ids([2, 3]))
    invariants.check_extremal(mgr, chain, ids([0, 1, 2, 3]), ids([2, 3]))


def test_separation_attractor_on_graphs(f2, backend):
    mgr = mgr_for(f2, backend)
    comp = mgr.from_ids([2, 3])
    _check_separation_attractor(mgr, _graph_identity, mgr.universe, comp, mgr.empty())
    with pytest.raises(InvariantViolation, match="separation"):
        _check_separation_attractor(
            mgr, _graph_identity, mgr.universe, comp, mgr.from_ids([2])
        )


def test_separation_attractor_on_mdps(backend):
    # Splitting {2, 3} off {0, 1, 2, 3}: random vertex 2 can go back to 1,
    # so the component loses {2} and then player-1 vertex 3, which has no
    # other edge.
    model = parse_model(
        "mdp 4\ne 0 1\ne 1 0\ne 1 2\ne 2 3\ne 2 1\ne 3 2\nrandom 2\n"
    )
    mgr = mgr_for(model, backend)

    def attract(within, targets):
        return random_attractor(mgr, within, targets)

    svs, comp = mgr.universe, mgr.from_ids([2, 3])
    _check_separation_attractor(mgr, attract, svs, comp, comp)
    with pytest.raises(InvariantViolation, match="separation"):
        _check_separation_attractor(mgr, attract, svs, comp, mgr.from_ids([2]))
