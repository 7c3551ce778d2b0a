"""The refinement loops drop trivial candidates before they queue them.

A trivial candidate is one vertex without a self-loop.  It can never be
accepted, so no removal may ever run on it; and the SCC split must still
count it, since a candidate made of one SCC and a trivial vertex is not
strongly connected.
"""

import pytest

import fairchk.mec
import fairchk.streett_graph
import fairchk.streett_mdp
from fairchk import (
    Model,
    StreettPairs,
    SymbolicManager,
    mec_basic,
    mec_improved,
    streett_graph_basic,
    streett_graph_improved,
    streett_mdp_basic,
    streett_mdp_improved,
)
from fairchk.oracle import explicit_streett_graph, explicit_streett_mdp

from conftest import mgr_for
from helpers import graph_instance, mdp_instance

SEEDS = range(400)
FORCE_LOCKSTEP = 10**9

# (instance, run(mgr, model, pairs, threshold), thresholds); the basic
# variants take no threshold.
ALGORITHMS = {
    "streett-graph-basic": (
        graph_instance, lambda mgr, m, p, t: streett_graph_basic(mgr, m, p), [None]),
    "streett-graph-improved": (
        graph_instance, streett_graph_improved, [1, FORCE_LOCKSTEP]),
    "mec-basic": (
        mdp_instance, lambda mgr, m, p, t: mec_basic(mgr, m), [None]),
    "mec-improved": (
        mdp_instance, lambda mgr, m, p, t: mec_improved(mgr, m, t), [1, FORCE_LOCKSTEP]),
    "streett-mdp-basic": (
        mdp_instance, lambda mgr, m, p, t: streett_mdp_basic(mgr, m, p), [None]),
    "streett-mdp-improved": (
        mdp_instance, streett_mdp_improved, [1, FORCE_LOCKSTEP]),
}

# Where the drivers and the MEC decomposition bind the operators that run
# on a candidate: `removal`, and the escapes of an SCC part or a lock-step
# component.
REMOVAL_BINDINGS = (
    (fairchk.streett_graph, "bad_vertices"),
    (fairchk.streett_mdp, "bad_vertices"),
    (fairchk.streett_mdp, "random_escapes"),
    (fairchk.mec, "random_escapes"),
)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_no_trivial_candidate_reaches_removal(name, backend, monkeypatch):
    instance, run, thresholds = ALGORITHMS[name]
    calls = []
    dropped = []

    def guard(module, fname):
        original = getattr(module, fname)

        def wrapper(mgr, svs, *args):
            ids = mgr.to_ids(svs)
            assert not (len(ids) == 1 and (ids[0], ids[0]) not in model.edges), (
                f"{module.__name__}.{fname} ran on trivial {ids}, seed {seed}")
            calls.append(fname)
            return original(mgr, svs, *args)
        monkeypatch.setattr(module, fname, wrapper)

    for module, fname in REMOVAL_BINDINGS:
        guard(module, fname)
    is_trivial = SymbolicManager.is_trivial
    looped_singletons = SymbolicManager.looped_singletons

    def counted(mgr, z):
        trivial = is_trivial(mgr, z)
        dropped.append(trivial)
        return trivial

    def counted_ids(mgr, ids):
        # The one-vertex parts of an SCC split, dropped by id.
        looped = looped_singletons(mgr, ids)
        dropped.extend([True] * (len(ids) - len(looped)))
        return looped
    monkeypatch.setattr(SymbolicManager, "is_trivial", counted)
    monkeypatch.setattr(SymbolicManager, "looped_singletons", counted_ids)

    for seed in SEEDS:
        model, pairs = instance(seed)
        for threshold in thresholds:
            run(mgr_for(model, backend), model, pairs, threshold)
    assert calls, f"{name} never ran a removal"
    assert any(dropped), f"{name} met no trivial candidate on these seeds"


# 0 <-> 1 is a 2-cycle, and 1 -> 3 -> 2 -> 0 closes one SCC of all four
# vertices.  Pair 1 makes 3 bad; without it, 2 is a trivial SCC in front
# of the 2-cycle.  Pair 2 requests 0 and grants 2, so the rest {0, 1, 2}
# has no bad vertex, but the 2-cycle alone loses 0 and with it everything.
PITFALL_EDGES = ((0, 1), (1, 0), (1, 3), (2, 0), (3, 2))
PITFALL_PAIRS = StreettPairs(2, ((frozenset({3}), frozenset()),
                                 (frozenset({0}), frozenset({2}))))


@pytest.mark.parametrize("kind, run, oracle", [
    ("graph", streett_graph_improved, explicit_streett_graph),
    ("mdp", streett_mdp_improved, explicit_streett_mdp),
])
def test_scc_split_sees_the_trivial_part(kind, run, oracle, backend):
    # The removal of 3 leaves {0, 1, 2} with two witnesses; at threshold 1
    # it is split into SCCs.  Were the trivial part {2} left out of that
    # partition, the one SCC {0, 1} would look like the whole candidate,
    # and {0, 1, 2} would be accepted with the grant of pair 2 in it.
    model = Model(kind, 4, PITFALL_EDGES, frozenset()).validate()
    report = run(mgr_for(model, backend), model, PITFALL_PAIRS, 1)
    assert report.winning == oracle(model, PITFALL_PAIRS) == []
    assert report.events["rescc"] == 1
    assert report.events["accepted"] == 0
