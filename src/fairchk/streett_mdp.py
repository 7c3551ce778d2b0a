"""Almost-sure winning sets of MDPs with strong-fairness objectives.

Candidates for good end-components start as the MECs of the MDP.  The
basic variant strips the random attractor of the bad vertices and then
recomputes the MEC decomposition of the remainder.  The improved variant
interleaves the end-component maintenance with the bad-vertex removal:
candidates merely stay free of escaping random edges (attractors of
whatever gets removed are removed along), which lets each refinement step
get away with an SCC split or a lock-step split instead of a full MEC
recomputation.  In both cases the result is the set of vertices that
reach the union of the good end-components with probability one.
"""

from __future__ import annotations

import time
from collections import deque

from . import invariants
from .errors import UsageError
from .mec import mec_decomposition
from .model import bad_vertices, pair_sets, union_all
from .reach import almost_sure_reach, random_attractor, random_escapes
from .refine import refine
from .report import RunReport
from .scc import all_sccs, lock_step_search
from .thresholds import streett_threshold

__all__ = ["streett_mdp_basic", "streett_mdp_improved"]


def _require_mdp(model):
    if model.kind != "mdp":
        raise UsageError("this algorithm expects an mdp model")


def streett_mdp_basic(mgr, model, pairs, debug=False) -> RunReport:
    """Almost-sure winning set via repeated MEC recomputation."""
    _require_mdp(model)
    start = time.perf_counter()
    psets = pair_sets(mgr, pairs)
    events = {"remec": 0, "accepted": 0, "bad_rounds": 0}
    prep_sink = []
    pending = deque(
        mec_decomposition(mgr, model, improved=True, prep_sink=prep_sink, debug=debug)
    )
    prep = prep_sink[0]
    good = []
    while pending:
        svs = pending.popleft()
        bad = bad_vertices(mgr, svs, psets)
        if not mgr.is_empty(bad):
            events["bad_rounds"] += 1
            events["remec"] += 1
            attr = random_attractor(mgr, svs, bad, debug=debug)
            rest = mgr.difference(svs, attr)
            if debug:
                invariants.check_no_random_escape(mgr, rest)
            if not mgr.is_empty(rest):
                pending.extend(
                    mec_decomposition(mgr, model, universe=rest, improved=True,
                                      debug=debug)
                )
        else:
            if debug:
                invariants.check_end_component(mgr, model, svs, psets)
            good.append(svs)
            events["accepted"] += 1
        if debug:
            invariants.check_disjoint(mgr, list(pending) + good)
    win = almost_sure_reach(mgr, model, union_all(mgr, good))
    return RunReport(
        algorithm="streett-mdp-basic",
        counters=mgr.snapshot_counters(),
        preprocessing=prep,
        wall_time=time.perf_counter() - start,
        winning=mgr.to_ids(win),
        events=events,
    )


def streett_mdp_improved(mgr, model, pairs, threshold="auto", debug=False) -> RunReport:
    """Almost-sure winning set via interleaved cleanup and lock-step splits.

    Per candidate: (1) bad vertices and their random attractor are removed
    until none remain, lost-edge witnesses updated along the removal
    boundary; (2) witness-free candidates are accepted; (3) candidates
    with at least `threshold` witnesses are split into SCCs, each stripped
    of the attractor of its escaping random vertices; (4) otherwise a
    lock-step split separates one SCC, and both halves are stripped of
    the attractors induced by the separation.
    """
    _require_mdp(model)
    start = time.perf_counter()
    thresh = streett_threshold(threshold, model.n, model.m)
    psets = pair_sets(mgr, pairs)
    prep_sink = []
    mecs = mec_decomposition(mgr, model, improved=True, prep_sink=prep_sink,
                             debug=debug)

    def attract(within, targets):
        return random_attractor(mgr, within, targets, debug=debug)

    good, events = refine(
        mgr, model, psets, mecs, thresh,
        attract=attract,
        escapes=lambda part, whole: random_escapes(mgr, part, whole),
        kernels=(bad_vertices, all_sccs, lock_step_search),
        debug=debug,
    )
    win = almost_sure_reach(mgr, model, union_all(mgr, good))
    return RunReport(
        algorithm="streett-mdp-improved",
        counters=mgr.snapshot_counters(),
        preprocessing=prep_sink[0],
        wall_time=time.perf_counter() - start,
        winning=mgr.to_ids(win),
        events=events,
    )
