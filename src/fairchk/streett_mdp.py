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
from .errors import InvariantViolation, UsageError
from .mec import mec_decomposition
from .model import Candidate, bad_vertices, pair_sets, union_all
from .reach import almost_sure_reach, random_attractor
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
                invariants.check_good_end_component(mgr, model, svs, psets)
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
    empty = mgr.empty()
    events = {"rescc": 0, "lockstep": 0, "accepted": 0, "bad_rounds": 0}
    prep_sink = []
    mecs = mec_decomposition(mgr, model, improved=True, prep_sink=prep_sink,
                             debug=debug)
    prep = prep_sink[0]
    pending = deque(Candidate(comp, empty, empty) for comp in mecs)
    good = []

    def accept(svs):
        if debug:
            invariants.check_good_end_component(mgr, model, svs, psets)
        good.append(svs)
        events["accepted"] += 1

    def escapes_into(part, rest):
        return mgr.intersect(mgr.intersect(part, mgr.v_random), mgr.pre(rest))

    while pending:
        cand = pending.popleft()
        if debug:
            invariants.check_candidate(mgr, cand)
        svs, lost_in, lost_out = cand.vertices, cand.lost_in, cand.lost_out

        bad = bad_vertices(mgr, svs, psets)
        while not mgr.is_empty(bad):
            events["bad_rounds"] += 1
            attr = random_attractor(mgr, svs, bad, debug=debug)
            svs = mgr.difference(svs, attr)
            lost_in = mgr.intersect(mgr.union(lost_in, mgr.post(attr)), svs)
            lost_out = mgr.intersect(mgr.union(lost_out, mgr.pre(attr)), svs)
            bad = bad_vertices(mgr, svs, psets)
        if debug:
            invariants.check_no_random_escape(mgr, svs)

        if mgr.is_empty(mgr.intersect(mgr.post(svs), svs)):
            continue  # no edge left
        witnesses = mgr.cardinality(lost_in) + mgr.cardinality(lost_out)
        if witnesses == 0:
            accept(svs)
        elif witnesses >= thresh:
            events["rescc"] += 1
            parts = all_sccs(mgr, svs)
            if len(parts) == 1:
                accept(svs)
            else:
                for comp in parts:
                    escapes = escapes_into(comp, mgr.difference(svs, comp))
                    if mgr.is_empty(escapes):
                        pending.append(Candidate(comp, empty, empty))
                        continue
                    attr = random_attractor(mgr, comp, escapes, debug=debug)
                    rest = mgr.difference(comp, attr)
                    if not mgr.is_empty(rest):
                        pending.append(
                            Candidate(
                                rest,
                                mgr.intersect(mgr.post(attr), rest),
                                mgr.intersect(mgr.pre(attr), rest),
                            )
                        )
        else:
            events["lockstep"] += 1
            if debug:
                invariants.check_start_cover(mgr, model, svs, lost_in, lost_out)
            comp, lost_in, lost_out = lock_step_search(
                mgr, svs, lost_in, lost_out, debug=debug
            )
            if comp == svs:
                accept(svs)
            else:
                comp_escapes = escapes_into(comp, mgr.difference(svs, comp))
                comp_attr = random_attractor(mgr, comp, comp_escapes, debug=debug)
                svs_attr = random_attractor(mgr, svs, comp, debug=debug)
                if debug:
                    _check_separation_attractor(mgr, svs, comp, comp_attr)
                comp_rest = mgr.difference(comp, comp_attr)
                svs_rest = mgr.difference(svs, svs_attr)
                if not mgr.is_empty(svs_rest):
                    pending.append(
                        Candidate(
                            svs_rest,
                            mgr.intersect(
                                mgr.union(lost_in, mgr.post(svs_attr)), svs_rest
                            ),
                            mgr.intersect(
                                mgr.union(lost_out, mgr.pre(svs_attr)), svs_rest
                            ),
                        )
                    )
                if not mgr.is_empty(comp_rest):
                    if mgr.is_empty(comp_attr):
                        pending.append(Candidate(comp_rest, empty, empty))
                    else:
                        pending.append(
                            Candidate(
                                comp_rest,
                                mgr.intersect(mgr.post(comp_attr), comp_rest),
                                mgr.intersect(mgr.pre(comp_attr), comp_rest),
                            )
                        )
        if debug:
            invariants.check_disjoint(
                mgr, [c.vertices for c in pending] + good
            )

    win = almost_sure_reach(mgr, model, union_all(mgr, good))
    return RunReport(
        algorithm="streett-mdp-improved",
        counters=mgr.snapshot_counters(),
        preprocessing=prep,
        wall_time=time.perf_counter() - start,
        winning=mgr.to_ids(win),
        events=events,
    )


def _check_separation_attractor(mgr, svs, comp, comp_attr):
    # The attractor of the separated component's escaping random vertices,
    # taken inside the component, must coincide with the attractor of the
    # complement taken inside the whole candidate, restricted to the
    # component.
    with mgr.counters_paused():
        whole = random_attractor(mgr, svs, mgr.difference(svs, comp))
        if mgr.intersect(whole, comp) != comp_attr:
            raise InvariantViolation(
                "separation attractor mismatch between the in-component "
                "and the in-candidate computation"
            )
