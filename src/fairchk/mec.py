"""Maximal end-component decomposition of MDPs.

Candidates (initially the SCCs of the underlying graph) are repeatedly
cleaned of random vertices with outgoing edges together with their random
attractor, then either accepted as end-components or split further.  The
basic variant recomputes the full SCC decomposition after every cleanup.
The improved variant keeps, per candidate, the set of vertices that lost
outgoing edges; while that set is small, a single bottom SCC is peeled
off with a lock-step search (forward searches only), which is accepted
directly whenever it has an edge.
"""

from __future__ import annotations

import time
from collections import deque

from . import invariants
from .model import Candidate
from .reach import random_attractor, random_escapes
from .report import RunReport
from .scc import all_sccs, lock_step_search
from .thresholds import mec_threshold

__all__ = ["mec_basic", "mec_improved", "mec_decomposition"]


def mec_decomposition(mgr, model, universe=None, improved=True, threshold="auto",
                      debug=False, events=None, prep_sink=None):
    """MEC decomposition within `universe`, as a list of vertex sets.

    This is the core used by the fairness algorithms for MDPs; the
    RunReport wrappers below add timing and counter bookkeeping.  Graphs
    are handled as MDPs without random vertices: their MECs are the SCCs
    that contain at least one edge.  When `prep_sink` is a list, a counter
    snapshot taken right after the initial SCC split is appended to it.
    """
    if universe is None:
        universe = mgr.universe
    if events is None:
        events = {}
    events.setdefault("rescc", 0)
    events.setdefault("lockstep", 0)
    thresh = mec_threshold(threshold, model.n, model.m)
    empty = mgr.empty()
    accepted = []

    initial = all_sccs(mgr, universe)
    if prep_sink is not None:
        prep_sink.append(mgr.snapshot_counters())

    def accept(svs):
        if debug:
            invariants.check_end_component(mgr, model, svs)
        accepted.append(svs)

    if not improved:
        pending = deque(initial)
        while pending:
            svs = pending.popleft()
            escapes = random_escapes(mgr, svs, mgr.universe)
            if not mgr.is_empty(escapes):
                events["rescc"] += 1
                attr = random_attractor(mgr, svs, escapes, debug=debug)
                rest = mgr.difference(svs, attr)
                if debug:
                    invariants.check_no_random_escape(mgr, rest)
                pending.extend(all_sccs(mgr, rest))
            elif not mgr.is_empty(mgr.intersect(mgr.post(svs), svs)):
                accept(svs)
            if debug:
                invariants.check_disjoint(mgr, list(pending) + accepted)
    else:
        pending = deque(Candidate(comp, empty, empty) for comp in initial)
        while pending:
            cand = pending.popleft()
            if debug:
                invariants.check_candidate(mgr, cand)
            svs, lost_out = cand.vertices, cand.lost_out
            escapes = random_escapes(mgr, svs, mgr.universe)
            if not mgr.is_empty(escapes):
                attr = random_attractor(mgr, svs, escapes, debug=debug)
                svs = mgr.difference(svs, attr)
                lost_out = mgr.intersect(mgr.union(lost_out, mgr.pre(attr)), svs)
                if debug:
                    invariants.check_no_random_escape(mgr, svs)
            if mgr.is_empty(mgr.intersect(mgr.post(svs), svs)):
                continue  # no edge left
            if mgr.cardinality(lost_out) == 0:
                accept(svs)
            elif mgr.cardinality(lost_out) >= thresh:
                events["rescc"] += 1
                parts = all_sccs(mgr, svs)
                if len(parts) == 1:
                    accept(svs)
                else:
                    pending.extend(Candidate(p, empty, empty) for p in parts)
            else:
                events["lockstep"] += 1
                if debug:
                    invariants.check_start_cover(mgr, model, svs, empty, lost_out)
                comp, _, lost_out = lock_step_search(
                    mgr, svs, empty, lost_out, debug=debug
                )
                if not mgr.is_empty(mgr.intersect(mgr.post(comp), comp)):
                    accept(comp)
                rest = mgr.difference(svs, comp)
                if not mgr.is_empty(rest):
                    pending.append(
                        Candidate(
                            rest,
                            empty,
                            mgr.intersect(mgr.union(lost_out, mgr.pre(comp)), rest),
                        )
                    )
            if debug:
                invariants.check_disjoint(
                    mgr, [c.vertices for c in pending] + accepted
                )

    with mgr.counters_paused():
        accepted.sort(key=mgr.min_vertex)
    return accepted


def _report(mgr, model, name, improved, threshold, debug):
    start = time.perf_counter()
    events = {}
    prep_sink = []
    mecs = mec_decomposition(
        mgr,
        model,
        improved=improved,
        threshold=threshold,
        debug=debug,
        events=events,
        prep_sink=prep_sink,
    )
    return RunReport(
        algorithm=name,
        counters=mgr.snapshot_counters(),
        preprocessing=prep_sink[0],
        wall_time=time.perf_counter() - start,
        components=[mgr.to_ids(c) for c in mecs],
        events=events,
    )


def mec_basic(mgr, model, debug=False) -> RunReport:
    """Decomposition with a full SCC recomputation after every cleanup."""
    return _report(mgr, model, "mec-basic", False, "auto", debug)


def mec_improved(mgr, model, threshold="auto", debug=False) -> RunReport:
    """Decomposition with lock-step bottom-SCC peeling below the threshold."""
    return _report(mgr, model, "mec-improved", True, threshold, debug)
