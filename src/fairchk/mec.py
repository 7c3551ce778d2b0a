"""Maximal end-component decomposition of MDPs.

Candidates (initially the SCCs of the underlying graph) are repeatedly
cleaned of random vertices with outgoing edges together with their random
attractor, then either accepted as end-components or split further.  The
basic variant (loop: ``refine.refine_basic``) recomputes the full SCC
decomposition after every cleanup.  The improved variant keeps its own
loop, which tracks only the vertices that lost outgoing edges; while
there are few, a single bottom SCC is peeled off with a lock-step search
(forward searches only), which is accepted directly whenever it has an
edge.
"""

from __future__ import annotations

import time
from collections import deque

from . import invariants
from .model import Candidate, has_edge
from .reach import random_attractor, random_escapes
from .refine import refine_basic
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

    initial = all_sccs(mgr, universe)
    if prep_sink is not None:
        prep_sink.append(mgr.snapshot_counters())

    if not improved:
        accepted, rounds = refine_basic(
            mgr, model, (), initial,
            removal=lambda svs: random_escapes(mgr, svs, mgr.universe),
            attract=lambda within, targets: random_attractor(
                mgr, within, targets, debug=debug),
            decompose=lambda rest: all_sccs(mgr, rest),
            accepts=lambda svs: has_edge(mgr, svs),
            debug=debug,
        )
        events["rescc"] += rounds
    else:
        accepted = []

        def accept(svs):
            if debug:
                invariants.check_end_component(mgr, model, svs)
            accepted.append(svs)

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
            if not has_edge(mgr, svs):
                continue
            witnesses = mgr.cardinality(lost_out)
            if witnesses == 0:
                accept(svs)
            elif witnesses >= thresh:
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
                comp, _, lost_out = lock_step_search(mgr, svs, empty, lost_out,
                                                     debug=debug)
                if has_edge(mgr, comp):
                    accept(comp)
                rest = mgr.difference(svs, comp)
                if not mgr.is_empty(rest):
                    lost_out = mgr.intersect(mgr.union(lost_out, mgr.pre(comp)), rest)
                    pending.append(Candidate(rest, empty, lost_out))
            if debug:
                invariants.check_disjoint(mgr, [c.vertices for c in pending] + accepted)

    with mgr.counters_paused():
        accepted.sort(key=mgr.min_vertex)
    return accepted


def _report(mgr, model, name, improved, threshold, debug):
    start = time.perf_counter()
    events = {}
    prep_sink = []
    mecs = mec_decomposition(mgr, model, improved=improved, threshold=threshold,
                             debug=debug, events=events, prep_sink=prep_sink)
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
