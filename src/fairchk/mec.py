"""Maximal end-component decomposition of MDPs.

Candidates (initially the SCCs of the underlying graph) are cleaned of
random vertices with edges leaving them, together with their random
attractor, then either accepted as end-components or split further.  The
basic variant (loop: ``refine.refine_basic``) recomputes the full SCC
decomposition after every cleanup.  The improved variant (loop:
``refine.refine`` with ``mec=True``) tracks only the vertices that lost
outgoing edges; while there are few, a single bottom SCC is peeled off
with a lock-step search (forward searches only), which is accepted
directly whenever it has an edge.
"""

from __future__ import annotations

import time

from .model import has_edge
from .reach import random_attractor, random_escapes
from .refine import refine, refine_basic
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

    initial = all_sccs(mgr, universe)
    if prep_sink is not None:
        prep_sink.append(mgr.snapshot_counters())

    def attract(within, targets):
        return random_attractor(mgr, within, targets, debug=debug)

    if not improved:
        accepted, rounds = refine_basic(
            mgr, model, (), initial,
            removal=lambda svs: random_escapes(mgr, svs, mgr.universe),
            attract=attract,
            decompose=lambda rest: all_sccs(mgr, rest),
            accepts=lambda svs: has_edge(mgr, svs),
            debug=debug,
        )
        events["rescc"] += rounds
    else:
        accepted, found = refine(
            mgr, model, (), initial, thresh,
            attract=attract,
            escapes=lambda part, whole: mgr.empty(),
            kernels=(lambda mgr, svs, _: random_escapes(mgr, svs, mgr.universe),
                     all_sccs, lock_step_search),
            debug=debug, mec=True,
        )
        events["rescc"] += found["rescc"]
        events["lockstep"] += found["lockstep"]

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
