"""Winning sets of graphs with strong-fairness objectives.

Both algorithms refine a family of candidate vertex sets (initially the
SCCs of the graph) by removing bad vertices until the remaining good
components are found, and finally return everything that can reach a good
component.  The basic variant recomputes the full SCC decomposition of a
candidate after every removal.  The improved variant tracks which
vertices lost incoming or outgoing edges and, while there are few of
them, splits candidates with the lock-step search instead, which pays
proportionally to the smaller side of the split.
"""

from __future__ import annotations

import time
from collections import deque

from . import invariants
from .errors import UsageError
from .model import bad_vertices, pair_sets, union_all
from .reach import reach_backward
from .refine import refine
from .report import RunReport
from .scc import all_sccs, lock_step_search
from .thresholds import streett_threshold

__all__ = ["streett_graph_basic", "streett_graph_improved"]


def _require_graph(model):
    if model.kind != "graph":
        raise UsageError("this algorithm expects a graph model")


def streett_graph_basic(mgr, model, pairs, debug=False) -> RunReport:
    """Winning set via repeated bad-vertex removal and full SCC splits."""
    _require_graph(model)
    start = time.perf_counter()
    psets = pair_sets(mgr, pairs)
    pending = deque(all_sccs(mgr, mgr.universe))
    prep = mgr.snapshot_counters()
    good = []
    events = {"rescc": 0, "accepted": 0, "bad_rounds": 0}
    while pending:
        svs = pending.popleft()
        bad = bad_vertices(mgr, svs, psets)
        if not mgr.is_empty(bad):
            events["bad_rounds"] += 1
            events["rescc"] += 1
            pending.extend(all_sccs(mgr, mgr.difference(svs, bad)))
        elif not mgr.is_empty(mgr.intersect(mgr.post(svs), svs)):
            if debug:
                invariants.check_end_component(mgr, model, svs, psets)
            good.append(svs)
            events["accepted"] += 1
        if debug:
            invariants.check_disjoint(mgr, [c for c in pending] + good)
    win = reach_backward(mgr, mgr.universe, union_all(mgr, good))
    return RunReport(
        algorithm="streett-graph-basic",
        counters=mgr.snapshot_counters(),
        preprocessing=prep,
        wall_time=time.perf_counter() - start,
        winning=mgr.to_ids(win),
        events=events,
    )


def streett_graph_improved(mgr, model, pairs, threshold="auto", debug=False) -> RunReport:
    """Winning set via lost-edge witnesses and lock-step splitting.

    A candidate whose witness sets are empty is known strongly connected
    and accepted outright; one with at least `threshold` witnesses is
    split by a full SCC decomposition (witnesses reset); anything in
    between is split by the lock-step search, with witness sets updated
    along the boundary of the split.  A removal takes nothing along.
    """
    _require_graph(model)
    start = time.perf_counter()
    thresh = streett_threshold(threshold, model.n, model.m)
    psets = pair_sets(mgr, pairs)
    initial = all_sccs(mgr, mgr.universe)
    prep = mgr.snapshot_counters()
    empty = mgr.empty()
    good, events = refine(
        mgr, model, psets, initial, thresh,
        attract=lambda within, targets: targets,
        escapes=lambda part, whole: empty,
        kernels=(bad_vertices, all_sccs, lock_step_search),
        debug=debug,
    )
    win = reach_backward(mgr, mgr.universe, union_all(mgr, good))
    return RunReport(
        algorithm="streett-graph-improved",
        counters=mgr.snapshot_counters(),
        preprocessing=prep,
        wall_time=time.perf_counter() - start,
        winning=mgr.to_ids(win),
        events=events,
    )
