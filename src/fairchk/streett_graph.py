"""Winning sets of graphs with strong-fairness objectives.

Both algorithms refine a family of candidate vertex sets (initially the
SCCs of the graph) by removing bad vertices until the remaining good
components are found, and finally return everything that can reach a good
component.  The basic variant (loop: ``refine.refine_basic``) recomputes
the full SCC decomposition of a candidate after every removal.  The
improved variant (loop: ``refine.refine``) tracks which vertices lost
incoming or outgoing edges and, while there are few of them, splits
candidates with the lock-step search instead, which pays proportionally
to the smaller side of the split.
"""

from __future__ import annotations

import time

from .errors import UsageError
from .model import bad_vertices, has_edge, pair_sets
from .reach import reach_backward
from .refine import refine, refine_basic
from .report import RunReport
from .scc import all_sccs, lock_step_search
from .thresholds import streett_threshold

__all__ = ["streett_graph_basic", "streett_graph_improved"]


def _report(mgr, model, pairs, improved, threshold, debug):
    if model.kind != "graph":
        raise UsageError("this algorithm expects a graph model")
    start = time.perf_counter()
    thresh = streett_threshold(threshold, model.n, model.m) if improved else None
    psets = pair_sets(mgr, pairs)
    initial = all_sccs(mgr, mgr.universe)
    prep = mgr.snapshot_counters()
    operators = dict(removal=lambda svs: bad_vertices(mgr, svs, psets),
                     attract=lambda within, targets: targets)
    if improved:
        empty = mgr.empty()
        good, events = refine(
            mgr, model, psets, initial, thresh, **operators,
            escapes=lambda part, whole: empty,
            kernels=(all_sccs, lock_step_search),
            debug=debug,
        )
    else:
        good, rounds = refine_basic(
            mgr, model, psets, initial, **operators,
            decompose=lambda rest: all_sccs(mgr, rest),
            accepts=lambda svs: has_edge(mgr, svs),
            debug=debug,
        )
        events = {"rescc": rounds, "accepted": len(good), "bad_rounds": rounds}
    win = reach_backward(mgr, mgr.universe, mgr.union_all(good))
    return RunReport.since(
        mgr, "streett-graph-improved" if improved else "streett-graph-basic",
        start, prep, winning=mgr.to_ids(win), events=events,
    )


def streett_graph_basic(mgr, model, pairs, debug=False) -> RunReport:
    """Winning set via repeated bad-vertex removal and full SCC splits."""
    return _report(mgr, model, pairs, False, "auto", debug)


def streett_graph_improved(mgr, model, pairs, threshold="auto", debug=False) -> RunReport:
    """Winning set via lost-edge witnesses and lock-step splitting.

    A candidate whose witness sets are empty is known strongly connected
    and accepted outright; one with at least `threshold` witnesses is
    split by a full SCC decomposition (witnesses reset); anything in
    between is split by the lock-step search, with witness sets updated
    along the boundary of the split.  A removal takes nothing along.
    """
    return _report(mgr, model, pairs, True, threshold, debug)
