"""Maximal end-component decomposition of MDPs.

Candidates start as the SCCs of the underlying graph, which the caller
splits off first as the preprocessing phase.  They are cleaned of random
vertices with edges leaving them, together with their random attractor,
then either accepted as end-components or split further.  The basic
variant (loop: ``refine.refine_basic``) recomputes the full SCC
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


def mec_decomposition(mgr, model, initial, improved=True, threshold="auto",
                      debug=False):
    """The MECs among the SCCs `initial`, sorted by least vertex, and the
    counts of SCC splits (``rescc``) and lock-step splits.

    `initial` is normally ``all_sccs`` of the universe or of a subset;
    the driver `_report` below makes that split for ``mec_basic`` and
    ``mec_improved`` and builds their report.
    Graphs are handled as MDPs without random vertices: their MECs are the
    SCCs that contain at least one edge.
    """
    operators = dict(removal=lambda svs: random_escapes(mgr, svs, mgr.universe),
                     attract=lambda within, targets: random_attractor(
                         mgr, within, targets, debug=debug))
    if improved:
        accepted, found = refine(
            mgr, model, (), initial, mec_threshold(threshold, model.n, model.m),
            **operators, escapes=lambda part, whole: mgr.empty(),
            kernels=(all_sccs, lock_step_search),
            debug=debug, mec=True,
        )
        events = {"rescc": found["rescc"], "lockstep": found["lockstep"]}
    else:
        accepted, rounds = refine_basic(
            mgr, model, (), initial, **operators,
            decompose=lambda rest: all_sccs(mgr, rest),
            accepts=lambda svs: has_edge(mgr, svs),
            debug=debug,
        )
        events = {"rescc": rounds, "lockstep": 0}

    accepted.sort(key=mgr.min_vertex)
    return accepted, events


def _report(mgr, model, improved, threshold, debug):
    start = time.perf_counter()
    initial = all_sccs(mgr, mgr.universe)
    prep = mgr.snapshot_counters()
    mecs, events = mec_decomposition(mgr, model, initial, improved=improved,
                                     threshold=threshold, debug=debug)
    return RunReport.since(
        mgr, "mec-improved" if improved else "mec-basic",
        start, prep, components=[mgr.to_ids(c) for c in mecs], events=events,
    )


def mec_basic(mgr, model, debug=False) -> RunReport:
    """Decomposition with a full SCC recomputation after every cleanup."""
    return _report(mgr, model, False, "auto", debug)


def mec_improved(mgr, model, threshold="auto", debug=False) -> RunReport:
    """Decomposition with lock-step bottom-SCC peeling below the threshold."""
    return _report(mgr, model, True, threshold, debug)
