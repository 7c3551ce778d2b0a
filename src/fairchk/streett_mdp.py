"""Almost-sure winning sets of MDPs with strong-fairness objectives.

The candidates for good end-components start as the MECs of the MDP, which
``mec_decomposition`` refines from the SCCs; that SCC split is the
preprocessing phase, as for graphs.  The basic loop
(``refine.refine_basic``) strips the random attractor of the bad
vertices and recomputes the MEC decomposition of the rest.  The improved
loop (``refine.refine``) keeps candidates merely free of escaping random
edges, removing the attractor of whatever gets removed, so each step gets
away with an SCC or lock-step split instead of a full MEC recomputation.
The loops take their candidates in the shape of an SCC split, ``(parts,
ids)``, the one-vertex parts as ids; MECs have edges, so they come as
``(mecs, [])``.  The result is the set of vertices that reach the union
of the good end-components with probability one.
"""

from __future__ import annotations

import time

from .errors import UsageError
from .mec import mec_decomposition
from .reach import almost_sure_reach, random_attractor, random_escapes
from .refine import bad_vertices, pair_sets, refine, refine_basic
from .report import RunReport
from .scc import all_sccs, lock_step_search
from .thresholds import streett_threshold

__all__ = ["streett_mdp_basic", "streett_mdp_improved"]


def _report(mgr, model, pairs, improved, threshold, debug):
    if model.kind != "mdp":
        raise UsageError("this algorithm expects an mdp model")
    start = time.perf_counter()
    thresh = streett_threshold(threshold, model.n, model.m) if improved else None
    psets = pair_sets(mgr, pairs)
    initial = all_sccs(mgr, mgr.universe)
    prep = mgr.snapshot_counters()
    mecs, _ = mec_decomposition(mgr, model, initial, debug=debug)

    operators = dict(removal=lambda svs: bad_vertices(mgr, svs, psets),
                     attract=lambda within, targets: random_attractor(
                         mgr, within, targets, debug=debug))
    if improved:
        good, events = refine(
            mgr, model, (mecs, []), thresh, **operators,
            escapes=lambda part, whole: random_escapes(mgr, part, whole),
            kernels=(all_sccs, lock_step_search),
            debug=debug,
        )
    else:
        # MECs have edges, so every candidate without bad vertices is accepted.
        good, rounds = refine_basic(
            mgr, model, (mecs, []), **operators,
            decompose=lambda rest: ([] if mgr.is_empty(rest) else mec_decomposition(
                mgr, model, all_sccs(mgr, rest), debug=debug)[0], []),
            accepts=lambda svs: True,
            debug=debug,
        )
        events = {"remec": rounds, "accepted": len(good), "bad_rounds": rounds}
    win = almost_sure_reach(mgr, mgr.union_all(good))
    return RunReport.since(
        mgr, "streett-mdp-improved" if improved else "streett-mdp-basic",
        start, prep, winning=mgr.to_ids(win), events=events,
    )


def streett_mdp_basic(mgr, model, pairs, debug=False) -> RunReport:
    """Almost-sure winning set via repeated MEC recomputation."""
    return _report(mgr, model, pairs, False, "auto", debug)


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
    return _report(mgr, model, pairs, True, threshold, debug)
