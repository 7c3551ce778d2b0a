"""Debug-mode invariant assertions for the decomposition algorithms.

The refinement loops call them, the lock-step search's pre- and
postcondition (:func:`check_start_cover`, :func:`check_extremal`)
included.  All run with counters paused, and every strong-connectivity
or top/bottom-SCC fact comes from :mod:`fairchk.oracle`, never from the
symbolic machinery under test.  Enabled through the ``debug`` flag of
the algorithms (``--debug-invariants`` on the command line).
"""

from __future__ import annotations

from . import oracle, reach
from .errors import InvariantViolation

__all__ = [
    "check_candidate",
    "check_disjoint",
    "check_no_random_escape",
    "check_end_component",
    "check_start_cover",
    "check_extremal",
]


def check_candidate(mgr, svs, lost_in, lost_out):
    """The witnesses of the candidate `svs` must be subsets of it."""
    with mgr.counters_paused():
        for label, witness in (("lost_in", lost_in), ("lost_out", lost_out)):
            if not mgr.is_empty(mgr.difference(witness, svs)):
                raise InvariantViolation(f"{label} is not a subset of the candidate")


def check_disjoint(mgr, sets):
    """The maintained candidate and accepted sets must be pairwise disjoint."""
    with mgr.counters_paused():
        seen = mgr.empty()
        for svs in sets:
            if not mgr.is_empty(mgr.intersect(seen, svs)):
                raise InvariantViolation("maintained sets are not pairwise disjoint")
            seen = mgr.union(seen, svs)


def check_no_random_escape(mgr, svs, allowed):
    """No random vertex of `svs` outside `allowed` has an edge leaving `svs`."""
    with mgr.counters_paused():
        stray = mgr.difference(reach.random_escapes(mgr, svs, mgr.universe), allowed)
        if not mgr.is_empty(stray):
            raise InvariantViolation(
                f"random vertices with outgoing edges: {mgr.to_ids(stray)}"
            )


def check_end_component(mgr, model, svs, removal=None):
    """Accepted end-component: nonempty, strongly connected, has an edge,
    closed for random vertices and, given the refinement loop's
    `removal`, left with nothing to remove.

    On graphs, which have no random vertices, this is a good component.
    """
    with mgr.counters_paused():
        ids = mgr.to_ids(svs)
        if not ids:
            raise InvariantViolation("accepted component is empty")
        if len(oracle.tarjan_scc(model, ids)) != 1:
            raise InvariantViolation("accepted component is not strongly connected")
        member = set(ids)
        if not any(u in member and v in member for u, v in model.edges):
            raise InvariantViolation("accepted component has no edge")
        if removal is not None and not mgr.is_empty(removal(svs)):
            raise InvariantViolation("accepted component has vertices to remove")
    check_no_random_escape(mgr, svs, mgr.empty())


def check_start_cover(mgr, model, svs, lost_in, lost_out):
    """Start-vertex sufficiency, certified against the explicit SCCs.

    Nonempty lost-in sets must hit every top SCC of the induced subgraph,
    nonempty lost-out sets every bottom SCC; with both empty the subgraph
    must be strongly connected.  This is the contract under which the
    lock-step search returns a top or bottom SCC (:func:`check_extremal`).
    """
    with mgr.counters_paused():
        svs_ids = mgr.to_ids(svs)
        in_ids = set(mgr.to_ids(lost_in))
        out_ids = set(mgr.to_ids(lost_out))
    if not (in_ids or out_ids) and len(oracle.tarjan_scc(model, svs_ids)) != 1:
        raise InvariantViolation(
            "no lost-edge witnesses but the candidate is not strongly connected"
        )
    tops, bottoms = oracle.top_bottom_sccs(model, svs_ids)
    for comp in tops if in_ids else ():
        if not in_ids.intersection(comp):
            raise InvariantViolation(f"top SCC {comp} not covered by lost-in")
    for comp in bottoms if out_ids else ():
        if not out_ids.intersection(comp):
            raise InvariantViolation(f"bottom SCC {comp} not covered by lost-out")


def check_extremal(mgr, model, svs, comp):
    """The lock-step result `comp` is a top or a bottom SCC of the subgraph
    on `svs`, certified against the explicit SCCs."""
    with mgr.counters_paused():
        comp_ids = mgr.to_ids(comp)
        svs_ids = mgr.to_ids(svs)
    tops, bottoms = oracle.top_bottom_sccs(model, svs_ids)
    if comp_ids not in tops and comp_ids not in bottoms:
        raise InvariantViolation(
            f"lock-step result {comp_ids} is neither a top nor a bottom SCC"
        )
