"""Debug-mode invariant assertions for the decomposition algorithms.

All checks run with counters paused and, where strong connectivity is
involved, validate against the explicit SCC oracle rather than the
symbolic machinery under test.  Enabled through the ``debug`` flag of
the algorithms (``--debug-invariants`` on the command line).
"""

from __future__ import annotations

from . import oracle
from .errors import InvariantViolation
from .model import bad_vertices
from .reach import random_escapes

__all__ = [
    "check_candidate",
    "check_disjoint",
    "check_no_random_escape",
    "check_end_component",
    "check_start_cover",
]


def check_candidate(mgr, cand):
    with mgr.counters_paused():
        for label, witness in (("lost_in", cand.lost_in), ("lost_out", cand.lost_out)):
            if not mgr.is_empty(mgr.difference(witness, cand.vertices)):
                raise InvariantViolation(f"{label} is not a subset of the candidate")


def check_disjoint(mgr, sets):
    """The maintained candidate and accepted sets must be pairwise disjoint."""
    with mgr.counters_paused():
        seen = mgr.empty()
        for svs in sets:
            if not mgr.is_empty(mgr.intersect(seen, svs)):
                raise InvariantViolation("maintained sets are not pairwise disjoint")
            seen = mgr.union(seen, svs)


def check_no_random_escape(mgr, svs):
    """No random vertex of `svs` may have an edge leaving `svs`."""
    with mgr.counters_paused():
        escapes = random_escapes(mgr, svs, mgr.universe)
        if not mgr.is_empty(escapes):
            raise InvariantViolation(
                f"random vertices with outgoing edges: {mgr.to_ids(escapes)}"
            )


def check_end_component(mgr, model, svs, psets=()):
    """Accepted end-component: nonempty, strongly connected, has an edge,
    closed for random vertices and free of bad vertices for `psets`.

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
        if not mgr.is_empty(bad_vertices(mgr, svs, psets)):
            raise InvariantViolation("accepted component has bad vertices")
    check_no_random_escape(mgr, svs)


def check_start_cover(mgr, model, svs, lost_in, lost_out):
    """Start-vertex sufficiency, certified against the explicit SCCs.

    Nonempty lost-in sets must hit every top SCC of the induced subgraph,
    nonempty lost-out sets every bottom SCC; with both empty the subgraph
    must be strongly connected.  This is the contract under which the
    lock-step search returns a top or bottom SCC.
    """
    with mgr.counters_paused():
        svs_ids = mgr.to_ids(svs)
        in_ids = set(mgr.to_ids(lost_in))
        out_ids = set(mgr.to_ids(lost_out))
    inside = set(svs_ids)
    parts = oracle.tarjan_scc(model, svs_ids)
    if not in_ids and not out_ids:
        if len(parts) != 1:
            raise InvariantViolation(
                "no lost-edge witnesses but the candidate is not strongly connected"
            )
        return
    adj = model.out_adjacency()
    radj = model.in_adjacency()
    for comp in parts:
        members = set(comp)
        if in_ids:
            top = not any(
                u in inside and u not in members for v in comp for u in radj[v]
            )
            if top and not (members & in_ids):
                raise InvariantViolation(f"top SCC {comp} not covered by lost-in")
        if out_ids:
            bottom = not any(
                w in inside and w not in members for v in comp for w in adj[v]
            )
            if bottom and not (members & out_ids):
                raise InvariantViolation(f"bottom SCC {comp} not covered by lost-out")
