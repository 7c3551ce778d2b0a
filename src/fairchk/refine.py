"""The refinement loops of the fairness and MEC algorithms.

:func:`refine_basic` runs the three basic variants (graph fairness, MDP
fairness, MEC decomposition): it removes what cannot stay in a candidate,
with its attractor, and decomposes the rest from scratch.  :func:`refine`
runs the three improved ones.  Each of its candidates carries the vertices
that lost an incoming (`lost_in`) or an outgoing (`lost_out`) edge since a
superset was last known to be strongly connected; MEC candidates carry
`lost_out` only.  Per candidate, what `removal` finds is removed until
nothing remains, the witnesses updated along the removal boundary; a
candidate without an edge is dropped; one without witnesses is accepted;
one with at least `threshold` witnesses is split into SCCs; anything in
between is split by the lock-step search, which separates one top or
bottom SCC, and both halves keep witnesses along the split.

The three problems differ only in their operators, which each driver
defines once and passes to both loops:

- ``removal(svs)``: what cannot stay in the candidate `svs`.  The
  fairness problems remove the bad vertices of their pairs; the MEC
  decomposition removes the random vertices with an edge leaving `svs`.
- ``attract(within, targets)``: the vertices of `within` removed with
  `targets`.  Graphs remove `targets` alone; MDPs remove their random
  attractor.
- ``escapes(part, whole)`` (:func:`refine`): the vertices of `part`, a
  component split off `whole`, that must leave with the rest of `whole`.
  Graphs and the MEC decomposition have none; on MDPs they are the
  random vertices of `part` with an edge into ``whole ∖ part``.

The operators, and the `kernels` of :func:`refine`, reach the kernels
through the caller's module bindings (a lambda or an inner function that
names the module global), not through imports of this module, because
tools that wrap kernels per calling module (``perfbench/tracing.py``)
patch those bindings.
"""

from __future__ import annotations

from collections import deque

from . import invariants
from .errors import InvariantViolation
from .model import Candidate, has_edge

__all__ = ["refine", "refine_basic"]


def refine_basic(mgr, model, psets, initial, removal, attract, decompose,
                 accepts, debug=False):
    """Accepted sets among the candidates `initial`, and the round count.

    A candidate `svs` with nonempty ``removal(svs)`` loses ``attract(svs,
    removal(svs))``, and ``decompose`` of the rest gives new candidates
    (one round); one with nothing to remove is accepted if ``accepts(svs)``.
    `psets` serves only the debug checks.
    """
    pending = deque(initial)
    good = []
    rounds = 0
    while pending:
        svs = pending.popleft()
        removed = removal(svs)
        if not mgr.is_empty(removed):
            rounds += 1
            rest = mgr.difference(svs, attract(svs, removed))
            if debug:
                invariants.check_no_random_escape(mgr, rest)
            pending.extend(decompose(rest))
        elif accepts(svs):
            if debug:
                invariants.check_end_component(mgr, model, svs, psets)
            good.append(svs)
        if debug:
            invariants.check_disjoint(mgr, list(pending) + good)
    return good, rounds


def refine(mgr, model, psets, initial, thresh, removal, attract, escapes,
           kernels, debug=False, *, mec=False):
    """Good components among the candidate sets `initial`, and the events.

    `kernels` is ``(all_sccs, lock_step_search)``, passed from the
    caller's module bindings rather than imported here (see the module
    docstring).  `psets` serves only the debug checks.  Returns the
    accepted components in acceptance order and the counts of removal
    rounds, SCC splits, lock-step splits and acceptances.  With `mec`,
    the loop decomposes into MECs: only `lost_out` counts, one removal
    round suffices (the random attractor of the escapes leaves no random
    escape), and the lock-step component is accepted whenever it has an
    edge.
    """
    all_sccs, lock_step_search = kernels
    empty = mgr.empty()
    pending = deque(Candidate(comp, empty, empty) for comp in initial)
    good = []
    events = {"rescc": 0, "lockstep": 0, "accepted": 0, "bad_rounds": 0}

    def accept(svs):
        if debug:
            invariants.check_end_component(mgr, model, svs, psets)
        good.append(svs)
        events["accepted"] += 1

    def boundary(rest, removed, lost_in=None, lost_out=None):
        # Witnesses of `rest` once `removed` left it; None stands for no
        # earlier witnesses, which saves the two unions.
        if mec:
            return empty, mgr.intersect(mgr.union(lost_out, mgr.pre(removed)), rest)
        if lost_in is None:
            return (mgr.intersect(mgr.post(removed), rest),
                    mgr.intersect(mgr.pre(removed), rest))
        return (mgr.intersect(mgr.union(lost_in, mgr.post(removed)), rest),
                mgr.intersect(mgr.union(lost_out, mgr.pre(removed)), rest))

    def push_rest(part, removed, lost_in=None, lost_out=None):
        rest = mgr.difference(part, removed)
        if not mgr.is_empty(rest):
            witnesses = boundary(rest, removed, lost_in, lost_out)
            pending.append(Candidate(rest, *witnesses))

    def split_off(svs, comp, lost_in, lost_out):
        # `svs` loses what `comp` attracts in it, `comp` included; `comp`
        # loses what its escapes into the rest attract in it.
        comp_attr = attract(comp, escapes(comp, svs))
        svs_attr = attract(svs, comp)
        if debug:
            _check_separation_attractor(mgr, attract, svs, comp, comp_attr)
        push_rest(svs, svs_attr, lost_in, lost_out)
        if mgr.is_empty(comp_attr):
            pending.append(Candidate(comp, empty, empty))
        else:
            push_rest(comp, comp_attr)

    while pending:
        cand = pending.popleft()
        if debug:
            invariants.check_candidate(mgr, cand)
        svs, lost_in, lost_out = cand.vertices, cand.lost_in, cand.lost_out

        bad = removal(svs)
        while not mgr.is_empty(bad):
            events["bad_rounds"] += 1
            removed = attract(svs, bad)
            svs = mgr.difference(svs, removed)
            lost_in, lost_out = boundary(svs, removed, lost_in, lost_out)
            bad = empty if mec else removal(svs)
        if debug:
            invariants.check_no_random_escape(mgr, svs)

        if not has_edge(mgr, svs):
            continue
        witnesses = (0 if mec else mgr.cardinality(lost_in)) + mgr.cardinality(lost_out)
        if witnesses == 0:
            accept(svs)
        elif witnesses >= thresh:
            events["rescc"] += 1
            parts = all_sccs(mgr, svs)
            if len(parts) == 1:
                accept(svs)
            else:
                for part in parts:
                    leaving = escapes(part, svs)
                    if mgr.is_empty(leaving):
                        pending.append(Candidate(part, empty, empty))
                    else:
                        push_rest(part, attract(part, leaving))
        else:
            events["lockstep"] += 1
            if debug:
                invariants.check_start_cover(mgr, model, svs, lost_in, lost_out)
            comp, lost_in, lost_out = lock_step_search(
                mgr, svs, lost_in, lost_out, debug=debug
            )
            if mec:
                if has_edge(mgr, comp):
                    accept(comp)
                push_rest(svs, comp, lost_in, lost_out)
            elif comp == svs:
                accept(svs)
            else:
                split_off(svs, comp, lost_in, lost_out)
        if debug:
            invariants.check_disjoint(mgr, [c.vertices for c in pending] + good)
    return good, events


def _check_separation_attractor(mgr, attract, svs, comp, comp_attr):
    # What the split-off component loses, computed inside the component,
    # must be what the removal of the rest of the candidate takes from the
    # component when computed inside the whole candidate.
    with mgr.counters_paused():
        whole = attract(svs, mgr.difference(svs, comp))
        if mgr.intersect(whole, comp) != comp_attr:
            raise InvariantViolation(
                "separation attractor mismatch between the in-component "
                "and the in-candidate computation"
            )
