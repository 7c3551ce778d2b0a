"""The refinement loops of the fairness and MEC algorithms, and the
operators they share.

:func:`refine_basic` runs the three basic variants (graph fairness, MDP
fairness, MEC decomposition): it removes what cannot stay in a candidate,
with its attractor, and decomposes the rest from scratch.  :func:`refine`
runs the three improved ones.  Each of its candidates is a triple
``(vertices, lost_in, lost_out)``: the witnesses are the vertices that
lost an incoming (`lost_in`) or an outgoing (`lost_out`) edge since a
superset was last known to be strongly connected; MEC candidates carry
`lost_out` only.  Per candidate, what `removal` finds is removed until
nothing remains, the witnesses updated along the removal boundary; a
candidate without an edge is dropped; one without witnesses is accepted;
one with at least `threshold` witnesses is split into SCCs; anything in
between is split by the lock-step search, which separates one top or
bottom SCC, and both halves keep witnesses along the split.

Both loops drop a trivial candidate, one vertex without a self-loop,
before they queue it: it can never be accepted, so it costs no removal,
no edge test and no escapes.  The test (``SymbolicManager.is_trivial``)
is one cardinality operation, and one set operation more for a single
vertex.  It applies to every candidate the loops queue: the `initial`
ones, the decomposed rests of :func:`refine_basic`, and the SCC parts,
rests and lock-step components of :func:`refine`; and, in
:func:`refine`, to what each removal round leaves of a candidate, which
is dropped uncounted when the round took all of it.

The SCC parts come as ``all_sccs(mgr, svs)`` returns them, as `initial`,
from ``decompose`` and in the SCC split of :func:`refine`: the parts of
two or more vertices as sets and the one-vertex parts as vertex ids.  An
id is tested for a self-loop by id (``SymbolicManager.looped_singletons``),
at the cost of the test on its one-vertex set, and with one it is queued
as that set, in its place by least vertex.  The SCC split of
:func:`refine` accepts on the number of parts, which includes the
trivial ones, since a candidate made of one SCC and a trivial vertex is
not strongly connected.

The three problems differ only in their operators, which each driver
defines once and passes to both loops:

- ``removal(svs)``: what cannot stay in the candidate `svs`.  The
  fairness problems remove the bad vertices of their pairs
  (:func:`bad_vertices` on the table :func:`pair_sets` reads once per
  solve); the MEC decomposition removes the random vertices with an edge
  leaving `svs`.
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
from .errors import InvariantViolation, UsageError
from .symbolic import VertexSet

__all__ = ["refine", "refine_basic", "pair_sets", "bad_vertices", "has_edge"]


def pair_sets(mgr, pairs) -> tuple:
    """The table of the pairs of `pairs` with requests, for :func:`bad_vertices`.

    Opaque: ``(mgr, [(request, grant), ...])``, raw handles of `mgr` made
    once per solve through ``mgr.from_ids``, which range-checks the ids
    (uncounted setup).
    """
    return mgr, [(mgr.from_ids(left).h, mgr.from_ids(right).h)
                 for left, right in pairs.pairs]


def bad_vertices(mgr, svs, psets) -> VertexSet:
    """Vertices of `svs` whose request pair has no grant inside `svs`.

    `psets` is a table of `mgr` made by :func:`pair_sets`; its owner is
    checked once, before anything is counted.  For each pair whose grant
    set misses `svs` entirely, the members of the request set inside `svs`
    are bad.  The fold runs on the table's raw handles and charges what
    the same fold of manager calls counts: one set operation per pair,
    and one more per pair whose grants miss.
    """
    owner, table = psets
    if owner is not mgr:
        raise UsageError("pair table belongs to a different manager")
    b, s = mgr._b, mgr._h(svs)
    intersect, union, is_empty = b.intersect, b.union, b.is_empty
    acc = b.empty()
    bad = 0
    for request, grant in table:
        if is_empty(intersect(grant, s)):
            acc = union(acc, request)
            bad += 1
    mgr._charge(set_ops=len(table) + bad)
    return VertexSet(mgr, intersect(acc, s) if bad else acc)


def has_edge(mgr, svs) -> bool:
    """Whether `svs` induces an edge: one post and one set operation."""
    return not mgr.is_empty(mgr.intersect(mgr.post(svs), svs))


def _nontrivial(mgr, parts, ids):
    """The parts of the SCC split ``(parts, ids)`` that are not trivial,
    as sets ascending by least vertex."""
    kept = [part for part in parts if not mgr.is_trivial(part)]
    looped = mgr.looped_singletons(ids)
    if looped:
        kept = sorted(kept + looped, key=mgr.min_vertex)
    return kept


def refine_basic(mgr, model, initial, removal, attract, decompose, accepts,
                 debug=False):
    """Accepted sets among the candidates `initial`, and the round count.

    A candidate `svs` with nonempty ``removal(svs)`` loses ``attract(svs,
    removal(svs))``, and ``decompose`` of the rest gives new candidates
    (one round); one with nothing to remove is accepted if ``accepts(svs)``.
    `initial` and what ``decompose`` returns are SCC splits (see the
    module docstring).
    """
    pending = deque(_nontrivial(mgr, *initial))
    good = []
    rounds = 0
    while pending:
        svs = pending.popleft()
        removed = removal(svs)
        if not mgr.is_empty(removed):
            rounds += 1
            rest = mgr.difference(svs, attract(svs, removed))
            if debug:
                invariants.check_no_random_escape(mgr, rest, mgr.empty())
            pending.extend(_nontrivial(mgr, *decompose(rest)))
        elif accepts(svs):
            if debug:
                invariants.check_end_component(mgr, model, svs, removal)
            good.append(svs)
        if debug:
            invariants.check_disjoint(mgr, list(pending) + good)
    return good, rounds


def refine(mgr, model, initial, thresh, removal, attract, escapes, kernels,
           debug=False, *, mec=False):
    """Good components among the candidates of the SCC split `initial`,
    and the events.

    `kernels` is ``(all_sccs, lock_step_search)``, passed from the
    caller's module bindings rather than imported here (see the module
    docstring).  Returns the accepted components in acceptance order and
    the counts of removal rounds, SCC splits, lock-step splits and
    acceptances.  With `mec`, the loop decomposes into MECs: only
    `lost_out` counts, one removal round suffices (the random attractor
    of the escapes leaves no random escape), and the lock-step component
    is accepted whenever it has an edge.
    """
    all_sccs, lock_step_search = kernels
    empty = mgr.empty()
    pending = deque((comp, empty, empty) for comp in _nontrivial(mgr, *initial))
    good = []
    events = {"rescc": 0, "lockstep": 0, "accepted": 0, "bad_rounds": 0}

    def accept(svs):
        if debug:
            invariants.check_end_component(mgr, model, svs, removal)
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
        if not mgr.is_empty(rest) and not mgr.is_trivial(rest):
            witnesses = boundary(rest, removed, lost_in, lost_out)
            pending.append((rest, *witnesses))

    def split_off(svs, comp, lost_in, lost_out):
        # `svs` loses what `comp` attracts in it, `comp` included; `comp`
        # loses what its escapes into the rest attract in it.
        push_rest(svs, attract(svs, comp), lost_in, lost_out)
        if mgr.is_trivial(comp):
            return
        comp_attr = attract(comp, escapes(comp, svs))
        if debug:
            _check_separation_attractor(mgr, attract, svs, comp, comp_attr)
        if mgr.is_empty(comp_attr):
            pending.append((comp, empty, empty))
        else:
            push_rest(comp, comp_attr)

    while pending:
        svs, lost_in, lost_out = pending.popleft()
        if debug:
            invariants.check_candidate(mgr, svs, lost_in, lost_out)

        bad = removal(svs)
        while not mgr.is_empty(bad):
            events["bad_rounds"] += 1
            removed = attract(svs, bad)
            svs = mgr.difference(svs, removed)
            if mgr.is_empty(svs) or mgr.is_trivial(svs):
                svs = None  # dropped, as if it had been queued
                break
            lost_in, lost_out = boundary(svs, removed, lost_in, lost_out)
            bad = empty if mec else removal(svs)
        if svs is None:
            continue
        if debug:
            invariants.check_no_random_escape(mgr, svs, empty)

        if not has_edge(mgr, svs):
            continue
        witnesses = (0 if mec else mgr.cardinality(lost_in)) + mgr.cardinality(lost_out)
        if witnesses == 0:
            accept(svs)
        elif witnesses >= thresh:
            events["rescc"] += 1
            parts, ids = all_sccs(mgr, svs)
            if len(parts) + len(ids) == 1:
                accept(svs)
            else:
                for part in _nontrivial(mgr, parts, ids):
                    leaving = escapes(part, svs)
                    if mgr.is_empty(leaving):
                        pending.append((part, empty, empty))
                    else:
                        push_rest(part, attract(part, leaving))
        else:
            events["lockstep"] += 1
            if debug:
                invariants.check_start_cover(mgr, model, svs, lost_in, lost_out)
            comp, lost_in, lost_out = lock_step_search(mgr, svs, lost_in, lost_out)
            if debug:
                invariants.check_extremal(mgr, model, svs, comp)
            if mec:
                if has_edge(mgr, comp):
                    accept(comp)
                push_rest(svs, comp, lost_in, lost_out)
            elif comp == svs:
                accept(svs)
            else:
                split_off(svs, comp, lost_in, lost_out)
        if debug:
            invariants.check_disjoint(mgr, [c[0] for c in pending] + good)
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
