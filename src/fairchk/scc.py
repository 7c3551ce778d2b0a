"""Symbolic SCC decomposition and the round-robin lock-step search.

`all_sccs` implements the skeleton-based decomposition: each recursion
step computes the forward set of a pivot while recording its layers,
extracts a shortest "spine" path through the layers, peels off the
pivot's SCC by a backward closure inside the forward set, and recurses on
the two remaining parts.  Re-using the spine remainder as the next pivot
is what keeps the total number of one-step operations linear in the
number of vertices.  A plain forward/backward variant is kept behind a
flag for differential testing.

`lock_step_search` interleaves backward searches from vertices that lost
incoming edges with forward searches from vertices that lost outgoing
edges, one step per search per round, stopping at the first search that
closes.  Under the start-vertex sufficiency invariant the closed set is a
top or bottom SCC of the induced subgraph, found within a number of steps
proportional to the number of searches times the size of the smaller side
of the split.

The skeleton decomposition and the lock-step search are the hot kernels
of every solve, so their inner loops run on raw backend handles rather
than through the manager.  Each checks the ownership of its incoming
handles at entry, counts its operations in local tallies, and charges
them with ``mgr._charge`` (once per call, or once per lock-step round):
exactly the counts the same sequence of manager calls would make, and
nothing while counting is paused.  Results are wrapped as `VertexSet` on
the way out.  Backend methods are looked up at kernel entry, so patches
on the backend classes take effect.
"""

from __future__ import annotations

from .errors import UsageError, InvariantViolation
from .symbolic import VertexSet

__all__ = ["all_sccs", "lock_step_search"]


def all_sccs(mgr, svs, variant="skeleton"):
    """SCC partition of the subgraph induced by `svs`.

    Returns vertex sets ordered by ascending minimum vertex id.  The
    default variant takes O(|svs|) symbolic steps.
    """
    h = mgr._h(svs)
    if variant == "skeleton":
        parts = _sccs_skeleton(mgr, h)
    elif variant == "fwbw":
        parts = [p.h for p in _sccs_fwbw(mgr, svs)]
    else:
        raise UsageError(f"unknown SCC variant {variant!r}")
    parts.sort(key=mgr._b.min_vertex)
    return [VertexSet(mgr, p) for p in parts]


def _sccs_skeleton(mgr, svs):
    """Raw-handle SCC parts of raw handle `svs`, in discovery order."""
    b = mgr._b
    pre, post = b.pre, b.post
    union, intersect, difference = b.union, b.intersect, b.difference
    is_empty, min_vertex, singleton = b.is_empty, b.min_vertex, b.singleton
    n_pre = n_post = n_set = n_pick = 0
    out = []
    empty = b.empty()
    work = [(svs, empty, empty)]
    while work:
        vset, spine, node = work.pop()
        if is_empty(vset):
            continue
        if is_empty(node):
            node = singleton(min_vertex(vset))
            n_pick += 1

        # Forward set of the pivot, one layer per step.
        layers = []
        fw = empty
        layer = node
        while not is_empty(layer):
            layers.append(layer)
            fw = union(fw, layer)
            layer = difference(intersect(post(layer), vset), fw)
        depth = len(layers)
        n_post += depth
        n_set += 3 * depth

        # Spine: a shortest path from the pivot to a deepest vertex.
        tip = singleton(min_vertex(layers[-1]))
        new_spine = tip
        hop = tip
        for prev in reversed(layers[:-1]):
            hop = singleton(min_vertex(intersect(pre(hop), prev)))
            new_spine = union(new_spine, hop)
        n_pick += depth
        n_pre += depth - 1
        n_set += 2 * (depth - 1)

        # The pivot's SCC: backward closure inside the forward set.
        comp = node
        front = node
        while True:
            new = difference(intersect(pre(front), fw), comp)
            n_pre += 1
            n_set += 2
            if is_empty(new):
                break
            comp = union(comp, new)
            n_set += 1
            front = new
        out.append(comp)

        # Outside the forward set the old spine minus the SCC remains a
        # path; its endpoint is the unique predecessor of the removed
        # suffix (the spine is a shortest path, so there is no shortcut).
        rest = difference(vset, fw)
        spine_rest = difference(spine, comp)
        n_set += 5
        if is_empty(spine_rest):
            node_rest = empty
        else:
            node_rest = intersect(pre(intersect(comp, spine)), spine_rest)
            n_pre += 1
            n_set += 2
        work.append((rest, spine_rest, node_rest))
        work.append(
            (
                difference(fw, comp),
                difference(new_spine, comp),
                difference(tip, comp),
            )
        )
    mgr._charge(pre=n_pre, post=n_post, set_ops=n_set, pick=n_pick)
    return out


def _sccs_fwbw(mgr, svs):
    out = []
    work = [svs]
    while work:
        vset = work.pop()
        if mgr.is_empty(vset):
            continue
        pivot = mgr.singleton(mgr.pick(vset))
        fw = pivot
        front = pivot
        while True:
            new = mgr.difference(mgr.intersect(mgr.post(front), vset), fw)
            if mgr.is_empty(new):
                break
            fw = mgr.union(fw, new)
            front = new
        bw = pivot
        front = pivot
        while True:
            new = mgr.difference(mgr.intersect(mgr.pre(front), vset), bw)
            if mgr.is_empty(new):
                break
            bw = mgr.union(bw, new)
            front = new
        comp = mgr.intersect(fw, bw)
        out.append(comp)
        work.append(mgr.difference(fw, comp))
        work.append(mgr.difference(bw, comp))
        work.append(mgr.difference(vset, mgr.union(fw, bw)))
    return out


def lock_step_search(mgr, svs, lost_in, lost_out, debug=False, trace=None):
    """Find a top or bottom SCC of the subgraph on `svs` by lock-step search.

    Backward searches start from every vertex of `lost_in`, forward
    searches from every vertex of `lost_out`.  Per round each live search
    advances one step; a search whose set comes to contain a second live
    start vertex of its own kind is dropped (it either shares its SCC
    with that vertex or cannot be extremal).  The first search that
    stops growing returns its set, together with the pruned start sets.

    The caller establishes the start-vertex sufficiency invariant (see
    :func:`fairchk.invariants.check_start_cover`); with `debug` the
    result is checked to be a top or bottom SCC.  `trace`, when given a
    list, receives one record per round with the live search counts and
    the one-step operation deltas of the round.
    """
    s = mgr._h(svs)
    alive = [mgr._h(lost_in), mgr._h(lost_out)]
    b = mgr._b
    card, to_ids = b.card, b.to_ids
    union, intersect, difference = b.union, b.intersect, b.difference
    is_empty, singleton = b.is_empty, b.singleton
    if is_empty(alive[0]) and is_empty(alive[1]):
        raise UsageError("lock-step search needs at least one start vertex")

    # Separate state per search kind: a vertex may start both a backward
    # and a forward search.  Index 0 is the backward kind, 1 the forward.
    kinds = []
    for step, starts in zip((b.pre, b.post), alive):
        acc = {v: singleton(v) for v in to_ids(starts)}
        kinds.append((step, acc, dict(acc)))

    while True:
        rounds = [to_ids(a) for a in alive]
        if trace is not None:
            record = {"live_in": len(rounds[0]), "live_out": len(rounds[1])}
            trace.append(record)

        # Per search: one step, three set operations (intersect, difference,
        # the collision intersect) and one cardinality; one set operation
        # more when the search grows and one when it is pruned.
        steps = [0, 0]
        n_extra = 0
        pruned = list(alive)
        found = None
        for k, (step, accs, fronts) in enumerate(kinds):
            live = pruned[k]
            n = 0
            for v in rounds[k]:
                n += 1
                acc = accs[v]
                new = difference(intersect(step(fronts[v]), s), acc)
                closed = is_empty(new)
                if closed:
                    cand = acc
                else:
                    cand = union(acc, new)
                    n_extra += 1
                if card(intersect(cand, live)) > 1:
                    live = difference(live, singleton(v))
                    n_extra += 1
                elif closed:
                    found = acc
                    break
                else:
                    accs[v] = cand
                    fronts[v] = new
            pruned[k] = live
            steps[k] = n
            if found is not None:
                break
        n_pre, n_post = steps
        mgr._charge(
            pre=n_pre,
            post=n_post,
            set_ops=3 * (n_pre + n_post) + n_extra,
            cardinality=n_pre + n_post,
        )
        if trace is not None:
            # The deltas of the counters, which stand still while paused.
            paused = mgr._paused
            record["pre_ops"] = 0 if paused else n_pre
            record["post_ops"] = 0 if paused else n_post
        if found is not None:
            comp = VertexSet(mgr, found)
            if debug:
                _check_extremal(mgr, svs, comp)
            return comp, VertexSet(mgr, pruned[0]), VertexSet(mgr, pruned[1])
        alive = pruned


def _check_extremal(mgr, svs, comp):
    with mgr.counters_paused():
        if len(all_sccs(mgr, comp)) != 1:
            raise InvariantViolation(
                f"lock-step result {mgr.to_ids(comp)} is not strongly connected"
            )
        others = mgr.difference(svs, comp)
        incoming = mgr.intersect(mgr.pre(comp), others)
        outgoing = mgr.intersect(mgr.post(comp), others)
        if not (mgr.is_empty(incoming) or mgr.is_empty(outgoing)):
            raise InvariantViolation(
                f"lock-step result {mgr.to_ids(comp)} is neither a top nor "
                "a bottom SCC"
            )
