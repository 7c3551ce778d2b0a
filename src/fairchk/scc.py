"""Symbolic SCC decomposition and the round-robin lock-step search.

`all_sccs` implements the skeleton-based decomposition: each recursion
step computes the forward set of a pivot while recording its layers,
extracts a shortest "spine" path through the layers, peels off the
pivot's SCC by a backward search inside the forward set, and recurses on
the two remaining parts.  The spine's vertex set is built once from its
ids, charged as the ``depth - 1`` binary unions that would join its
vertices one at a time; on decision diagrams this makes only the spine's
own nodes.  A pivot whose forward search stops at once, with no successor
in its set, is its own part: its spine walk, backward search and empty
inner part are skipped, and charged as before.  Re-using the spine
remainder as the next pivot is what keeps the total number of one-step
operations linear in the number of vertices.
The plain forward/backward variant, the ``scc`` command's basic
algorithm, runs from each pivot one forward and one backward search over
the whole set, as ``layers`` by ``post`` and by ``pre``, and recurses on
the three parts they leave.

Both variants return one split: the parts of two or more vertices as
sets, the one-vertex parts as ids.  A part is its pivot alone when the
skeleton's backward search stops after one layer, or when the fw-bw
searches meet in the pivot alone.  On a bit mask a one-vertex set is as
wide as its vertex id, so a set per part took memory quadratic in the
number of vertices on graphs where most parts are single vertices.

`lock_step_search` interleaves backward searches from vertices that lost
incoming edges with forward searches from vertices that lost outgoing
edges, one step per search per round, stopping at the first search that
closes.  Under the start-vertex sufficiency invariant the closed set is a
top or bottom SCC of the induced subgraph, found within a number of steps
proportional to the number of searches times the size of the smaller side
of the split.

The skeleton decomposition and the lock-step search are the hot kernels
of every solve, so their inner loops run on raw backend handles rather
than through the manager, and so does the forward/backward variant; the
skeleton kernel's two searches and spine walk run inside the backend, as
``layers`` by ``post``, ``spine``, and ``layers`` by ``pre`` per
recursion step, or only the first for a pivot with no successor.  The
kernels read a search's layers only by their number, its step count, and
through ``spine``; their form is the backend's (on OBDDs, id lists).
Each kernel checks the ownership of its incoming handles at entry,
counts its operations in local tallies, and charges them with
``mgr._charge`` (once per call, or once per lock-step round): exactly
the counts the same sequence of manager calls would make, which a
paused block (``mgr.counters_paused``) puts back when it ends.  Results
are wrapped as `VertexSet` on the way out, except the ids of one-vertex
parts.  Backend methods, these two included, are looked up when a
kernel runs, so patches on the backend classes apply.
"""

from __future__ import annotations

from .errors import UsageError
from .symbolic import VertexSet

__all__ = ["all_sccs", "lock_step_search"]


def all_sccs(mgr, svs, variant="skeleton"):
    """SCC split of the subgraph induced by `svs`, as ``(parts, ids)``.

    `parts` are the parts of two or more vertices, as vertex sets ordered
    by ascending least vertex; `ids` are the vertices of the one-vertex
    parts, ascending.  The default variant takes O(|svs|) symbolic steps.
    """
    kernel = {"skeleton": _sccs_skeleton, "fwbw": _sccs_fwbw}.get(variant)
    if kernel is None:
        raise UsageError(f"unknown SCC variant {variant!r}")
    parts, ids = kernel(mgr, mgr._h(svs))
    parts.sort(key=mgr._b.min_vertex)
    ids.sort()
    return [VertexSet(mgr, p) for p in parts], ids


def _sccs_skeleton(mgr, svs):
    """Raw-handle SCC parts of raw handle `svs` of two or more vertices,
    and the ids of the one-vertex parts, both in discovery order."""
    b = mgr._b
    pre, layers_of, spine_of = b.pre, b.layers, b.spine
    intersect, difference = b.intersect, b.difference
    is_empty, min_vertex = b.is_empty, b.min_vertex
    singleton, from_ids = b.singleton, b.from_ids
    n_pre = n_post = n_set = n_pick = 0
    out, ids = [], []
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
        layers, fw = layers_of(1, node, vset)
        depth = len(layers)
        n_post += depth
        n_set += 3 * depth

        if depth == 1:
            # The pivot has no successor in `vset`, so it is its own SCC:
            # its spine is itself, and its backward search would stop after
            # one `pre`.  Neither runs, and `fw - comp` is empty, but both
            # are charged below as if they had run.
            comp, steps = node, 1
        else:
            # Spine: a shortest path from the pivot to a deepest vertex.
            # Its vertices are built into one set.
            path = spine_of(layers)
            tip = singleton(path[0])
            new_spine = from_ids(path)

            # The pivot's SCC: backward search inside the forward set, one
            # `pre` per layer of the never-empty pivot, the last finding
            # nothing new.
            back, comp = layers_of(0, node, fw)
            steps = len(back)
        if steps == 1:  # the pivot alone, kept as its id
            ids.append(min_vertex(node))
        else:
            out.append(comp)
        # The spine walk, charged as the depth - 1 unions that would join
        # its vertices one at a time, and the backward search.
        n_pick += depth
        n_pre += depth - 1 + steps
        n_set += 2 * (depth - 1) + 3 * steps - 1

        # Outside the forward set the old spine minus the SCC remains a
        # path; its endpoint is the unique predecessor of the removed
        # suffix (the spine is a shortest path, so there is no shortcut).
        # The three differences of the inner item are charged also when
        # a one-layer pivot leaves that item empty and skips it.
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
        if depth > 1:
            work.append(
                (
                    difference(fw, comp),
                    difference(new_spine, comp),
                    difference(tip, comp),
                )
            )
    mgr._charge(pre=n_pre, post=n_post, set_ops=n_set, pick=n_pick)
    return out, ids


def _sccs_fwbw(mgr, svs):
    """Raw-handle SCC parts of raw handle `svs` of two or more vertices,
    and the ids of the one-vertex parts, by plain forward and backward
    searches from each pivot, both in discovery order."""
    b = mgr._b
    n_pre = n_post = 0
    out, ids = [], []
    work = [svs]
    while work:
        vset = work.pop()
        if b.is_empty(vset):
            continue
        v = b.min_vertex(vset)
        pivot = b.singleton(v)
        layers, fw = b.layers(1, pivot, vset)
        n_post += len(layers)
        layers, bw = b.layers(0, pivot, vset)
        n_pre += len(layers)
        comp = b.intersect(fw, bw)
        if comp == pivot:  # the pivot alone, kept as its id
            ids.append(v)
        else:
            out.append(comp)
        # The searched parts are popped first, so their masks do not wait
        # on the stack while the rest is split.
        work += (b.difference(vset, b.union(fw, bw)), b.difference(fw, comp),
                 b.difference(bw, comp))
    # One pivot per part.  A search of L layers, the pivot first, is
    # charged as L images, each cut to the set and freed of what was seen
    # (two set operations), and L - 1 unions of a new layer into what was
    # seen.  With the five set operations after the searches a pivot costs
    # 3 * (Lf + Lb + 1).
    n_pick = len(out) + len(ids)
    mgr._charge(pre=n_pre, post=n_post, set_ops=3 * (n_pre + n_post + n_pick), pick=n_pick)
    return out, ids


def lock_step_search(mgr, svs, lost_in, lost_out, trace=None):
    """Find a top or bottom SCC of the subgraph on `svs` by lock-step search.

    Backward searches start from every vertex of `lost_in`, forward
    searches from every vertex of `lost_out`.  Per round each live search
    advances one step; a search whose set comes to contain a second live
    start vertex of its own kind is dropped (it either shares its SCC
    with that vertex or cannot be extremal).  The first search that
    stops growing returns its set, together with the pruned start sets.

    The caller establishes the start-vertex sufficiency invariant (see
    :func:`fairchk.invariants.check_start_cover`) and, in debug mode,
    checks the result with :func:`fairchk.invariants.check_extremal`.
    `trace`, when given a list, receives one record per round with the
    live search counts and the one-step operations of the round.  These
    are the round's counts also inside ``mgr.counters_paused``, where the
    counters move until the block ends.
    """
    s = mgr._h(svs)
    alive = [mgr._h(lost_in), mgr._h(lost_out)]
    b = mgr._b
    union, intersect, difference = b.union, b.intersect, b.difference
    is_empty, singleton = b.is_empty, b.singleton
    if is_empty(alive[0]) and is_empty(alive[1]):
        raise UsageError("lock-step search needs at least one start vertex")

    # Separate state per search kind: a vertex may start both a backward
    # and a forward search.  Index 0 is the backward kind, 1 the forward.
    # A pruned search leaves its accumulators, so their keys are the live
    # start ids, ascending.
    kinds = []
    for step, starts in zip((b.pre, b.post), alive):
        acc = {v: singleton(v) for v in b.to_ids(starts)}
        kinds.append((step, acc, dict(acc)))

    while True:
        live_in, live_out = (len(accs) for _, accs, _ in kinds)

        # Per search: one step, three set operations (intersect, difference,
        # the collision intersect) and one cardinality; one set operation
        # more when the search grows and one when it is pruned.  `v` is in
        # its own set and still in `live`, so the set holds a second live
        # start vertex exactly when the collision intersect is not {v}.
        steps = [0, 0]
        n_extra = 0
        pruned = list(alive)
        found = None
        for k, (step, accs, fronts) in enumerate(kinds):
            live = pruned[k]
            n = 0
            for v in list(accs):
                n += 1
                acc = accs[v]
                new = difference(intersect(step(fronts[v]), s), acc)
                closed = is_empty(new)
                if closed:
                    cand = acc
                else:
                    cand = union(acc, new)
                    n_extra += 1
                if intersect(cand, live) != singleton(v):
                    live = difference(live, singleton(v))
                    del accs[v]
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
            trace.append({"live_in": live_in, "live_out": live_out,
                          "pre_ops": n_pre, "post_ops": n_post})
        if found is not None:
            return tuple(VertexSet(mgr, h) for h in (found, *pruned))
        alive = pruned

