"""Shared instance generators and brute-force validators for the tests.

The seeded generators here define the instance distributions used by both
the unit tests and the acceptance suite.  The brute-force functions work
straight from the definitions (subset enumeration, memoryless-strategy
enumeration) and exist to validate the explicit oracles themselves on
tiny inputs.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager

import pytest

from fairchk import symbolic
from fairchk.generate import random_edges as random_graph
from fairchk.model import Model, StreettPairs
from fairchk.oracle import tarjan_scc, top_bottom_sccs

# The bitset backend's two adjacency representations, each with the value
# of the selection bound `symbolic._MASK_MAX_N` that forces it for every n.
BITSET_REPRESENTATIONS = {"masks": 2**62, "tuples": 0}


@contextmanager
def bitset_representation(name):
    """Bitset backends built inside the block use `name`'s adjacency."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_MASK_MAX_N", BITSET_REPRESENTATIONS[name])
        yield


def sized_ids(rng, n):
    """Random id lists of sizes 0, 1, the bulk cut-over and one either side
    of it, and n, each clipped to n, then the complement of each: every
    path of the bitset images gets an argument, the tuple images on either
    side of the cut-over and the mask images of near-full sets, taken from
    their complements, included."""
    cut = symbolic._BULK_CUTOVER
    sized = [
        sorted(rng.sample(range(n), min(size, n)))
        for size in (0, 1, cut - 1, cut, cut + 1, n)
    ]
    return sized + [sorted(set(range(n)).difference(ids)) for ids in sized]


def random_pairs(rng, n, k, density=0.25):
    pairs = []
    for _ in range(k):
        left = frozenset(v for v in range(n) if rng.random() < density)
        right = frozenset(v for v in range(n) if rng.random() < density)
        pairs.append((left, right))
    return StreettPairs(k, tuple(pairs))


def graph_instance(seed):
    """Criterion-1 distribution: graphs with n <= 10, m <= 30, k <= 3."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    m = rng.randint(n, min(30, n * n))
    edges = random_graph(rng, n, m)
    pairs = random_pairs(rng, n, rng.randint(0, 3))
    return Model("graph", n, tuple(edges), frozenset()).validate(), pairs


def mdp_instance(seed):
    """Criteria-2/3 distribution: MDPs with n <= 10 and 10/20/50% random."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    m = rng.randint(n, min(30, n * n))
    edges = random_graph(rng, n, m)
    frac = rng.choice([0.1, 0.2, 0.5])
    randoms = frozenset(rng.sample(range(n), int(frac * n)))
    pairs = random_pairs(rng, n, rng.randint(0, 3))
    return Model("mdp", n, tuple(edges), randoms).validate(), pairs


def ring_chain(n, k):
    """Bidirected player-1 ring MDP whose k pairs force one removal round each.

    Pair 1 is ({0}, {}) and pair i is ({i-1}, {i-2}): removing the only
    request of pair 1 leaves pair 2's request without its grant, and so on
    down the chain, so the basic algorithm re-decomposes k times.
    """
    edges = [e for v in range(n) for e in ((v, (v + 1) % n), ((v + 1) % n, v))]
    pairs = [(frozenset({0}), frozenset())]
    pairs += [(frozenset({i - 1}), frozenset({i - 2})) for i in range(2, k + 1)]
    return (Model("mdp", n, tuple(edges), frozenset()).validate(),
            StreettPairs(k, tuple(pairs)))


def scc_instance(seed, n_max=64):
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    m = rng.randint(n, min(3 * n, n * n))
    edges = random_graph(rng, n, m)
    return Model("graph", n, tuple(edges), frozenset()).validate()


def lockstep_instance(seed, n_max=24):
    """A candidate with the start-vertex invariant established by construction.

    Returns (model, subgraph ids, lost-in ids, lost-out ids): one witness
    per top SCC in the lost-in set and one per bottom SCC in the lost-out
    set, plus occasional extra witnesses anywhere in the subgraph.
    """
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    m = rng.randint(n, min(3 * n, n * n))
    model = Model("graph", n, tuple(random_graph(rng, n, m)), frozenset()).validate()
    svs = sorted(rng.sample(range(n), rng.randint(1, n)))
    tops, bottoms = top_bottom_sccs(model, svs)
    lost_in, lost_out = [], []
    # SCC by SCC in `tarjan_scc` order, a top's draw before a bottom's: the
    # order of the draws fixes every instance that the tests have seen.
    for comp in tarjan_scc(model, svs):
        if comp in tops:
            lost_in.append(rng.choice(comp))
        if comp in bottoms:
            lost_out.append(rng.choice(comp))
    for v in svs:
        if rng.random() < 0.08:
            (lost_in if rng.random() < 0.5 else lost_out).append(v)
    return model, svs, sorted(set(lost_in)), sorted(set(lost_out))


# -- handle-level reference kernels ----------------------------------------
#
# The SCC kernels in fairchk.scc run on raw backend handles and charge their
# operation tallies in bulk.  These copies make the same calls one by one
# through the counted manager methods, so they define the sets, counters and
# lock-step trace records the kernels must reproduce.  The SCC references
# return every part as a set, as a split ``(parts, [])``.


def split_ids(mgr, split):
    """The SCC split ``(parts, ids)`` as one sorted list of id lists, each
    one-vertex part in `ids` as ``[v]``."""
    parts, ids = split
    return sorted([mgr.to_ids(p) for p in parts] + [[v] for v in ids])


def reference_all_sccs(mgr, svs):
    """Skeleton SCC decomposition through manager calls, sorted by min id."""
    out = []
    empty = mgr.empty()
    work = [(svs, empty, empty)]
    while work:
        vset, spine, node = work.pop()
        if mgr.is_empty(vset):
            continue
        if mgr.is_empty(node):
            node = mgr.singleton(mgr.pick(vset))

        layers = []
        fw = empty
        layer = node
        while not mgr.is_empty(layer):
            layers.append(layer)
            fw = mgr.union(fw, layer)
            layer = mgr.difference(mgr.intersect(mgr.post(layer), vset), fw)

        tip = mgr.singleton(mgr.pick(layers[-1]))
        new_spine = tip
        hop = tip
        for prev in reversed(layers[:-1]):
            hop = mgr.singleton(mgr.pick(mgr.intersect(mgr.pre(hop), prev)))
            new_spine = mgr.union(new_spine, hop)

        comp = node
        front = node
        while True:
            new = mgr.difference(mgr.intersect(mgr.pre(front), fw), comp)
            if mgr.is_empty(new):
                break
            comp = mgr.union(comp, new)
            front = new
        out.append(comp)

        rest = mgr.difference(vset, fw)
        spine_rest = mgr.difference(spine, comp)
        if mgr.is_empty(spine_rest):
            node_rest = empty
        else:
            node_rest = mgr.intersect(
                mgr.pre(mgr.intersect(comp, spine)), spine_rest
            )
        work.append((rest, spine_rest, node_rest))
        work.append(
            (
                mgr.difference(fw, comp),
                mgr.difference(new_spine, comp),
                mgr.difference(tip, comp),
            )
        )
    with mgr.counters_paused():
        out.sort(key=mgr.min_vertex)
    return out, []


def reference_fwbw_sccs(mgr, svs):
    """Forward/backward SCC decomposition through manager calls, sorted by
    min id."""
    def closure(step, pivot, vset):
        """`pivot` and what `step` reaches from it inside `vset`."""
        acc = front = pivot
        while True:
            new = mgr.difference(mgr.intersect(step(front), vset), acc)
            if mgr.is_empty(new):
                return acc
            acc = mgr.union(acc, new)
            front = new

    out = []
    work = [svs]
    while work:
        vset = work.pop()
        if mgr.is_empty(vset):
            continue
        pivot = mgr.singleton(mgr.pick(vset))
        fw = closure(mgr.post, pivot, vset)
        bw = closure(mgr.pre, pivot, vset)
        comp = mgr.intersect(fw, bw)
        out.append(comp)
        work.append(mgr.difference(fw, comp))
        work.append(mgr.difference(bw, comp))
        work.append(mgr.difference(vset, mgr.union(fw, bw)))
    with mgr.counters_paused():
        out.sort(key=mgr.min_vertex)
    return out, []


def reference_lock_step_search(mgr, svs, lost_in, lost_out, trace=None, events=None):
    """Lock-step search through manager calls; returns (comp, in, out).

    `events`, when given a Counter, counts the searches pruned ("pruned")
    and those among them whose step found nothing new ("closed and pruned")."""
    h_acc, h_front = {}, {}
    for v in mgr.to_ids(lost_in):
        h_acc[v] = h_front[v] = mgr.singleton(v)
    t_acc, t_front = {}, {}
    for v in mgr.to_ids(lost_out):
        t_acc[v] = t_front[v] = mgr.singleton(v)

    h_alive = lost_in
    t_alive = lost_out
    while True:
        before = mgr.snapshot_counters()
        h_round = mgr.to_ids(h_alive)
        t_round = mgr.to_ids(t_alive)
        if trace is not None:
            record = {"live_in": len(h_round), "live_out": len(t_round)}
            trace.append(record)

        h_pruned = h_alive
        t_pruned = t_alive
        returned = None
        for h in h_round:
            grow = mgr.intersect(mgr.pre(h_front[h]), svs)
            new = mgr.difference(grow, h_acc[h])
            cand = h_acc[h] if mgr.is_empty(new) else mgr.union(h_acc[h], new)
            if mgr.cardinality(mgr.intersect(cand, h_pruned)) > 1:
                h_pruned = mgr.difference(h_pruned, mgr.singleton(h))
                if events is not None:
                    events["pruned"] += 1
                    events["closed and pruned"] += mgr.is_empty(new)
            elif mgr.is_empty(new):
                returned = (h_acc[h], h_pruned, t_alive)
                break
            else:
                h_acc[h] = cand
                h_front[h] = new
        if returned is None:
            for t in t_round:
                grow = mgr.intersect(mgr.post(t_front[t]), svs)
                new = mgr.difference(grow, t_acc[t])
                cand = t_acc[t] if mgr.is_empty(new) else mgr.union(t_acc[t], new)
                if mgr.cardinality(mgr.intersect(cand, t_pruned)) > 1:
                    t_pruned = mgr.difference(t_pruned, mgr.singleton(t))
                    if events is not None:
                        events["pruned"] += 1
                        events["closed and pruned"] += mgr.is_empty(new)
                elif mgr.is_empty(new):
                    returned = (t_acc[t], h_pruned, t_pruned)
                    break
                else:
                    t_acc[t] = cand
                    t_front[t] = new
        if trace is not None:
            delta = mgr.snapshot_counters() - before
            record["pre_ops"] = delta.pre_ops
            record["post_ops"] = delta.post_ops
        if returned is not None:
            return returned
        h_alive = h_pruned
        t_alive = t_pruned


def reference_obdd_image(backend, side, z):
    """`pre` (side 0) or `post` (side 1) of the raw OBDD `z` of an
    `ObddBackend`, by the relational product on every call."""
    dd = backend.dd
    if side == 0:
        return dd.and_exists(backend._edge_rel, dd.shift(z, 1), 1)
    return dd.shift(dd.and_exists(backend._edge_rel, z, 0), -1)


def reference_obdd_layers(backend, side, start, within):
    """`ObddBackend.layers` by side 0 (`pre`) or 1 (`post`), each layer cut
    to `within` and freed of what was seen by BDD operations."""
    dd = backend.dd
    out, seen, layer = [], 0, start
    while layer != 0:
        out.append(layer)
        seen = dd.or_(seen, layer)
        image = reference_obdd_image(backend, side, layer)
        layer = dd.diff(dd.and_(image, within), seen)
    return out, seen


def reference_obdd_spine(backend, layers):
    """`ObddBackend.spine`, each hop to the least predecessor found by a
    conjunction with the layer before."""
    v = backend.min_vertex(layers[-1])
    ids = [v]
    for prev in reversed(layers[:-1]):
        preds = reference_obdd_image(backend, 0, backend.singleton(v))
        v = backend.min_vertex(backend.dd.and_(preds, prev))
        ids.append(v)
    return ids


# -- definition-level brute force (tiny n only) ---------------------------


def subsets(n):
    for mask in range(1, 1 << n):
        yield [v for v in range(n) if mask >> v & 1]


def is_strongly_connected_with_edge(model, vertices):
    members = set(vertices)
    if not any(u in members and v in members for u, v in model.edges):
        return False
    adj = model.out_adjacency()
    for start in vertices:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != members:
            return False
    return True


def is_end_component(model, vertices):
    members = set(vertices)
    adj = model.out_adjacency()
    for v in members & model.random_vertices:
        if any(w not in members for w in adj[v]):
            return False
    return is_strongly_connected_with_edge(model, vertices)


def satisfies_pairs(pairs, vertices):
    members = set(vertices)
    return all(not (left & members) or (right & members) for left, right in pairs.pairs)


def brute_maximal_ecs(model):
    ecs = [frozenset(x) for x in subsets(model.n) if is_end_component(model, x)]
    maximal = [sorted(x) for x in ecs if not any(x < y for y in ecs)]
    return sorted(maximal, key=lambda comp: comp[0])


def brute_almost_sure_reach(model, targets):
    """A.s. reachability by enumerating memoryless strategies."""
    targets = set(targets)
    adj = model.out_adjacency()
    controlled = [v for v in range(model.n) if v not in model.random_vertices]
    winning = set(targets)
    combos = itertools.product(*(adj[v] for v in controlled)) if controlled else [()]
    for combo in combos:
        succ = {v: [c] for v, c in zip(controlled, combo)}
        for v in model.random_vertices:
            succ[v] = adj[v]
        for v in targets:
            succ[v] = [v]
        chain_edges = tuple(sorted({(u, w) for u in range(model.n) for w in succ[u]}))
        chain = Model("graph", model.n, chain_edges, frozenset())
        doomed = set()
        for comp in top_bottom_sccs(chain)[1]:
            if not targets.intersection(comp):
                doomed.update(comp)
        radj = chain.in_adjacency()
        stack = list(doomed)
        while stack:
            u = stack.pop()
            for w in radj[u]:
                if w not in doomed:
                    doomed.add(w)
                    stack.append(w)
        winning |= set(range(model.n)) - doomed
    return sorted(winning)


def brute_streett_graph(model, pairs):
    goods = [
        set(x)
        for x in subsets(model.n)
        if is_strongly_connected_with_edge(model, x) and satisfies_pairs(pairs, x)
    ]
    target = set().union(*goods) if goods else set()
    radj = model.in_adjacency()
    win = set(target)
    stack = list(target)
    while stack:
        u = stack.pop()
        for w in radj[u]:
            if w not in win:
                win.add(w)
                stack.append(w)
    return sorted(win)


def brute_streett_mdp(model, pairs):
    goods = [
        set(x)
        for x in subsets(model.n)
        if is_end_component(model, x) and satisfies_pairs(pairs, x)
    ]
    target = set().union(*goods) if goods else set()
    return brute_almost_sure_reach(model, sorted(target))
