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

from fairchk.generate import random_edges as random_graph
from fairchk.model import Model, StreettPairs
from fairchk.oracle import tarjan_scc


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
    inside = set(svs)
    adj = model.out_adjacency()
    radj = model.in_adjacency()
    lost_in, lost_out = [], []
    for comp in tarjan_scc(model, svs):
        members = set(comp)
        if not any(u in inside and u not in members for v in comp for u in radj[v]):
            lost_in.append(rng.choice(comp))
        if not any(w in inside and w not in members for v in comp for w in adj[v]):
            lost_out.append(rng.choice(comp))
    for v in svs:
        if rng.random() < 0.08:
            (lost_in if rng.random() < 0.5 else lost_out).append(v)
    return model, svs, sorted(set(lost_in)), sorted(set(lost_out))


def top_bottom_sccs(model, svs):
    inside = set(svs)
    adj = model.out_adjacency()
    radj = model.in_adjacency()
    tops, bottoms = [], []
    for comp in tarjan_scc(model, svs):
        members = set(comp)
        if not any(u in inside and u not in members for v in comp for u in radj[v]):
            tops.append(comp)
        if not any(w in inside and w not in members for v in comp for w in adj[v]):
            bottoms.append(comp)
    return tops, bottoms


# -- handle-level reference kernels ----------------------------------------
#
# The SCC kernels in fairchk.scc run on raw backend handles and charge their
# operation tallies in bulk.  These copies make the same calls one by one
# through the counted manager methods, so they define the sets, counters and
# lock-step trace records the kernels must reproduce.


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
    return out


def reference_lock_step_search(mgr, svs, lost_in, lost_out, trace=None):
    """Lock-step search through manager calls; returns (comp, in, out)."""
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
        cadj = chain.out_adjacency()
        doomed = set()
        for comp in tarjan_scc(chain):
            members = set(comp)
            bottom = all(w in members for u in comp for w in cadj[u])
            if bottom and not (members & targets):
                doomed |= members
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
