"""Explicit references used as ground truth in tests and in the debug checks.

Everything here works on adjacency tuples and Python sets, shares no code
with the symbolic layer but the adjacency builder `model.neighbour_tuples`
(which of the backends only the bitset one on tuples uses), and favors
obvious correctness over speed.  Each public function builds the model's
adjacency once and hands it to the helpers it calls.  Intended for
desk-scale inputs (tests cap these at n <= 64).
"""

from __future__ import annotations

__all__ = [
    "tarjan_scc",
    "top_bottom_sccs",
    "explicit_attractor",
    "explicit_almost_sure_reach",
    "explicit_mec",
    "explicit_streett_graph",
    "explicit_streett_mdp",
]


def tarjan_scc(model, subset=None) -> list:
    """SCC partition of the subgraph induced by `subset` (default: all).

    Iterative Tarjan; components are returned sorted by minimum vertex,
    vertices sorted within each component.
    """
    return _tarjan(model.out_adjacency(), subset)


def _tarjan(adj, subset=None):
    inside = set(range(len(adj)) if subset is None else subset)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    components = []

    def strongconnect(root):
        work = [(root, iter([w for w in adj[root] if w in inside]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([x for x in adj[w] if x in inside])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))

    for v in sorted(inside):
        if v not in index:
            strongconnect(v)
    components.sort(key=lambda comp: comp[0])
    return components


def top_bottom_sccs(model, subset=None) -> tuple:
    """The top and the bottom SCCs of the subgraph induced by `subset`, in
    :func:`tarjan_scc` order: no edge of the subgraph enters a top SCC
    from outside it, none leaves a bottom SCC."""
    adj = model.out_adjacency()
    radj = model.in_adjacency()
    parts = _tarjan(adj, subset)
    inside = {v for comp in parts for v in comp}
    tops, bottoms = [], []
    for comp in parts:
        members = set(comp)
        if not any(u in inside and u not in members for v in comp for u in radj[v]):
            tops.append(comp)
        if not any(w in inside and w not in members for v in comp for w in adj[v]):
            bottoms.append(comp)
    return tops, bottoms


def _reach_backward(adj_in, inside, targets):
    reached = set(targets) & inside
    frontier = list(reached)
    while frontier:
        v = frontier.pop()
        for u in adj_in[v]:
            if u in inside and u not in reached:
                reached.add(u)
                frontier.append(u)
    return reached


def explicit_attractor(model, inside, targets) -> set:
    """Random attractor of `targets` within the subgraph on `inside`.

    Fixpoint of adding random vertices with a successor in the attractor
    and player-1 vertices all of whose successors inside `inside` are in
    the attractor (vacuously, player-1 vertices with no such successor).
    """
    return _attractor(model.out_adjacency(), model.random_vertices, inside, targets)


def _attractor(adj, random_vertices, inside, targets):
    inside = set(inside)
    attr = set(targets) & inside
    changed = True
    while changed:
        changed = False
        for v in inside - attr:
            succ = [w for w in adj[v] if w in inside]
            if v in random_vertices:
                pull = any(w in attr for w in succ)
            else:
                pull = all(w in attr for w in succ)
            if pull:
                attr.add(v)
                changed = True
    return attr


def explicit_almost_sure_reach(model, targets) -> set:
    """Vertices from which the targets are reached with probability one.

    Iterated pruning: drop the region that cannot reach the targets, then
    its random attractor, until stable.  Target vertices count as won on
    arrival, so they are never pruned (equivalently, targets are treated
    as absorbing).
    """
    return _almost_sure_reach(model.out_adjacency(), model.in_adjacency(),
                              model.random_vertices, targets)


def _almost_sure_reach(adj, adj_in, random_vertices, targets):
    targets = set(targets)
    cur = set(range(len(adj)))
    while True:
        reaching = _reach_backward(adj_in, cur, targets & cur)
        dead = cur - reaching
        if not dead:
            return cur
        attr = set(dead)
        changed = True
        while changed:
            changed = False
            for v in cur - attr:
                if v in targets:
                    continue
                if v in random_vertices:
                    pull = any(w in attr or w not in cur for w in adj[v])
                else:
                    pull = all(w in attr or w not in cur for w in adj[v])
                if pull:
                    attr.add(v)
                    changed = True
        cur -= attr


def _has_internal_edge(adj, subset):
    subset = set(subset)
    return any(w in subset for v in subset for w in adj[v])


def explicit_mec(model, universe=None) -> list:
    """Maximal end-component decomposition, sorted by minimum vertex."""
    return _mec(model.out_adjacency(), model.random_vertices, universe)


def _mec(adj, random_vertices, universe=None):
    mecs = []
    work = [set(c) for c in _tarjan(adj, universe)]
    while work:
        part = work.pop()
        if not part:
            continue
        rout = {
            v
            for v in part & random_vertices
            if any(w not in part for w in adj[v])
        }
        if rout:
            rest = part - _attractor(adj, random_vertices, part, rout)
            work.extend(set(c) for c in _tarjan(adj, rest))
        elif _has_internal_edge(adj, part):
            mecs.append(sorted(part))
    mecs.sort(key=lambda comp: comp[0])
    return mecs


def _bad(pairs, subset):
    subset = set(subset)
    bad = set()
    for left, right in pairs.pairs:
        if not right & subset:
            bad |= left & subset
    return bad


def explicit_streett_graph(model, pairs) -> list:
    """Winning set of a graph for the strong-fairness objective."""
    adj = model.out_adjacency()
    adj_in = model.in_adjacency()
    good = []
    work = [set(c) for c in _tarjan(adj)]
    while work:
        part = work.pop()
        bad = _bad(pairs, part)
        if bad:
            work.extend(set(c) for c in _tarjan(adj, part - bad))
        elif _has_internal_edge(adj, part):
            good.append(part)
    target = set().union(*good) if good else set()
    return sorted(_reach_backward(adj_in, set(range(model.n)), target))


def explicit_streett_mdp(model, pairs) -> list:
    """Almost-sure winning set of an MDP for the strong-fairness objective."""
    adj = model.out_adjacency()
    random_vertices = model.random_vertices
    good = []
    work = [set(c) for c in _mec(adj, random_vertices)]
    while work:
        part = work.pop()
        bad = _bad(pairs, part)
        if bad:
            rest = part - _attractor(adj, random_vertices, part, bad)
            work.extend(set(c) for c in _mec(adj, random_vertices, rest))
        else:
            good.append(part)
    target = set().union(*good) if good else set()
    return sorted(_almost_sure_reach(adj, model.in_adjacency(), random_vertices, target))
