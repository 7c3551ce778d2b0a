"""Symbolic reachability, random attractors, almost-sure reachability."""

from __future__ import annotations

from . import invariants
from .symbolic import VertexSet

__all__ = ["reach_backward", "random_attractor", "random_escapes", "almost_sure_reach"]


def reach_backward(mgr, svs, targets):
    """Vertices of `svs` that can reach `targets` inside the subgraph on `svs`.

    Least fixpoint of ``X -> targets ∪ (pre(X) ∩ svs)``; uses at most
    ``|result \\ targets| + 1`` predecessor operations.  The backend runs
    the loop (``layers`` by ``pre``); it is charged as its manager calls count.
    """
    layers, acc = mgr._b.layers(mgr._b.pre, mgr._h(targets), mgr._h(svs))
    # Empty targets make no layer, but the manager loop still takes one
    # `pre` (of the empty set) and two set operations to see that.
    steps = len(layers) or 1
    mgr._charge(pre=steps, set_ops=3 * steps - 1)
    return VertexSet(mgr, acc)


def random_attractor(mgr, svs, targets, debug=False):
    """Random attractor of `targets` within the sub-MDP induced by `svs`.

    Least fixpoint of ``Z -> Z ∪ cpre_random(Z)`` with operators
    restricted to `svs`; uses at most ``|result \\ targets| + 1``
    controllable-predecessor operations.

    The induced sub-MDP is only well formed when random vertices of `svs`
    keep all their edges inside `svs`; callers stripping such vertices
    pass them inside `targets`, which keeps the fixpoint meaningful.  In
    debug mode this containment is checked.

    Player-1 vertices whose every edge leaves `svs` are forced out of the
    induced subgraph and therefore count as attracted, even from empty
    `targets`; the result is the least set containing `targets` that is
    closed under the restricted controllable predecessor.
    """
    if debug:
        invariants.check_no_random_escape(mgr, svs, targets)
    acc = targets
    while True:
        grown = mgr.union(acc, mgr.cpre_random(acc, within=svs))
        if grown == acc:
            return acc
        acc = grown


def random_escapes(mgr, part, whole):
    """Random vertices of `part` with an edge into ``whole ∖ part``.

    Uses one predecessor operation and three set operations.
    """
    return mgr.intersect(
        mgr.intersect(part, mgr.v_random), mgr.pre(mgr.difference(whole, part))
    )


def almost_sure_reach(mgr, targets):
    """Vertices from which player 1 reaches `targets` with probability 1.

    Iterated pruning: within the current universe, remove the vertices
    that cannot reach the targets at all, together with their random
    attractor.  Target vertices are winning the moment they are entered,
    so the attractor never swallows them (targets act as absorbing).
    """
    cur = mgr.universe
    while True:
        reaching = reach_backward(mgr, cur, mgr.intersect(targets, cur))
        dead = mgr.difference(cur, reaching)
        if mgr.is_empty(dead):
            return cur
        acc = dead
        while True:
            pulled = mgr.difference(mgr.cpre_random(acc, within=cur), targets)
            grown = mgr.union(acc, pulled)
            if grown == acc:
                break
            acc = grown
        cur = mgr.difference(cur, acc)
