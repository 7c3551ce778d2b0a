"""Symbolic reachability, random attractors, almost-sure reachability."""

from __future__ import annotations

from .errors import InvariantViolation

__all__ = ["reach_backward", "random_attractor", "random_escapes", "almost_sure_reach"]


def reach_backward(mgr, svs, targets):
    """Vertices of `svs` that can reach `targets` inside the subgraph on `svs`.

    Least fixpoint of ``X -> targets ∪ (pre(X) ∩ svs)``; uses at most
    ``|result \\ targets| + 1`` predecessor operations.
    """
    acc = targets
    front = targets
    while True:
        new = mgr.difference(mgr.intersect(mgr.pre(front), svs), acc)
        if mgr.is_empty(new):
            return acc
        acc = mgr.union(acc, new)
        front = new


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
        _check_random_escapes_covered(mgr, svs, targets)
    acc = targets
    while True:
        grown = mgr.union(acc, mgr.cpre_random(acc, within=svs))
        if grown == acc:
            return acc
        acc = grown


def _check_random_escapes_covered(mgr, svs, targets):
    with mgr.counters_paused():
        stray = mgr.difference(random_escapes(mgr, svs, mgr.universe), targets)
        if not mgr.is_empty(stray):
            raise InvariantViolation(
                "random vertices with edges leaving the attractor universe "
                f"are not part of the target set: {mgr.to_ids(stray)}"
            )


def random_escapes(mgr, part, whole):
    """Random vertices of `part` with an edge into ``whole ∖ part``.

    Uses one predecessor operation and three set operations.
    """
    return mgr.intersect(
        mgr.intersect(part, mgr.v_random), mgr.pre(mgr.difference(whole, part))
    )


def almost_sure_reach(mgr, model, targets):
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
