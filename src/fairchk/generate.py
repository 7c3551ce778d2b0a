"""Deterministic model and pairs generators for benchmarks and tests.

Families:

- ``random``: a graph with `n` vertices and `m` distinct edges, one
  guaranteed outgoing edge per vertex (self-loops allowed).
- ``mdp-random``: the same graph with ``floor(random_fraction * n)``
  vertices marked random.
- ``chain-of-cycles``: `cycles` simple cycles of `cycle_size` vertices
  each, consecutive cycles linked by one edge from the last vertex of one
  to the first vertex of the next.
- ``grid``: a directed torus with right and down edges.

Each side of a pair takes each vertex with probability `PAIR_DENSITY`,
up to ``max(1, ceil(n / PAIR_CAP_DIVISOR))`` vertices, mirroring the
regime where objectives are small relative to the state space.  All
output is a deterministic function of the parameters and the seed.
"""

from __future__ import annotations

import math
import random

from .errors import UsageError
from .model import Model, StreettPairs

__all__ = ["generate_objects", "random_edges", "FAMILIES"]

FAMILIES = ("random", "mdp-random", "chain-of-cycles", "grid")
PAIR_DENSITY = 0.2
PAIR_CAP_DIVISOR = 5


def random_edges(rng, n, m):
    """`m` distinct edges on `n` vertices drawn with `rng`, the first `n`
    of them one per source vertex so that no vertex is a sink."""
    if m < n:
        raise UsageError(f"need at least n={n} edges to avoid sinks, got m={m}")
    if m > n * n:
        raise UsageError(f"at most n*n={n * n} distinct edges exist, got m={m}")
    edges = []
    seen = set()
    for u in range(n):
        v = rng.randrange(n)
        edges.append((u, v))
        seen.add((u, v))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return edges


def _sample_pairs(rng, n, k):
    cap = max(1, math.ceil(n / PAIR_CAP_DIVISOR))
    pairs = []
    for _ in range(k):
        sets = []
        for _side in range(2):
            chosen = []
            for v in range(n):
                if len(chosen) >= cap:
                    break
                if rng.random() < PAIR_DENSITY:
                    chosen.append(v)
            sets.append(frozenset(chosen))
        pairs.append((sets[0], sets[1]))
    return StreettPairs(k, tuple(pairs))


def generate_objects(family, n=None, m=None, k=0, cycles=None, cycle_size=None,
                     random_fraction=0.0, seed=0) -> tuple:
    """A (Model, StreettPairs) instance of `family` for the given seed."""
    if k < 0:
        raise UsageError("the number of pairs must be non-negative")
    rng = random.Random(seed)
    if family in ("random", "mdp-random"):
        if n is None:
            raise UsageError("family needs n")
        if m is None:
            m = min(2 * n, n * n)
        edges = random_edges(rng, n, m)
        if family == "mdp-random":
            if not 0 <= random_fraction <= 1:
                raise UsageError("random fraction must lie in [0, 1]")
            count = math.floor(random_fraction * n)
            randoms = frozenset(rng.sample(range(n), count))
            model = Model("mdp", n, tuple(edges), randoms)
        else:
            model = Model("graph", n, tuple(edges), frozenset())
    elif family == "chain-of-cycles":
        if cycle_size is None:
            cycle_size = 2
        if cycle_size < 1:
            raise UsageError("cycle-size must be positive")
        if cycles is None:
            if n is None:
                raise UsageError("family needs cycles or n")
            cycles = max(1, n // cycle_size)
        if cycles < 1:
            raise UsageError("cycles must be positive")
        edges = []
        for c in range(cycles):
            base = c * cycle_size
            for j in range(cycle_size):
                edges.append((base + j, base + (j + 1) % cycle_size))
            if c + 1 < cycles:
                edges.append((base + cycle_size - 1, base + cycle_size))
        model = Model("graph", cycles * cycle_size, tuple(edges), frozenset())
    elif family == "grid":
        if n is None:
            raise UsageError("family needs n")
        side = max(1, math.isqrt(n))
        if side * side < n:
            side += 1
        edges = []
        for r in range(side):
            for c in range(side):
                v = r * side + c
                edges.append((v, r * side + (c + 1) % side))
                if side > 1:
                    edges.append((v, ((r + 1) % side) * side + c))
        model = Model("graph", side * side, tuple(edges), frozenset())
    else:
        raise UsageError(f"unknown family {family!r}")
    model.validate()
    return model, _sample_pairs(rng, model.n, k)
