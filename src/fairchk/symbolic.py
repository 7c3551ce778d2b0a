"""Backend-abstract symbolic vertex-set layer with exact operation accounting.

Algorithm modules access the transition structure through
:class:`SymbolicManager`, which supports the classic one-step operators
(predecessor, successor, controllable predecessor for random players),
set algebra, cardinality and vertex picking.  Every call increments a
counter in :class:`StepCounters`; the counters are the cost model in which
all step bounds of the algorithms are stated and measured.  Work that is
not part of that cost, such as debug assertions, runs inside
:meth:`SymbolicManager.counters_paused`, which puts the counters back on
exit to what they were on entry.

The SCC kernels of :mod:`fairchk.scc`, ``reach.reach_backward`` and
``refine.bad_vertices`` run their inner loops on the raw backend handles
instead, to skip the per-operation handle allocation and ownership check.
They check the ownership of every incoming handle (or pair table) at
entry, tally their operations locally, and charge, through ``_charge``,
exactly what the same sequence of manager calls would have counted.  The
backend protocol has, besides the set operations, the skeleton kernel's
loops: ``spine``, and ``layers(side, start, within)``, one breadth-first
search by ``pre`` (side 0) or ``post`` (side 1) that also serves
``reach_backward``.  The kernel builds each spine of ``d`` vertices once
from its ids and charges it as the ``d - 1`` binary unions that would
join them.  It also has
``is_single`` and ``has_loop`` (whether one vertex, given by its id, has a
self-loop), which serve :meth:`SymbolicManager.is_trivial` in constant time
on one vertex, and :meth:`SymbolicManager.looped_singletons` on the ids of
the one-vertex parts of an SCC split.
:meth:`SymbolicManager.union_all` checks every member before it counts
one set operation per member, then folds them with the backend ``union``.

Two interchangeable backends implement the same semantics:

- ``bitset``: vertex sets are Python integers used as bit masks.  The
  edge relation is a pair of adjacency mask tables on models of at most
  ``_MASK_MAX_N`` (4096) vertices, where the tables take at most 4 MB, and
  a pair of per-vertex neighbour-id tuples on larger models, in memory
  proportional to the edges.  Set algebra negates no mask.  Images and
  ``to_ids`` walk the bits from the top, so the ints they read shrink as
  they go; past ``_BULK_CUTOVER + 1`` (25) vertices, ``to_ids`` scans one
  binary string and an image on tuples marks one byte buffer.  On mask
  tables, an image of a set of more than 7/8 of the vertices walks the
  set's complement instead, and tests one mask per vertex of the
  complement's image, so it costs what the complement costs: the escape
  image of ``cpre_random`` on a removal round's near-full set is of this
  kind.  Fast and transparent; the reference backend for tests.
- ``obdd``: vertex sets are reduced ordered binary decision diagrams over
  the binary encoding of vertex ids (see :mod:`fairchk.obdd`).

On both, ``cpre_random`` is one formula over two ``pre`` images: the
random vertices of ``s`` with a successor in ``z & s``, and the player-1
vertices of ``s`` with no successor in ``s - z``.

Both backends are exact; a property of the package is that identical call
sequences produce identical sets and identical counters on either backend.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

from .errors import UsageError
from .model import neighbour_tuples
from .obdd import ObddBackend

__all__ = ["StepCounters", "VertexSet", "SymbolicManager"]


@dataclasses.dataclass
class StepCounters:
    """Monotone counters for the symbolic operations of one manager.

    ``pre_ops + post_ops`` is the headline step count used in benchmark
    comparisons; controllable-predecessor steps and the cheaper set-level
    operations are tracked separately and never folded into it.
    """

    pre_ops: int = 0
    post_ops: int = 0
    cpre_ops: int = 0
    set_ops: int = 0
    cardinality_ops: int = 0
    pick_ops: int = 0

    @property
    def headline(self) -> int:
        return self.pre_ops + self.post_ops

    def copy(self) -> "StepCounters":
        return dataclasses.replace(self)

    def __sub__(self, other: "StepCounters") -> "StepCounters":
        return StepCounters(*(getattr(self, f.name) - getattr(other, f.name)
                              for f in dataclasses.fields(self)))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class VertexSet:
    """Opaque handle to a set of vertices owned by one manager.

    Handles are immutable; all algebra goes through the owning manager so
    that it can be counted.  Equality compares the underlying sets (both
    backends use canonical representations, so this is cheap and is not a
    counted operation).
    """

    __slots__ = ("mgr", "h")

    def __init__(self, mgr: "SymbolicManager", h):
        self.mgr = mgr
        self.h = h

    def __eq__(self, other):
        return (
            isinstance(other, VertexSet)
            and self.mgr is other.mgr
            and self.h == other.h
        )

    def __hash__(self):
        return hash((id(self.mgr), self.h))

    def __repr__(self):
        ids = self.mgr.to_ids(self)
        if len(ids) > 12:
            shown = ", ".join(map(str, ids[:12]))
            return f"VertexSet{{{shown}, ... ({len(ids)} total)}}"
        return "VertexSet{" + ", ".join(map(str, ids)) + "}"


# Adjacency is kept as two tables of neighbour masks while n is at most
# this.  A mask's bits reach its highest neighbour id, so the tables take
# up to about n*n/4 bytes, 4 MB at this bound.  Larger models keep tuples
# of neighbour ids instead, in memory proportional to the edges.
_MASK_MAX_N = 4096
# Bit walks take the highest vertex of a set first, so the int they read
# shrinks as they go.  After this many vertices and one more, `to_ids`
# reads the rest of its set by one scan of its binary string, and an image
# on neighbour tuples marks the rest in a byte buffer read back as one int.
_BULK_CUTOVER = 24


def _ids(h):
    """Ids of the bits set in `h`, ascending, from one scan of ``bin(h)``."""
    s = bin(h)[:1:-1]  # s[v] is bit v
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


class _BitsetBackend:
    """Vertex sets as integer bit masks; adjacency as masks or id tuples.

    The representation of the edge relation is picked from `n` at
    construction: mask tables while ``n <= _MASK_MAX_N``, per-vertex tuples
    of neighbour ids above.  No set operation negates a mask: ``a & ~b``
    takes CPython's slow path for negative ints, about 4 times the cost of
    ``a ^ (a & b)`` on 16,384 bits.  Bit walks take the top vertex first,
    ``v = z.bit_length() - 1`` then ``z ^= 1 << v``, in place of ``z & -z``.
    On masks, an image ORs one neighbour mask per vertex of its argument,
    unless the argument holds more than ``dense`` (7/8 of n) vertices: then
    it ORs one per vertex of the complement and tests one opposite mask
    per vertex that image reaches, which is cheaper on sparse relations
    (``_image_by_complement``).  A one-vertex image pays one int
    comparison for that test, and ``bit_count`` only when its vertex id is
    at least ``dense``.
    On tuples, it shifts in one bit per neighbour for the top
    ``_BULK_CUTOVER + 1`` vertices, then marks the neighbours of the rest
    in a ``bytearray`` of ``b"0"``/``b"1"`` read back with one ``int``.
    ``layers`` (both searches) takes one ``pre`` or ``post`` per step and,
    from its second layer on, narrows a frontier of unreached vertices.
    ``spine`` reads ``in_masks`` or the in-neighbour tuples.
    ``cpre_random`` is int operators around two ``pre`` calls, the formula
    of ``ObddBackend.cpre_random``.
    """

    name = "bitset"

    def __init__(self, n, edges, random_vertices):
        self.n = n
        self.full = (1 << n) - 1
        if n <= _MASK_MAX_N:
            out = [0] * n
            inc = [0] * n
            for u, v in edges:
                out[u] |= 1 << v
                inc[v] |= 1 << u
            self.out_masks = out
            self.in_masks = inc
            # An image of a set of more than `dense` vertices, which is at
            # least `dense_floor`, is taken from the set's complement.  On
            # random relations of 1,024 vertices (Python 3.11, one Xeon
            # core), that was the faster way from 88% of n up at average
            # out-degree up to 8, and up to 35% slower at out-degree 32.
            self.dense = 7 * n // 8
            self.dense_floor = 1 << self.dense
            self._full_images = [None, None]  # pre, post: built on first use
            self.out_adj = self.in_adj = None
        else:
            self.out_masks = self.in_masks = None
            self.out_adj = neighbour_tuples(n, edges)
            self.in_adj = neighbour_tuples(n, ((v, u) for u, v in edges))
        vr = 0
        for v in random_vertices:
            vr |= 1 << v
        self.vr_mask = vr

    def empty(self):
        return 0

    def universe(self):
        return self.full

    def from_ids(self, ids):
        h = 0
        for v in ids:
            h |= 1 << v
        return h

    def singleton(self, v):
        return 1 << v

    def to_ids(self, h):
        out, z = [], h
        for _ in range(_BULK_CUTOVER + 1):
            if not z:
                out.reverse()
                return out
            v = z.bit_length() - 1
            out.append(v)
            z ^= 1 << v
        return _ids(h)  # all of `h`: joining two lists would hold both

    def pre(self, z):
        masks = self.in_masks
        if masks is None:
            return self._image(z, self.in_adj)
        if z >= self.dense_floor and z.bit_count() > self.dense:
            return self._image_by_complement(z, masks, self.out_masks, 0)
        acc = 0
        while z:
            v = z.bit_length() - 1
            acc |= masks[v]
            z ^= 1 << v
        return acc

    def post(self, z):
        masks = self.out_masks
        if masks is None:
            return self._image(z, self.out_adj)
        if z >= self.dense_floor and z.bit_count() > self.dense:
            return self._image_by_complement(z, masks, self.in_masks, 1)
        acc = 0
        while z:
            v = z.bit_length() - 1
            acc |= masks[v]
            z ^= 1 << v
        return acc

    def _image_by_complement(self, z, masks, back, side):
        """The image by `masks` of `z`, read off its complement `y`.

        A vertex in the image of the full set but not in that of `y` has a
        neighbour, all in `z`; one in the image of `y` is in that of `z`
        when its `back` mask meets `z`.  The cost follows ``|y|`` plus the
        size of the image of `y`, not ``|z|``.  `side` indexes the cached
        image of the full set: 0 for `pre`, 1 for `post`.
        """
        y = self.full ^ z
        near = 0
        while y:
            v = y.bit_length() - 1
            near |= masks[v]
            y ^= 1 << v
        acc = self._full_images[side]
        if acc is None:  # the image of the full set, once per table
            acc = 0
            for m in masks:
                acc |= m
            self._full_images[side] = acc
        while near:
            u = near.bit_length() - 1
            bit = 1 << u
            if not back[u] & z:
                acc ^= bit
            near ^= bit
        return acc

    def _image(self, z, adj):
        """The neighbours in `adj` of the vertices of `z`, as a mask."""
        acc = 0
        for _ in range(_BULK_CUTOVER + 1):
            if not z:
                return acc
            v = z.bit_length() - 1
            z ^= 1 << v
            for u in adj[v]:
                acc |= 1 << u
        buf = bytearray(b"0") * self.n  # buf[u] is bit u
        for v in _ids(z):
            for u in adj[v]:
                buf[u] = 49  # ord("1")
        return acc | int(buf[::-1], 2)

    def cpre_random(self, z, s):
        vr = self.vr_mask
        escape = self.pre(s ^ (s & z))
        return (s ^ (s & (vr | escape))) | (s & vr & self.pre(z & s))

    def union(self, a, b):
        return a | b

    def intersect(self, a, b):
        return a & b

    def difference(self, a, b):
        return a ^ (a & b)

    def complement(self, a):
        return self.full ^ a

    def card(self, h):
        return h.bit_count()

    def min_vertex(self, h):
        v = h.bit_length() - 1
        return v if h == 1 << v else (h & -h).bit_length() - 1

    def is_empty(self, h):
        return h == 0

    def is_single(self, h):
        return h != 0 and h == 1 << (h.bit_length() - 1)

    def has_loop(self, v):
        """Whether `v` has a self-loop, read off its own adjacency, so no
        loop set is built at construction."""
        if self.out_adj is None:
            return self.out_masks[v] >> v & 1 == 1
        return v in self.out_adj[v]

    def layers(self, side, start, within):
        """Layers by `pre` (side 0) or `post` (side 1) from `start` inside
        `within`, and their union."""
        image = self.post if side else self.pre
        layer = image(start) & within
        layer ^= layer & start
        if not layer:  # a search that stops here makes no frontier
            return [start] if start else [], start
        out, left = [start, layer], within ^ (within & (start | layer))
        while layer := image(layer) & left:
            out.append(layer)
            left ^= layer
        return out, start | (within ^ left)

    def spine(self, layers):
        """Ids of a path back from the last layer's least vertex, each hop
        to the least predecessor in the layer before."""
        masks, adj = self.in_masks, self.in_adj
        v = self.min_vertex(layers[-1])
        ids = [v]
        for prev in reversed(layers[:-1]):
            if masks is None:
                v = min(u for u in adj[v] if prev >> u & 1)
            else:
                h = masks[v] & prev
                v = (h & -h).bit_length() - 1
            ids.append(v)
        return ids


class SymbolicManager:
    """Owner of the symbolic transition structure of one model.

    Holds the vertex universe, the edge relation, the player partition
    (player-1 versus random vertices) and the step counters.  Construct
    with ``SymbolicManager(model, backend)`` or :meth:`from_model`, from a
    :class:`~fairchk.model.Model`.  The model decides what is valid: one
    that ``parse_model`` or ``Model.validate`` returned is taken as is,
    and any other is validated first, so an invalid model raises
    ``ModelError`` here.

    A manager and its handles belong to one thread of control.  Run
    independent inputs on independent managers for parallelism.
    """

    def __init__(self, model, backend="bitset"):
        if not model._checked:
            model.validate()
        n, edges, random_vertices = model.n, model.edges, model.random_vertices
        if backend == "bitset":
            self._b = _BitsetBackend(n, edges, random_vertices)
        elif backend == "obdd":
            self._b = ObddBackend(n, edges, random_vertices)
        else:
            raise UsageError(f"unknown backend {backend!r}")
        self.n = n
        self.backend = backend
        self.counters = StepCounters()
        self.universe = VertexSet(self, self._b.universe())
        self.v_random = VertexSet(self, self._b.from_ids(sorted(random_vertices)))

    @classmethod
    def from_model(cls, model, backend="bitset"):
        """The manager of `model`: ``cls(model, backend)``."""
        return cls(model, backend)

    # -- bookkeeping ---------------------------------------------------

    def _h(self, z: VertexSet):
        if not isinstance(z, VertexSet) or z.mgr is not self:
            raise UsageError("vertex set belongs to a different manager")
        return z.h

    @contextmanager
    def counters_paused(self):
        """Leave uncounted what a block runs, e.g. debug assertions.

        The counters keep counting inside the block; on exit they are put
        back to the copy saved on entry.
        """
        saved = self.counters.copy()
        try:
            yield
        finally:
            self.counters = saved

    def _charge(self, pre=0, post=0, set_ops=0, cardinality=0, pick=0):
        """Count operations a kernel ran on raw backend handles."""
        c = self.counters
        c.pre_ops += pre
        c.post_ops += post
        c.set_ops += set_ops
        c.cardinality_ops += cardinality
        c.pick_ops += pick

    def snapshot_counters(self) -> StepCounters:
        return self.counters.copy()

    # -- uncounted constructors and queries ------------------------------

    def empty(self) -> VertexSet:
        return VertexSet(self, self._b.empty())

    def from_ids(self, ids) -> VertexSet:
        ids = list(ids)  # read once: `ids` may be a one-shot iterator
        for v in ids:
            if not 0 <= v < self.n:
                raise UsageError(f"vertex {v} out of range")
        return VertexSet(self, self._b.from_ids(ids))

    def singleton(self, v: int) -> VertexSet:
        if not 0 <= v < self.n:
            raise UsageError(f"vertex {v} out of range")
        return VertexSet(self, self._b.singleton(v))

    def to_ids(self, z: VertexSet) -> list:
        return self._b.to_ids(self._h(z))

    def is_empty(self, z: VertexSet) -> bool:
        return self._b.is_empty(self._h(z))

    def contains(self, z: VertexSet, v: int) -> bool:
        h = self._h(z)
        return not self._b.is_empty(self._b.intersect(h, self.singleton(v).h))

    def min_vertex(self, z: VertexSet) -> int:
        """Smallest id in `z`, for deterministic bookkeeping (uncounted)."""
        h = self._h(z)
        if self._b.is_empty(h):
            raise UsageError("min_vertex of empty set")
        return self._b.min_vertex(h)

    # -- counted symbolic operations --------------------------------------

    def pre(self, z: VertexSet) -> VertexSet:
        """One-step predecessors: vertices with a successor in `z`."""
        h = self._h(z)
        self.counters.pre_ops += 1
        return VertexSet(self, self._b.pre(h))

    def post(self, z: VertexSet) -> VertexSet:
        """One-step successors: vertices with a predecessor in `z`."""
        h = self._h(z)
        self.counters.post_ops += 1
        return VertexSet(self, self._b.post(h))

    def cpre_random(self, z: VertexSet, within: VertexSet | None = None) -> VertexSet:
        """Controllable predecessor for the random player.

        Player-1 vertices all of whose successors lie in `z`, plus random
        vertices with at least one successor in `z`.  With `within`, edges
        and membership are restricted to the induced subgraph; a player-1
        vertex with no successor inside `within` qualifies vacuously.
        """
        h = self._h(z)
        s = self._b.universe() if within is None else self._h(within)
        self.counters.cpre_ops += 1
        return VertexSet(self, self._b.cpre_random(h, s))

    def union(self, a: VertexSet, b: VertexSet) -> VertexSet:
        ha, hb = self._h(a), self._h(b)
        self.counters.set_ops += 1
        return VertexSet(self, self._b.union(ha, hb))

    def union_all(self, sets) -> VertexSet:
        """Union of `sets`, one counted set operation per member.

        Every member's owner is checked before anything is counted; then
        the members are folded into the empty set with the backend `union`.
        """
        handles = [self._h(z) for z in sets]  # all checked before counting
        self.counters.set_ops += len(handles)
        acc = self._b.empty()
        for h in handles:
            acc = self._b.union(acc, h)
        return VertexSet(self, acc)

    def intersect(self, a: VertexSet, b: VertexSet) -> VertexSet:
        ha, hb = self._h(a), self._h(b)
        self.counters.set_ops += 1
        return VertexSet(self, self._b.intersect(ha, hb))

    def difference(self, a: VertexSet, b: VertexSet) -> VertexSet:
        ha, hb = self._h(a), self._h(b)
        self.counters.set_ops += 1
        return VertexSet(self, self._b.difference(ha, hb))

    def complement(self, a: VertexSet) -> VertexSet:
        ha = self._h(a)
        self.counters.set_ops += 1
        return VertexSet(self, self._b.complement(ha))

    def cardinality(self, z: VertexSet) -> int:
        h = self._h(z)
        self.counters.cardinality_ops += 1
        return self._b.card(h)

    def is_trivial(self, z: VertexSet) -> bool:
        """Whether `z` is one vertex without a self-loop: a trivial SCC.

        One cardinality operation; a single vertex costs one set operation
        more, its intersection with the self-loop set.
        """
        h = self._h(z)
        self.counters.cardinality_ops += 1
        if not self._b.is_single(h):
            return False
        self.counters.set_ops += 1
        return not self._b.has_loop(self._b.min_vertex(h))

    def looped_singletons(self, ids) -> list:
        """The one-vertex sets of the vertices in the list `ids` that have a
        self-loop.

        Each id costs what :meth:`is_trivial` costs on its one-vertex set:
        one cardinality and one set operation.  Every id is checked before
        anything is counted.
        """
        for v in ids:
            if not 0 <= v < self.n:
                raise UsageError(f"vertex {v} out of range")
        self._charge(set_ops=len(ids), cardinality=len(ids))
        b = self._b
        return [VertexSet(self, b.singleton(v)) for v in ids if b.has_loop(v)]

    def pick(self, z: VertexSet) -> int:
        """An arbitrary vertex of `z`; deterministically the minimum id."""
        h = self._h(z)
        if self._b.is_empty(h):
            raise UsageError("pick from empty set")
        self.counters.pick_ops += 1
        return self._b.min_vertex(h)
