"""Backend-abstract symbolic vertex-set layer with exact operation accounting.

Algorithm modules access the transition structure through
:class:`SymbolicManager`, which supports the classic one-step operators
(predecessor, successor, controllable predecessor for random players),
set algebra, cardinality and vertex picking.  Every call increments a
counter in :class:`StepCounters`; the counters are the cost model in which
all step bounds of the algorithms are stated and measured.

The SCC kernels of :mod:`fairchk.scc` run their inner loops on the raw
backend handles instead, to skip the per-operation handle allocation and
ownership check.  They check the ownership of every incoming handle at
entry, tally their operations locally, and charge, through
:meth:`SymbolicManager._charge`, exactly what the same sequence of
manager calls would have counted.

Two interchangeable backends implement the same semantics:

- ``bitset``: vertex sets are Python integers used as bit masks.  The
  edge relation is a pair of adjacency mask tables on models of at most
  ``_MASK_MAX_N`` (4096) vertices, where the tables take at most 4 MB, and
  a pair of per-vertex neighbour-id tuples on larger models, in memory
  proportional to the edges.  On tuples, the image of a set of more than
  ``_BULK_CUTOVER`` (24) vertices is built in one byte buffer.  Fast and
  transparent; the reference backend for tests.
- ``obdd``: vertex sets are reduced ordered binary decision diagrams over
  the binary encoding of vertex ids (see :mod:`fairchk.obdd`).

Both backends are exact; a property of the package is that identical call
sequences produce identical sets and identical counters on either backend.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

from .errors import UsageError
from .model import first_sink

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
        return StepCounters(
            self.pre_ops - other.pre_ops,
            self.post_ops - other.post_ops,
            self.cpre_ops - other.cpre_ops,
            self.set_ops - other.set_ops,
            self.cardinality_ops - other.cardinality_ops,
            self.pick_ops - other.pick_ops,
        )

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
# Sets with more vertices than this are read by one scan of their binary
# string instead of bit by bit; on neighbour tuples, their images are then
# marked in a byte buffer and read back as one integer.
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


def _neighbour_tuples(n, pairs):
    """Per vertex u of ``range(n)``, the tuple of all v with (u, v) in `pairs`."""
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
    for u, vs in enumerate(adj):
        adj[u] = tuple(vs)  # frees each list as its tuple is made
    return tuple(adj)


class _BitsetBackend:
    """Vertex sets as integer bit masks; adjacency as masks or id tuples.

    The representation of the edge relation is picked from `n` at
    construction: mask tables while ``n <= _MASK_MAX_N``, per-vertex tuples
    of neighbour ids above.  On masks, an image ORs one neighbour mask per
    vertex of its argument.  On tuples, an argument of at most
    ``_BULK_CUTOVER`` vertices shifts in one bit per neighbour; a larger one
    marks the neighbours in a ``bytearray`` of ``b"0"``/``b"1"`` and turns
    it into the result with one ``int(..., 2)``.
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
            self.out_adj = self.in_adj = None
        else:
            self.out_masks = self.in_masks = None
            self.out_adj = _neighbour_tuples(n, edges)
            self.in_adj = _neighbour_tuples(n, ((v, u) for u, v in edges))
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
        if h.bit_count() > _BULK_CUTOVER:
            return _ids(h)
        out = []
        while h:
            b = h & -h
            out.append(b.bit_length() - 1)
            h ^= b
        return out

    def pre(self, z):
        masks = self.in_masks
        if masks is None:
            return self._image(z, self.in_adj)
        acc = 0
        while z:
            b = z & -z
            acc |= masks[b.bit_length() - 1]
            z ^= b
        return acc

    def post(self, z):
        masks = self.out_masks
        if masks is None:
            return self._image(z, self.out_adj)
        acc = 0
        while z:
            b = z & -z
            acc |= masks[b.bit_length() - 1]
            z ^= b
        return acc

    def _image(self, z, adj):
        """The neighbours in `adj` of the vertices of `z`, as a mask."""
        if z.bit_count() > _BULK_CUTOVER:
            buf = bytearray(b"0") * self.n  # buf[u] is bit u
            for v in _ids(z):
                for u in adj[v]:
                    buf[u] = 49  # ord("1")
            return int(buf[::-1], 2)
        acc = 0
        while z:
            b = z & -z
            for u in adj[b.bit_length() - 1]:
                acc |= 1 << u
            z ^= b
        return acc

    def cpre_random(self, z, s):
        # Direct per-vertex evaluation; deliberately not routed through
        # pre() so tests can cross-check the two routes.
        out = self.out_masks
        if out is None:
            return self._cpre_tuples(z, s)
        acc = 0
        vr = self.vr_mask
        not_z = ~z
        t = s
        while t:
            b = t & -t
            t ^= b
            o = out[b.bit_length() - 1] & s
            if b & vr:
                if o & z:
                    acc |= b
            elif not (o & not_z):
                # All successors inside s lie in z (vacuously true when
                # the vertex has no successor inside s).
                acc |= b
        return acc

    def _cpre_tuples(self, z, s):
        """`cpre_random` on neighbour tuples, by the same per-vertex rule."""
        n = self.n
        in_z, in_s, is_random = (
            format(h, f"0{n}b")[::-1] for h in (z, s, self.vr_mask)
        )
        buf = bytearray(b"0") * n
        for v in _ids(s):
            # Per successor inside s, whether it lies in z: a random vertex
            # needs one, a player-1 vertex all (vacuously true for none).
            inside = [in_z[u] == "1" for u in self.out_adj[v] if in_s[u] == "1"]
            if (any if is_random[v] == "1" else all)(inside):
                buf[v] = 49
        return int(buf[::-1], 2)

    def union(self, a, b):
        return a | b

    def intersect(self, a, b):
        return a & b

    def difference(self, a, b):
        return a & ~b

    def complement(self, a):
        return self.full & ~a

    def card(self, h):
        return h.bit_count()

    def min_vertex(self, h):
        return (h & -h).bit_length() - 1

    def is_empty(self, h):
        return h == 0


class SymbolicManager:
    """Owner of the symbolic transition structure of one model.

    Holds the vertex universe, the edge relation, the player partition
    (player-1 versus random vertices) and the step counters.  Construct
    with :meth:`from_model`; every vertex of the model must have at least
    one outgoing edge so that plays never get stuck.

    A manager and its handles belong to one thread of control.  Run
    independent inputs on independent managers for parallelism.
    """

    def __init__(self, n, edges, random_vertices, backend="bitset"):
        if n <= 0:
            raise UsageError("vertex count must be positive")
        edges, random_vertices = tuple(edges), tuple(random_vertices)  # read once
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UsageError(f"edge ({u}, {v}) out of range for n={n}")
        sink = first_sink(n, edges)
        if sink is not None:
            raise UsageError(f"vertex {sink} has no outgoing edge")
        for v in random_vertices:
            if not 0 <= v < n:
                raise UsageError(f"random vertex {v} out of range")
        if backend == "bitset":
            self._b = _BitsetBackend(n, edges, random_vertices)
        elif backend == "obdd":
            from .obdd import ObddBackend

            self._b = ObddBackend(n, edges, random_vertices)
        else:
            raise UsageError(f"unknown backend {backend!r}")
        self.n = n
        self.backend = backend
        self.counters = StepCounters()
        self._paused = 0
        self.universe = VertexSet(self, self._b.universe())
        self.v_random = VertexSet(self, self._b.from_ids(sorted(random_vertices)))
        self.v_player1 = VertexSet(
            self, self._b.difference(self.universe.h, self.v_random.h)
        )

    @classmethod
    def from_model(cls, model, backend="bitset"):
        return cls(model.n, model.edges, model.random_vertices, backend=backend)

    # -- bookkeeping ---------------------------------------------------

    def _h(self, z: VertexSet):
        if not isinstance(z, VertexSet) or z.mgr is not self:
            raise UsageError("vertex set belongs to a different manager")
        return z.h

    @contextmanager
    def counters_paused(self):
        """Suspend counting, e.g. for debug assertions and bookkeeping."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _charge(self, pre=0, post=0, set_ops=0, cardinality=0, pick=0):
        """Count operations a kernel ran on raw backend handles.

        Charges nothing while counting is paused, like the manager's own
        counted methods.
        """
        if not self._paused:
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
        if z.__class__ is not VertexSet or z.mgr is not self:
            self._h(z)
        return self._b.is_empty(z.h)

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
    #
    # The hot methods test ownership inline and call `_h` only to raise.

    def pre(self, z: VertexSet) -> VertexSet:
        """One-step predecessors: vertices with a successor in `z`."""
        if z.__class__ is not VertexSet or z.mgr is not self:
            self._h(z)
        if not self._paused:
            self.counters.pre_ops += 1
        return VertexSet(self, self._b.pre(z.h))

    def post(self, z: VertexSet) -> VertexSet:
        """One-step successors: vertices with a predecessor in `z`."""
        if z.__class__ is not VertexSet or z.mgr is not self:
            self._h(z)
        if not self._paused:
            self.counters.post_ops += 1
        return VertexSet(self, self._b.post(z.h))

    def cpre_random(self, z: VertexSet, within: VertexSet | None = None) -> VertexSet:
        """Controllable predecessor for the random player.

        Player-1 vertices all of whose successors lie in `z`, plus random
        vertices with at least one successor in `z`.  With `within`, edges
        and membership are restricted to the induced subgraph; a player-1
        vertex with no successor inside `within` qualifies vacuously.
        """
        h = self._h(z)
        s = self._b.universe() if within is None else self._h(within)
        if not self._paused:
            self.counters.cpre_ops += 1
        return VertexSet(self, self._b.cpre_random(h, s))

    def union(self, a: VertexSet, b: VertexSet) -> VertexSet:
        if a.__class__ is not VertexSet or a.mgr is not self:
            self._h(a)
        if b.__class__ is not VertexSet or b.mgr is not self:
            self._h(b)
        if not self._paused:
            self.counters.set_ops += 1
        return VertexSet(self, self._b.union(a.h, b.h))

    def intersect(self, a: VertexSet, b: VertexSet) -> VertexSet:
        if a.__class__ is not VertexSet or a.mgr is not self:
            self._h(a)
        if b.__class__ is not VertexSet or b.mgr is not self:
            self._h(b)
        if not self._paused:
            self.counters.set_ops += 1
        return VertexSet(self, self._b.intersect(a.h, b.h))

    def difference(self, a: VertexSet, b: VertexSet) -> VertexSet:
        if a.__class__ is not VertexSet or a.mgr is not self:
            self._h(a)
        if b.__class__ is not VertexSet or b.mgr is not self:
            self._h(b)
        if not self._paused:
            self.counters.set_ops += 1
        return VertexSet(self, self._b.difference(a.h, b.h))

    def complement(self, a: VertexSet) -> VertexSet:
        ha = self._h(a)
        if not self._paused:
            self.counters.set_ops += 1
        return VertexSet(self, self._b.complement(ha))

    def cardinality(self, z: VertexSet) -> int:
        h = self._h(z)
        if not self._paused:
            self.counters.cardinality_ops += 1
        return self._b.card(h)

    def pick(self, z: VertexSet) -> int:
        """An arbitrary vertex of `z`; deterministically the minimum id."""
        if z.__class__ is not VertexSet or z.mgr is not self:
            self._h(z)
        h = z.h
        if self._b.is_empty(h):
            raise UsageError("pick from empty set")
        if not self._paused:
            self.counters.pick_ops += 1
        return self._b.min_vertex(h)
