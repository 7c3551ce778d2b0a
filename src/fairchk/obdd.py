"""Reduced ordered BDD backend for the symbolic vertex-set layer.

Vertex ids are encoded in ``b = ceil(log2 n)`` bits, most significant bit
first.  Current-state and next-state variables are interleaved: the bit
``i`` of the current vertex sits at BDD level ``2*i`` and the same bit of
the successor vertex at level ``2*i + 1``.  Vertex sets are BDDs over the
current-state levels only; the edge relation is a BDD over both rails,
built in one pass from the sorted edges, each read as one word of the
interleaved bits.

The engine is a plain unique-table/apply-cache construction.  Nodes are
hash-consed.  Each operation is its own memoized recursion with its own
terminal cases: conjunction, disjunction, difference, level shifting and
the relational product.  The commutative operations order their operands
before the cache lookup.  All memo entries share the one ``_cache`` dict,
keyed by a single int that packs the operation code and its operands.

The relational product ``and_exists(f, g, parity)`` computes
``exists rail . f and g`` in one pass, quantifying each level of the rail
as the recursion leaves it, after the technique of CUDD's
``Cudd_bddAndAbstract``.  ``pre`` and ``post`` use it, so the conjunction
of the edge relation with a set is never built.

One-vertex sets take a path of their own.  Their BDDs are the minterms,
built at construction and indexed by node, so ``is_single`` is one dict
lookup.  ``pre`` and ``post`` of a minterm are taken by the relational
product once and then read from a per-vertex table, which every caller
shares.  Whether a vertex is in a set is one walk down the path of its
bits (``has_loop`` is such a walk in the loop set).  The SCC kernels'
loops ``layers`` (one breadth-first search, by ``pre`` or ``post``) and
``spine`` use both: a one-vertex image is the next layer when the walks
find it inside the search's bound and not yet seen, and a vertex with a
single predecessor hops back to it.  Otherwise they run the ``dd``
operations of the backend calls they replace, in the same order.  Every
result of the one-vertex path is a minterm or the empty set, so the node
table comes out the same as if every step ran through ``dd``; only the
apply cache holds fewer entries.

No dynamic reordering and no garbage collection: managers live for one
algorithm run on desk-scale inputs, so the node table simply grows.  The
SCC kernel builds each spine once from its vertex ids, which makes only
the spine's own nodes and no cache entry, rather than keeping every
partial union of a chain of ``or_``.  The basic MEC solve of the
1,152-vertex benchmark ladder ends with 28,187 nodes and 250,991 cache
entries.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["ObddBackend"]

_FALSE = 0
_TRUE = 1

# Cache keys are ``(a << _ID_BITS | b) << _OP_BITS | op``: unique as long
# as node ids stay below 2**_ID_BITS, which no in-memory table reaches.
# Conjunction has op code 0, so its keys leave the op out.
_ID_BITS = 32
_OP_BITS = 3
_OP_OR = 1
_OP_DIFF = 2
_OP_SHIFT_UP = 3
_OP_SHIFT_DOWN = 4
_OP_AND_EXISTS = 5  # + parity


class _Bdd:
    """Minimal ROBDD engine over a fixed number of levels."""

    def __init__(self, num_levels):
        self.num_levels = num_levels
        # node id -> (level, low, high); terminals get a level past the end
        self.level = [num_levels, num_levels]
        self.low = [0, 1]
        self.high = [0, 1]
        self._unique = {}
        self._cache = {}

    def mk(self, level, lo, hi):
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self.level)
            self.level.append(level)
            self.low.append(lo)
            self.high.append(hi)
            self._unique[key] = node
        return node

    # -- binary operations -------------------------------------------------

    def and_(self, a, b):
        if a > b:
            a, b = b, a
        if a <= _TRUE:
            return b if a else _FALSE
        if a == b:
            return a
        key = (a << _ID_BITS | b) << _OP_BITS
        r = self._cache.get(key)
        if r is not None:
            return r
        level = self.level
        la, lb = level[a], level[b]
        if la == lb:
            r = self.mk(la, self.and_(self.low[a], self.low[b]),
                        self.and_(self.high[a], self.high[b]))
        elif la < lb:
            r = self.mk(la, self.and_(self.low[a], b), self.and_(self.high[a], b))
        else:
            r = self.mk(lb, self.and_(a, self.low[b]), self.and_(a, self.high[b]))
        self._cache[key] = r
        return r

    def or_(self, a, b):
        if a > b:
            a, b = b, a
        if a <= _TRUE:
            return _TRUE if a else b
        if a == b:
            return a
        key = (a << _ID_BITS | b) << _OP_BITS | _OP_OR
        r = self._cache.get(key)
        if r is not None:
            return r
        level = self.level
        la, lb = level[a], level[b]
        if la == lb:
            r = self.mk(la, self.or_(self.low[a], self.low[b]),
                        self.or_(self.high[a], self.high[b]))
        elif la < lb:
            r = self.mk(la, self.or_(self.low[a], b), self.or_(self.high[a], b))
        else:
            r = self.mk(lb, self.or_(a, self.low[b]), self.or_(a, self.high[b]))
        self._cache[key] = r
        return r

    def diff(self, a, b):
        """``a and not b``."""
        if a == _FALSE or b == _TRUE or a == b:
            return _FALSE
        if b == _FALSE:
            return a
        key = (a << _ID_BITS | b) << _OP_BITS | _OP_DIFF
        r = self._cache.get(key)
        if r is not None:
            return r
        level = self.level
        la, lb = level[a], level[b]
        if la == lb:
            r = self.mk(la, self.diff(self.low[a], self.low[b]),
                        self.diff(self.high[a], self.high[b]))
        elif la < lb:
            r = self.mk(la, self.diff(self.low[a], b), self.diff(self.high[a], b))
        else:
            r = self.mk(lb, self.diff(a, self.low[b]), self.diff(a, self.high[b]))
        self._cache[key] = r
        return r

    # -- relational product and renaming -----------------------------------

    def and_exists(self, f, g, parity):
        """``exists levels (level % 2 == parity) . f and g``, fused.

        Each quantified level is eliminated as soon as the recursion has
        both cofactors' results, so the conjunction itself is never built;
        a true low cofactor result skips the high branch.
        """
        if f > g:
            f, g = g, f
        if f == _FALSE:
            return _FALSE
        if g == _TRUE:
            return _TRUE
        key = (f << _ID_BITS | g) << _OP_BITS | _OP_AND_EXISTS + parity
        r = self._cache.get(key)
        if r is not None:
            return r
        level = self.level
        lf, lg = level[f], level[g]
        if lf == lg:
            top = lf
            f0, f1, g0, g1 = self.low[f], self.high[f], self.low[g], self.high[g]
        elif lf < lg:
            top = lf
            f0, f1, g0, g1 = self.low[f], self.high[f], g, g
        else:
            top = lg
            f0, f1, g0, g1 = f, f, self.low[g], self.high[g]
        r0 = self.and_exists(f0, g0, parity)
        if top & 1 == parity:
            if r0 != _TRUE:
                r = self.or_(r0, self.and_exists(f1, g1, parity))
            else:
                r = _TRUE
        else:
            r = self.mk(top, r0, self.and_exists(f1, g1, parity))
        self._cache[key] = r
        return r

    def shift(self, a, delta):
        """Rebuild `a` with every level moved by `delta` (+1 or -1).

        Valid because the interleaved order keeps relative level order
        intact when a rail-pure BDD hops to the other rail.
        """
        if a <= _TRUE:
            return a
        key = a << _OP_BITS | (_OP_SHIFT_UP if delta > 0 else _OP_SHIFT_DOWN)
        r = self._cache.get(key)
        if r is not None:
            return r
        r = self.mk(
            self.level[a] + delta,
            self.shift(self.low[a], delta),
            self.shift(self.high[a], delta),
        )
        self._cache[key] = r
        return r


class ObddBackend:
    """Decision-diagram implementation of the vertex-set operations."""

    name = "obdd"

    def __init__(self, n, edges, random_vertices):
        self.n = n
        self.bits = max(1, (n - 1).bit_length())
        self.dd = _Bdd(2 * self.bits)
        self._domain = self._set_from_sorted(range(n))
        self._minterms = [self._minterm(u) for u in range(n)]
        self._vertex_of = dict(zip(self._minterms, range(n)))
        # Per level, the shift that brings its bit of a vertex id down to
        # bit 0, for the membership walk.
        self._bit_shift = [self.bits - 1 - (lv >> 1) for lv in range(2 * self.bits)]
        # Images of one-vertex sets, by vertex id, filled on first use.
        self._pre_of = [None] * n
        self._post_of = [None] * n
        # Edge (u, v) as one word of 2b bits, those of u and v interleaved
        # MSB first: the bit order of the levels of the relation.
        spread = [0] * n
        for u in range(n):
            for i in range(self.bits):
                spread[u] |= (u >> i & 1) << 2 * i
        words = sorted(spread[u] << 1 | spread[v] for u, v in edges)
        self._edge_rel = self._from_words(words, 0, len(words), 2 * self.bits, 1)
        self._loops = self._set_from_sorted(sorted(u for u, v in edges if u == v))
        self.vr = self._set_from_sorted(sorted(set(random_vertices)))
        self.v1 = self.dd.diff(self._domain, self.vr)

    # -- construction helpers ----------------------------------------------

    def _set_from_sorted(self, ids):
        """BDD (over current-state levels) of a sorted id sequence."""
        return self._from_words(ids, 0, len(ids), self.bits, 2)

    def _from_words(self, words, lo, hi, width, stride, i=0, prefix=0):
        """BDD of the sorted `width`-bit words ``words[lo:hi]``.

        Word bit i, counted from the most significant, is BDD level
        ``stride * i``.  The words in ``words[lo:hi]`` all share their
        first i bits with `prefix`.
        """
        if lo == hi:
            return _FALSE
        if i == width:
            return _TRUE
        weight = 1 << (width - 1 - i)
        split = bisect_left(words, prefix | weight, lo, hi)
        return self.dd.mk(
            stride * i,
            self._from_words(words, lo, split, width, stride, i + 1, prefix),
            self._from_words(words, split, hi, width, stride, i + 1, prefix | weight),
        )

    def _minterm(self, u):
        node = _TRUE
        for bit in range(self.bits - 1, -1, -1):
            if u & (1 << (self.bits - 1 - bit)):
                node = self.dd.mk(2 * bit, _FALSE, node)
            else:
                node = self.dd.mk(2 * bit, node, _FALSE)
        return node

    # -- set-operation interface --------------------------------------------

    def empty(self):
        return _FALSE

    def universe(self):
        return self._domain

    def from_ids(self, ids):
        return self._set_from_sorted(sorted(set(ids)))

    def singleton(self, v):
        return self._minterms[v]

    def to_ids(self, h):
        out = []
        self._collect(h, 0, 0, out)
        return out

    def _collect(self, node, bit, prefix, out):
        if node == _FALSE:
            return
        if bit == self.bits:
            out.append(prefix)
            return
        weight = 1 << (self.bits - 1 - bit)
        if node != _TRUE and self.dd.level[node] == 2 * bit:
            self._collect(self.dd.low[node], bit + 1, prefix, out)
            self._collect(self.dd.high[node], bit + 1, prefix | weight, out)
        else:
            self._collect(node, bit + 1, prefix, out)
            self._collect(node, bit + 1, prefix | weight, out)

    def pre(self, z):
        v = self._vertex_of.get(z)
        if v is not None:
            r = self._pre_of[v]
            if r is None:
                r = self._pre_of[v] = self._pre(z)
            return r
        return self._pre(z)

    def post(self, z):
        v = self._vertex_of.get(z)
        if v is not None:
            r = self._post_of[v]
            if r is None:
                r = self._post_of[v] = self._post(z)
            return r
        return self._post(z)

    def _pre(self, z):
        dd = self.dd
        return dd.and_exists(self._edge_rel, dd.shift(z, 1), 1)

    def _post(self, z):
        dd = self.dd
        return dd.shift(dd.and_exists(self._edge_rel, z, 0), -1)

    def cpre_random(self, z, s):
        dd = self.dd
        escape = self.pre(dd.diff(s, z))
        forced = dd.diff(dd.and_(s, self.v1), escape)
        lured = dd.and_(dd.and_(s, self.vr), self.pre(dd.and_(z, s)))
        return dd.or_(forced, lured)

    def union(self, a, b):
        return self.dd.or_(a, b)

    def intersect(self, a, b):
        return self.dd.and_(a, b)

    def difference(self, a, b):
        return self.dd.diff(a, b)

    def complement(self, a):
        return self.dd.diff(self._domain, a)

    def card(self, h):
        return self._count(h, 0)

    def _count(self, node, bit):
        if bit == self.bits:
            return 1 if node == _TRUE else 0
        if node == _FALSE:
            return 0
        if node != _TRUE and self.dd.level[node] == 2 * bit:
            return self._count(self.dd.low[node], bit + 1) + self._count(
                self.dd.high[node], bit + 1
            )
        return 2 * self._count(node, bit + 1)

    def min_vertex(self, h):
        # MSB-first ordering makes the greedy 0-preferring walk minimal;
        # bits of skipped levels stay 0.
        dd = self.dd
        low, high = dd.low, dd.high
        node = h
        value = 0
        while node > _TRUE:
            if low[node] != _FALSE:
                node = low[node]
            else:
                value |= 1 << (self.bits - 1 - (dd.level[node] >> 1))
                node = high[node]
        return value

    def is_empty(self, h):
        return h == _FALSE

    def is_single(self, h):
        return h in self._vertex_of

    def has_loop(self, v):
        """Whether `v` is in the loop set: one walk down the path of its
        bits, a skipped level taking either bit."""
        dd = self.dd
        level, low, high, shift = dd.level, dd.low, dd.high, self._bit_shift
        h = self._loops
        while h > _TRUE:
            h = high[h] if v >> shift[level[h]] & 1 else low[h]
        return h == _TRUE

    # -- fused loops of the skeleton SCC kernel -----------------------------

    def layers(self, image, start, within):
        """Layers by `image` from `start` inside `within`, and their union.

        A one-vertex image is the next layer if its vertex is in `within`
        and not yet seen, which two membership walks decide.
        """
        dd = self.dd
        level, low, high, shift = dd.level, dd.low, dd.high, self._bit_shift
        vertex_of = self._vertex_of
        out, seen, layer = [], _FALSE, start
        while layer != _FALSE:
            out.append(layer)
            seen = dd.or_(seen, layer)
            img = image(layer)
            v = vertex_of.get(img)
            if v is None:
                layer = dd.diff(dd.and_(img, within), seen)
                continue
            # The walk of `has_loop`, in `within` and then in `seen`, kept
            # inline: a method call per walk made the basic ladder solve
            # about 6% slower.
            layer = _FALSE
            h = within
            while h > _TRUE:
                h = high[h] if v >> shift[level[h]] & 1 else low[h]
            if h == _TRUE:
                h = seen
                while h > _TRUE:
                    h = high[h] if v >> shift[level[h]] & 1 else low[h]
                if h == _FALSE:
                    layer = img
        return out, seen

    def spine(self, layers):
        """Ids of a path back from the last layer's least vertex, each hop
        to the least predecessor in the layer before.  A vertex with one
        predecessor hops to it: it is the one in the layer before."""
        dd, pre = self.dd, self.pre
        minterms, vertex_of = self._minterms, self._vertex_of
        v = self.min_vertex(layers[-1])
        ids = [v]
        for prev in reversed(layers[:-1]):
            preds = pre(minterms[v])
            u = vertex_of.get(preds)
            v = u if u is not None else self.min_vertex(dd.and_(preds, prev))
            ids.append(v)
        return ids
