"""Reduced ordered BDD backend for the symbolic vertex-set layer.

Vertex ids are encoded in ``b = ceil(log2 n)`` bits, most significant bit
first.  Current-state and next-state variables are interleaved: the bit
``i`` of the current vertex sits at BDD level ``2*i`` and the same bit of
the successor vertex at level ``2*i + 1``.  Vertex sets are BDDs over the
current-state levels only; the edge relation is a BDD over both rails.
Both are built top-down from sorted words: a set from its ids, the
relation from its edges, each read as one word of the interleaved bits.

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

One-vertex sets are the minterms, built at construction and kept in a
list by vertex id.  Whether a vertex is in a set is one walk down the
path of its bits.  ``card`` counts the ids that ``to_ids`` lists.

The SCC kernels' loops, ``layers(side, start, within)`` (one
breadth-first search, by ``pre`` for side 0 or ``post`` for side 1) and
``spine``, read per-vertex neighbour-id tuples, built from the edges on
the first call.  A search runs on ids: it keeps the ids it has met in a
Python set, and a layer is those neighbours of the layer before that a
membership walk finds in ``within`` and that were not met yet.  Each
layer stays the ascending list of its ids; only the union becomes a BDD,
built once from its ids at the end, so no partial union, no cut of an
image and no layer BDD is made.  ``spine`` hops to the layer before when
that is one vertex, and otherwise to the least in-neighbour in a Python
set of it.  Every layer holds the vertices that ``dd`` operations alone
would give, but fewer nodes and memo entries are built, in another
order.

No dynamic reordering and no garbage collection: managers live for one
algorithm run on desk-scale inputs, so the node table simply grows.  The
SCC kernel builds each spine once from its vertex ids, which makes only
the spine's own nodes and no cache entry, rather than keeping every
partial union of a chain of ``or_``.  The basic MEC solve of the
1,152-vertex benchmark ladder ends with 13,394 nodes and 53,969 cache
entries.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain

from .model import neighbour_tuples

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
        # Per level, the shift that brings its bit of a vertex id down to
        # bit 0, for the membership walk.
        self._bit_shift = [self.bits - 1 - (lv >> 1) for lv in range(2 * self.bits)]
        # Neighbour ids for the searches, from `edges` on first use.
        self._edges = edges
        self._adj = None
        # Edge (u, v) as one word of 2b bits, those of u and v interleaved
        # MSB first: the bit order of the levels of the relation.
        spread = [0] * n
        for u in range(n):
            for i in range(self.bits):
                spread[u] |= (u >> i & 1) << 2 * i
        words = sorted(spread[u] << 1 | spread[v] for u, v in edges)
        self._edge_rel = self._from_words(words, 2 * self.bits, 1)
        self.vr = self._set_from_sorted(sorted(set(random_vertices)))
        self.v1 = self.dd.diff(self._domain, self.vr)

    # -- construction helpers ----------------------------------------------

    def _set_from_sorted(self, ids):
        """BDD (over current-state levels) of a sorted id sequence."""
        return self._from_words(ids, self.bits, 2)

    def _from_words(self, words, width, stride):
        """BDD of the sorted, distinct `width`-bit `words`.

        Word bit i, counted from the most significant, is BDD level
        ``stride * i``.  Built top-down: the words of an aligned block of
        ``2**bit`` values are split at the block's midpoint by bisection.
        A block that holds all its values is true, and one that holds a
        single word is that word's path, so a run of consecutive words
        costs at most two ``mk`` calls per bit and a scattered set no more
        ``mk`` calls than it has nodes.  On 1,152 vertex ids a run of
        1,000 takes about 5 µs; a bottom-up pass, one ``mk`` call per word
        prefix and level, takes 200 µs there, and about 0.7 times as long
        as this on 100 to 600 scattered ids, which no benchmark workload
        builds.
        """
        mk = self.dd.mk

        def build(lo, hi, base, bit):
            # words[lo:hi] lie in [base, base + 2**bit).
            if lo == hi:
                return _FALSE
            if hi - lo == 1 << bit:
                return _TRUE
            if hi - lo == 1:
                w, node = words[lo], _TRUE
                for i in range(bit):
                    lv = stride * (width - 1 - i)
                    node = mk(lv, _FALSE, node) if w >> i & 1 else mk(lv, node, _FALSE)
                return node
            bit -= 1
            half = base | 1 << bit
            mid = bisect_left(words, half, lo, hi)
            return mk(stride * (width - 1 - bit),
                      build(lo, mid, base, bit), build(mid, hi, half, bit))

        return build(0, len(words), 0, width)

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
        dd = self.dd
        return dd.and_exists(self._edge_rel, dd.shift(z, 1), 1)

    def post(self, z):
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
        return len(self.to_ids(h))

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

    # -- fused loops of the skeleton SCC kernel -----------------------------

    def _neighbours(self):
        """In- and out-neighbour id tuples per vertex, indexed by side (0
        for `pre`, 1 for `post`), built on first use."""
        if self._adj is None:
            edges = self._edges
            self._adj = (neighbour_tuples(self.n, ((v, u) for u, v in edges)),
                         neighbour_tuples(self.n, edges))
        return self._adj

    def layers(self, side, start, within):
        """Layers by `pre` (side 0) or `post` (side 1) from `start` inside
        `within`, each as its ascending id list, and their union.

        The search runs on ids: a layer is those neighbours of the last
        one that a membership walk finds in `within` and that were not met
        before.  No layer becomes a BDD; their union is built once, at the
        end.
        """
        if start == _FALSE:
            return [], _FALSE
        dd = self.dd
        level, low, high, shift = dd.level, dd.low, dd.high, self._bit_shift
        adj = self._neighbours()[side]
        ids = self.to_ids(start)
        out, met = [ids], set(ids)
        while True:
            new = []
            for u in ids:
                for w in adj[u]:
                    if w in met:
                        continue
                    met.add(w)
                    # Down the path of the bits of `w` in `within`; a
                    # skipped level takes either bit.
                    h = within
                    while h > _TRUE:
                        h = high[h] if w >> shift[level[h]] & 1 else low[h]
                    if h == _TRUE:
                        new.append(w)
            if not new:
                if len(out) == 1:
                    return out, start
                return out, self._set_from_sorted(sorted(chain.from_iterable(out)))
            new.sort()
            out.append(new)
            ids = new

    def spine(self, layers):
        """Ids of a path back from the last layer's least vertex, each hop
        to the least in-neighbour in the layer before.  A layer of one
        vertex is the hop itself."""
        preds = self._neighbours()[0]
        v = layers[-1][0]
        ids = [v]
        for prev in reversed(layers[:-1]):
            if len(prev) == 1:
                v = prev[0]
            else:
                prev = set(prev)
                v = min(w for w in preds[v] if w in prev)
            ids.append(v)
        return ids
