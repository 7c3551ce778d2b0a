"""Model and objective data types, their text formats, and bad vertices.

Model file format (whitespace-separated decimals, ``#`` starts a comment)::

    graph <n>          or    mdp <n>
    e <u> <v>                one line per edge
    random <v> ...           mdp only, may repeat

Pairs file format::

    pairs <k>
    L <i> <v> ...            1 <= i <= k, omitted lists are empty
    U <i> <v> ...

Vertices are dense 0-based integers.  Probabilities are deliberately
absent: the qualitative analyses implemented here depend only on the edge
support of the transition function, so a distribution (uniform, say) is
implied wherever one is formally needed.
"""

from __future__ import annotations

import dataclasses

from .errors import ModelError

__all__ = [
    "Model",
    "StreettPairs",
    "Candidate",
    "parse_model",
    "serialize_model",
    "parse_pairs",
    "serialize_pairs",
    "bad_vertices",
    "has_edge",
    "pair_sets",
    "first_sink",
]


def first_sink(n, edges):
    """The smallest vertex of ``range(n)`` that is no edge's source, or None.

    Needs memory in proportion to the edges, never to a larger `n`: with
    fewer edges than vertices there is a sink among the first
    ``len(edges) + 1`` ids, else one byte per vertex flags the sources.
    """
    if len(edges) < n:
        sources = {u for u, _ in edges}
        return next(v for v in range(n) if v not in sources)
    has_edge = bytearray(n)
    for u, _ in edges:
        has_edge[u] = 1
    sink = has_edge.find(0)
    return None if sink < 0 else sink


@dataclasses.dataclass(frozen=True)
class Model:
    """A directed graph or MDP given by edge support.

    Every vertex must have at least one outgoing edge, edges are unique,
    and graphs have no random vertices.  Immutable and safe to share.
    """

    kind: str  # "graph" | "mdp"
    n: int
    edges: tuple
    random_vertices: frozenset

    @property
    def m(self) -> int:
        return len(self.edges)

    def validate(self) -> "Model":
        if self.kind not in ("graph", "mdp"):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.kind == "graph" and self.random_vertices:
            raise ModelError("graph models cannot have random vertices")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ModelError(f"edge ({u}, {v}) out of range")
            if (u, v) in seen:
                raise ModelError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        for v in self.random_vertices:
            if not 0 <= v < self.n:
                raise ModelError(f"random vertex {v} out of range")
        return self._check_sinks()

    def _check_sinks(self) -> "Model":
        # The checks that `parse_model` cannot make line by line.
        if self.n <= 0:
            raise ModelError("vertex count must be positive")
        sink = first_sink(self.n, self.edges)
        if sink is not None:
            raise ModelError(f"vertex {sink} has no outgoing edge")
        return self

    def out_adjacency(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
        return adj

    def in_adjacency(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[v].append(u)
        return adj


@dataclasses.dataclass(frozen=True)
class StreettPairs:
    """Request/grant vertex-set pairs of a strong-fairness objective."""

    k: int
    pairs: tuple  # tuple of (frozenset, frozenset)

    def validate(self, n: int) -> "StreettPairs":
        if self.k != len(self.pairs):
            raise ModelError("pair count does not match pair list")
        for left, right in self.pairs:
            for v in left | right:
                if not 0 <= v < n:
                    raise ModelError(f"pair vertex {v} out of range")
        return self


@dataclasses.dataclass
class Candidate:
    """A candidate vertex set with its lost-edge witnesses.

    `lost_in` collects vertices that lost an incoming edge and `lost_out`
    vertices that lost an outgoing edge since the last time a superset of
    `vertices` was known to be strongly connected; both are subsets of
    `vertices`.
    """

    vertices: object
    lost_in: object
    lost_out: object


def _tokens(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_model(text: str) -> Model:
    """Parse and validate a model file, each fact once; errors carry line numbers."""
    it = _tokens(text)
    try:
        lineno, head = next(it)
    except StopIteration:
        raise ModelError("empty model file") from None
    if len(head) != 2 or head[0] not in ("graph", "mdp"):
        raise ModelError("expected 'graph <n>' or 'mdp <n>'", lineno)
    kind = head[0]
    try:
        n = int(head[1])
    except ValueError:
        raise ModelError(f"bad vertex count {head[1]!r}", lineno) from None
    edges = []
    seen = set()
    random_vertices = set()
    for lineno, tok in it:
        if tok[0] == "e":
            if len(tok) != 3:
                raise ModelError("edge line needs exactly two vertices", lineno)
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise ModelError("edge endpoints must be integers", lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ModelError(f"edge ({u}, {v}) out of range", lineno)
            if (u, v) in seen:
                raise ModelError(f"duplicate edge ({u}, {v})", lineno)
            seen.add((u, v))
            edges.append((u, v))
        elif tok[0] == "random":
            if kind != "mdp":
                raise ModelError("'random' is only valid in mdp models", lineno)
            try:
                vs = [int(t) for t in tok[1:]]
            except ValueError:
                raise ModelError("random vertices must be integers", lineno) from None
            for v in vs:
                if not 0 <= v < n:
                    raise ModelError(f"random vertex {v} out of range", lineno)
            random_vertices.update(vs)
        else:
            raise ModelError(f"unknown directive {tok[0]!r}", lineno)
    return Model(kind, n, tuple(edges), frozenset(random_vertices))._check_sinks()


def serialize_model(model: Model) -> str:
    lines = [f"{model.kind} {model.n}"]
    lines += [f"e {u} {v}" for u, v in model.edges]
    if model.random_vertices:
        ids = " ".join(str(v) for v in sorted(model.random_vertices))
        lines.append(f"random {ids}")
    return "\n".join(lines) + "\n"


def parse_pairs(text: str, n: int) -> StreettPairs:
    """Parse and validate a pairs file against a model of `n` vertices."""
    it = _tokens(text)
    try:
        lineno, head = next(it)
    except StopIteration:
        raise ModelError("empty pairs file") from None
    if len(head) != 2 or head[0] != "pairs":
        raise ModelError("expected 'pairs <k>'", lineno)
    try:
        k = int(head[1])
    except ValueError:
        raise ModelError(f"bad pair count {head[1]!r}", lineno) from None
    if k < 0:
        raise ModelError("pair count must be non-negative", lineno)
    lefts, rights = {}, {}  # pair index -> vertex ids, for the pairs the lines name
    for lineno, tok in it:
        if tok[0] not in ("L", "U"):
            raise ModelError(f"unknown directive {tok[0]!r}", lineno)
        if len(tok) < 2:
            raise ModelError("missing pair index", lineno)
        try:
            i = int(tok[1])
        except ValueError:
            raise ModelError("indices must be integers", lineno) from None
        try:
            vs = [int(t) for t in tok[2:]]
        except ValueError:
            raise ModelError("pair vertices must be integers", lineno) from None
        if not 1 <= i <= k:
            raise ModelError(f"pair index {i} outside 1..{k}", lineno)
        for v in vs:
            if not 0 <= v < n:
                raise ModelError(f"pair vertex {v} out of range", lineno)
        (lefts if tok[0] == "L" else rights).setdefault(i - 1, []).extend(vs)
    empty = (frozenset(), frozenset())
    pairs = tuple(
        (frozenset(lefts.get(i, ())), frozenset(rights.get(i, ())))
        if i in lefts or i in rights else empty for i in range(k)
    )
    return StreettPairs(k, pairs)


def serialize_pairs(pairs: StreettPairs) -> str:
    lines = [f"pairs {pairs.k}"]
    for i, (left, right) in enumerate(pairs.pairs, start=1):
        if left:
            lines.append(f"L {i} " + " ".join(str(v) for v in sorted(left)))
        if right:
            lines.append(f"U {i} " + " ".join(str(v) for v in sorted(right)))
    return "\n".join(lines) + "\n"


def pair_sets(mgr, pairs: StreettPairs) -> list:
    """Materialize the pairs as vertex sets of `mgr` (uncounted setup)."""
    return [
        (mgr.from_ids(sorted(left)), mgr.from_ids(sorted(right)))
        for left, right in pairs.pairs
    ]


def bad_vertices(mgr, svs, pairs) -> object:
    """Vertices of `svs` whose request pair has no grant inside `svs`.

    For each pair whose grant set misses `svs` entirely, the members of
    the request set inside `svs` are bad.  Uses at most ``2k`` set
    operations and ``k`` emptiness tests.
    """
    if isinstance(pairs, StreettPairs):
        pairs = pair_sets(mgr, pairs)
    acc = None
    for left, right in pairs:
        grants = mgr.intersect(right, svs)
        if mgr.is_empty(grants):
            acc = left if acc is None else mgr.union(acc, left)
    if acc is None:
        return mgr.empty()
    return mgr.intersect(acc, svs)


def has_edge(mgr, svs) -> bool:
    """Whether `svs` induces an edge: one post and one set operation."""
    return not mgr.is_empty(mgr.intersect(mgr.post(svs), svs))
