"""Seeded instance builders and the workload table of the benchmark.

Every instance is built here from the public ``Model`` and ``StreettPairs``
types; nothing comes from ``fairchk.generate``, so changes to the package's
own generators cannot shift a workload.  A run's ``--seed`` picks the
instance seeds through :meth:`Workload.instance_seeds`; the same seed always
gives the same instances.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import fairchk
from fairchk import Model, StreettPairs, oracle

DIGESTS_FILE = Path(__file__).with_name("few_pairs_graph_digests.json")

# Instance seeds of few-pairs-graph whose oracle answers are stored; the
# explicit oracle needs about ten seconds per instance at full size.
FEW_PAIRS_POOL = 20

# Rotations of the ring that chain-mdp runs draw from: see
# Workload.instance_seeds.
CHAIN_ROTATIONS = 8
# Instances of few-pairs-graph in one run.
FEW_PAIRS_PER_RUN = 4


def chain_mdp(seed: int, n: int = 1024, k: int = 128):
    """Bidirected ring MDP whose pairs force one removal round each.

    Pair 1 is ({0}, {}) and pair i is ({i-1}, {i-2}): removing the only
    request of pair 1 leaves pair 2's request without its grant, and so on
    down the chain.  All vertices belong to player 1.  Seed s rotates every
    vertex id by s (mod n); seed 0 is the unrotated ring.
    """
    rot = seed % n

    def vid(v):
        return (v + rot) % n

    edges = []
    for v in range(n):
        edges.append((vid(v), vid(v + 1)))
        edges.append((vid(v + 1), vid(v)))
    pairs = [(frozenset({vid(0)}), frozenset())]
    pairs += [(frozenset({vid(i - 1)}), frozenset({vid(i - 2)})) for i in range(2, k + 1)]
    return Model("mdp", n, tuple(edges), frozenset()), StreettPairs(k, tuple(pairs))


def ladder_mec(seed: int, d: int = 128):
    """Ladder of d player-1 8-cycles joined through random hinge vertices.

    Block i is an 8-cycle C_i and links forward by C_i[7] -> C_{i+1}[0].
    For i >= 1 the random hinge h_i links it back: C_i[7] -> h_i ->
    C_{i-1}[0], and skips forward, h_i -> C_{i+1}[0]; the last hinge points
    instead to a self-loop sink.  Removing a hinge cuts its block off as a
    bottom SCC, which makes the previous hinge escape, so the MEC
    decomposition needs d-1 random-attractor rounds.

    Ids: cycle vertices first (block i holds 8i..8i+7), then the hinges,
    then the sink.  Seed s numbers every cycle from position s mod 8, so
    seed 0 gives C_i[j] = 8i + j.  Numbering each cycle from its own random
    position instead makes the OBDDs about a third larger than seed 0's,
    which would make seed 0 an outlier among the runs.
    """

    def cyc(i, j):
        return 8 * i + (j + seed) % 8

    def hinge(i):
        return 8 * d + i - 1

    sink = 9 * d - 1
    edges = []
    for i in range(d):
        edges += [(cyc(i, j), cyc(i, j + 1)) for j in range(8)]
        if i + 1 < d:
            edges.append((cyc(i, 7), cyc(i + 1, 0)))
        if i >= 1:
            edges.append((cyc(i, 7), hinge(i)))
            edges.append((hinge(i), cyc(i - 1, 0)))
            edges.append((hinge(i), cyc(i + 1, 0) if i + 1 < d else sink))
    edges.append((sink, sink))
    hinges = frozenset(hinge(i) for i in range(1, d))
    return Model("mdp", 9 * d, tuple(edges), hinges), None


def few_pairs_graph(seed: int, n: int = 16384, m: int = 24576, k: int = 4, cap: int = 8):
    """Random digraph with few small pairs, each requesting a planted sink.

    k uniform vertices are sinks: their only out-edge is a self-loop.
    Every other vertex gets one uniform out-edge, then uniform distinct
    extra edges from non-sinks are added up to m.  Pair j requests sink j
    and up to `cap` - 1 uniform vertices, and grants `cap` uniform vertices
    other than sinks.  So every sink is a bottom SCC without a good cycle,
    and the vertices that can reach only sinks lose: the winning set is
    never the whole graph.  With `cap` grants, a pair's grants all miss the
    giant SCC (about 60% of the vertices) with odds of about 1 in 1,000,
    so the giant SCC keeps its requests and the improved variant almost
    never needs the lock-step search.
    """
    rng = random.Random(seed)
    sinks = rng.sample(range(n), k)
    closed = set(sinks)
    edges = [(u, u if u in closed else rng.randrange(n)) for u in range(n)]
    seen = set(edges)
    while len(edges) < m:
        e = (rng.randrange(n), rng.randrange(n))
        if e[0] not in closed and e not in seen:
            seen.add(e)
            edges.append(e)
    free = [v for v in range(n) if v not in closed]
    pairs = tuple(
        (
            frozenset({sink, *rng.sample(range(n), rng.randint(0, cap - 1))}),
            frozenset(rng.sample(free, cap)),
        )
        for sink in sinks
    )
    return Model("graph", n, tuple(edges), frozenset()), StreettPairs(k, pairs)


def answer(report) -> list:
    """The result a report carries: the winning set or the components."""
    return report.winning if report.components is None else report.components


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "streett-mdp" | "mec" | "streett-graph"
    backend: str
    build: object  # instance seed, **size -> (Model, StreettPairs | None)
    smoke_size: dict  # small sizes for the benchmark's self-tests
    stored_digests: bool = False  # oracle answers come from DIGESTS_FILE

    def instance_seeds(self, seed: int) -> list:
        """Instance seeds of one run.

        chain-mdp solves the ring at one rotation, seed mod 8.  Basic steps
        fall by 384 per unit of rotation, so every run solves nearly the
        same amount of work, and a run's time samples all go to one
        instance.  few-pairs-graph draws four consecutive instances from
        the pool whose oracle answers are stored.  ladder-mec-obdd solves
        one instance.
        """
        if self.name == "chain-mdp":
            return [seed % CHAIN_ROTATIONS]
        if self.name == "few-pairs-graph":
            first = FEW_PAIRS_PER_RUN * seed
            return [(first + j) % FEW_PAIRS_POOL for j in range(FEW_PAIRS_PER_RUN)]
        return [seed]

    def solvers(self) -> dict:
        """Variant name -> function(manager, model, pairs) -> RunReport."""
        if self.problem == "mec":
            return {
                "basic": lambda mgr, model, _pairs: fairchk.mec_basic(mgr, model),
                "improved": lambda mgr, model, _pairs: fairchk.mec_improved(mgr, model),
            }
        if self.problem == "streett-mdp":
            return {"basic": fairchk.streett_mdp_basic, "improved": fairchk.streett_mdp_improved}
        return {"basic": fairchk.streett_graph_basic, "improved": fairchk.streett_graph_improved}

    def oracle_answer(self, model, pairs) -> list:
        if self.problem == "mec":
            return oracle.explicit_mec(model)
        if self.problem == "streett-mdp":
            return oracle.explicit_streett_mdp(model, pairs)
        return oracle.explicit_streett_graph(model, pairs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-mdp", "streett-mdp", "bitset", chain_mdp, {"n": 64, "k": 8}),
        Workload("ladder-mec-obdd", "mec", "obdd", ladder_mec, {"d": 8}),
        Workload(
            "few-pairs-graph", "streett-graph", "bitset", few_pairs_graph,
            {"n": 512, "m": 768}, stored_digests=True,
        ),
    )
}


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text())
