"""SCC decomposition and lock-step search."""

import collections
import contextlib
import itertools
import random
import tracemalloc
from functools import partial

import pytest

from fairchk import StepCounters, UsageError, all_sccs, lock_step_search
from fairchk.generate import random_edges
from fairchk.model import Model
from fairchk.oracle import tarjan_scc, top_bottom_sccs

from conftest import mgr_for
from helpers import (
    bitset_representation,
    lockstep_instance,
    reference_all_sccs,
    reference_fwbw_sccs,
    reference_lock_step_search,
    scc_instance,
    split_ids,
)

REFERENCE_SEEDS = 200
SINK_SEEDS = 150

# Each SCC variant and the manager-call reference it must reproduce.
SCC_KERNELS = (
    (all_sccs, reference_all_sccs),
    (partial(all_sccs, variant="fwbw"), reference_fwbw_sccs),
)


class TestAllSccs:
    def test_two_components(self, f2, backend):
        mgr = mgr_for(f2, backend)
        assert split_ids(mgr, all_sccs(mgr, mgr.universe)) == [[0, 1], [2, 3]]

    def test_single_cycle(self, f1, backend):
        mgr = mgr_for(f1, backend)
        assert split_ids(mgr, all_sccs(mgr, mgr.universe)) == [[0, 1, 2]]

    def test_trivial_components_in_subgraph(self, f2, backend):
        mgr = mgr_for(f2, backend)
        assert all_sccs(mgr, mgr.from_ids([1, 2])) == ([], [1, 2])

    def test_empty_subgraph(self, f1):
        mgr = mgr_for(f1)
        assert all_sccs(mgr, mgr.empty()) == ([], [])

    def test_unknown_variant_charges_nothing(self, f1):
        mgr = mgr_for(f1)
        with pytest.raises(UsageError, match="unknown SCC variant 'nope'"):
            all_sccs(mgr, mgr.universe, variant="nope")
        assert mgr.snapshot_counters() == StepCounters()

    def test_pivot_without_successor_makes_one_search(self, f2, backend, monkeypatch):
        # Inside {0, 2} neither vertex has a successor: each pivot is its
        # own part after its forward search, with no spine walk and no
        # backward search, and is charged as if both had run.
        mgr = mgr_for(f2, backend)
        calls = _record_kernel_calls(monkeypatch, mgr)
        assert all_sccs(mgr, mgr.from_ids([0, 2])) == ([], [0, 2])
        assert [c[:2] for c in calls] == [("post", 1), ("post", 1)]
        ref = mgr_for(f2, backend)
        reference_all_sccs(ref, ref.from_ids([0, 2]))
        assert mgr.snapshot_counters() == ref.snapshot_counters()

    @pytest.mark.parametrize("variant", ["skeleton", "fwbw"])
    def test_matches_tarjan_on_random_graphs(self, variant):
        for seed in range(400):
            model = scc_instance(seed, n_max=32)
            mgr = mgr_for(model)
            split = all_sccs(mgr, mgr.universe, variant=variant)
            assert split_ids(mgr, split) == tarjan_scc(model), seed

    def test_matches_tarjan_on_random_subgraphs(self):
        for seed in range(200):
            model = scc_instance(seed, n_max=24)
            rng = random.Random(seed ^ 0x5CC)
            svs = sorted(rng.sample(range(model.n), rng.randint(1, model.n)))
            mgr = mgr_for(model)
            split = all_sccs(mgr, mgr.from_ids(svs))
            assert split_ids(mgr, split) == tarjan_scc(model, svs), seed

    def test_variants_agree(self):
        for seed in range(150):
            model = scc_instance(seed, n_max=24)
            mgr = mgr_for(model)
            assert all_sccs(mgr, mgr.universe) == all_sccs(mgr, mgr.universe, "fwbw"), seed

    def test_linear_step_budget(self):
        # Frozen regression constant; the skeleton variant stays below it
        # on random graphs and on adversarial path/cycle shapes.
        for seed in range(200):
            model = scc_instance(seed)
            mgr = mgr_for(model)
            all_sccs(mgr, mgr.universe)
            assert mgr.snapshot_counters().headline <= 6 * model.n, seed

    def test_linear_step_budget_on_adversarial_shapes(self):
        from fairchk.model import Model

        n = 512
        shapes = {
            "path": tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, n - 1),),
            "cycle": tuple((i, (i + 1) % n) for i in range(n)),
            "two-cycle chain": tuple(
                edge
                for c in range(n // 2)
                for edge in [(2 * c, 2 * c + 1), (2 * c + 1, 2 * c)]
                + ([(2 * c + 1, 2 * c + 2)] if c + 1 < n // 2 else [])
            ),
        }
        for name, edges in shapes.items():
            model = Model("graph", n, edges, frozenset()).validate()
            mgr = mgr_for(model)
            assert split_ids(mgr, all_sccs(mgr, mgr.universe)) == tarjan_scc(model), name
            assert mgr.snapshot_counters().headline <= 6 * n, name


class TestLockStep:
    def test_backward_search_wins(self, f2):
        # Top component found by the search from vertex 0; the forward
        # search from 2 is still running when it closes.
        mgr = mgr_for(f2)
        comp, lost_in, lost_out = lock_step_search(
            mgr, mgr.universe, mgr.from_ids([0]), mgr.from_ids([2])
        )
        assert mgr.to_ids(comp) == [0, 1]
        assert mgr.to_ids(lost_in) == [0]
        assert mgr.to_ids(lost_out) == [2]

    def test_strongly_connected_returns_everything(self, f1):
        mgr = mgr_for(f1)
        comp, _, _ = lock_step_search(mgr, mgr.universe, mgr.from_ids([0]), mgr.empty())
        assert comp == mgr.universe

    def test_collision_prunes_exactly_one(self, f2):
        mgr = mgr_for(f2)
        comp, lost_in, lost_out = lock_step_search(
            mgr, mgr.universe, mgr.empty(), mgr.from_ids([2, 3])
        )
        assert mgr.to_ids(comp) == [2, 3]
        assert mgr.to_ids(lost_out) == [3]

    def test_no_start_vertices_rejected(self, f1):
        mgr = mgr_for(f1)
        with pytest.raises(UsageError):
            lock_step_search(mgr, mgr.universe, mgr.empty(), mgr.empty())

    def test_rounds_alternate_one_step_per_live_search(self):
        for seed in range(120):
            model, svs_ids, in_ids, out_ids = lockstep_instance(seed)
            if not in_ids and not out_ids:
                continue
            mgr = mgr_for(model)
            trace = []
            lock_step_search(
                mgr,
                mgr.from_ids(svs_ids),
                mgr.from_ids(in_ids),
                mgr.from_ids(out_ids),
                trace=trace,
            )
            for record in trace:
                assert record["pre_ops"] <= record["live_in"]
                assert record["post_ops"] <= record["live_out"]

    def test_returns_extremal_component(self):
        for seed in range(400):
            model, svs_ids, in_ids, out_ids = lockstep_instance(seed)
            if not in_ids and not out_ids:
                continue
            mgr = mgr_for(model)
            comp, _, _ = lock_step_search(
                mgr,
                mgr.from_ids(svs_ids),
                mgr.from_ids(in_ids),
                mgr.from_ids(out_ids),
            )
            cids = mgr.to_ids(comp)
            tops, bottoms = top_bottom_sccs(model, svs_ids)
            assert cids in tops or cids in bottoms, seed

    def test_step_budget_with_frozen_constant(self):
        # ops <= 2 * (|in|+|out|) * min(|C|, |rest|) + 2, with the |C| form
        # when the whole subgraph is returned.
        for seed in range(400):
            model, svs_ids, in_ids, out_ids = lockstep_instance(seed)
            if not in_ids and not out_ids:
                continue
            mgr = mgr_for(model)
            before = mgr.snapshot_counters()
            comp, _, _ = lock_step_search(
                mgr,
                mgr.from_ids(svs_ids),
                mgr.from_ids(in_ids),
                mgr.from_ids(out_ids),
            )
            delta = mgr.snapshot_counters() - before
            size = mgr.cardinality(comp)
            rest = len(svs_ids) - size
            witnesses = len(in_ids) + len(out_ids)
            core = witnesses * (min(size, rest) if rest else size)
            assert delta.headline <= 2 * core + 2, seed

    def test_same_vertex_on_both_sides(self):
        # A vertex may seed a backward and a forward search independently.
        for seed in range(60):
            model, svs_ids, in_ids, out_ids = lockstep_instance(seed)
            shared = sorted(set(in_ids) | set(out_ids))
            if not shared:
                continue
            mgr = mgr_for(model)
            comp, _, _ = lock_step_search(
                mgr,
                mgr.from_ids(svs_ids),
                mgr.from_ids(shared),
                mgr.from_ids(shared),
            )
            tops, bottoms = top_bottom_sccs(model, svs_ids)
            assert mgr.to_ids(comp) in tops + bottoms, seed


def _kernel_inputs(seed):
    """A lock-step instance on up to 64 vertices; every third seed starts
    both search kinds from the same vertices."""
    model, svs_ids, in_ids, out_ids = lockstep_instance(seed, n_max=64)
    if seed % 3 == 0:
        in_ids = out_ids = sorted(set(in_ids) | set(out_ids))
    return model, svs_ids, in_ids, out_ids


def _sink_heavy_inputs(seed, n_max=40):
    """A graph of chains into sinks, and the ids of the subset to decompose.

    Edges lead to higher ids, up to four ahead.  A sink keeps a self-loop
    or has one edge to a drain, a vertex left out of the subset, so that
    inside the subset it has no successor.  An occasional edge back makes
    a small cycle.  Every third seed leaves out more vertices, so that
    more pivots have all their successors outside the subset.
    """
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    drains = set(rng.sample(range(n), max(1, n // 8)))
    edges = set()
    for u in range(n):
        if u in drains:
            edges.add((u, rng.randrange(n)))
        elif u == n - 1 or rng.random() < 0.3:
            edges.add((u, u) if rng.random() < 0.35 else (u, rng.choice(sorted(drains))))
        else:
            for _ in range(rng.randint(1, 2)):
                edges.add((u, rng.randint(u + 1, min(n - 1, u + 4))))
            if rng.random() < 0.05:
                edges.add((u, rng.randint(max(0, u - 3), u)))
    model = Model("graph", n, tuple(sorted(edges)), frozenset()).validate()
    svs = [v for v in range(n) if v not in drains]
    if seed % 3 == 0:
        svs = sorted(rng.sample(svs, rng.randint(1, len(svs))))
    return model, svs


def _record_kernel_calls(monkeypatch, mgr):
    """A list that receives one record per backend ``layers`` call, as
    (image name, depth, start ids), and ("spine", depth) per ``spine``
    call, while the test runs."""
    calls = []
    cls = type(mgr._b)
    layers, spine = cls.layers, cls.spine

    def counted_layers(self, side, start, within):
        out = layers(self, side, start, within)
        calls.append((("pre", "post")[side], len(out[0]), self.to_ids(start)))
        return out

    def counted_spine(self, layers_):
        calls.append(("spine", len(layers_)))
        return spine(self, layers_)

    monkeypatch.setattr(cls, "layers", counted_layers)
    monkeypatch.setattr(cls, "spine", counted_spine)
    return calls


def _run_kernels(model, backend, sccs, search, inputs, paused=False):
    """Sets, counters and lock-step trace of one run of both kernels."""
    mgr = mgr_for(model, backend)
    svs, lost_in, lost_out = (mgr.from_ids(ids) for ids in inputs)
    trace = []
    with mgr.counters_paused() if paused else contextlib.nullcontext():
        split = sccs(mgr, svs)
        found = search(mgr, svs, lost_in, lost_out, trace=trace)
    sets = split_ids(mgr, split) + [mgr.to_ids(x) for x in found]
    return sets, mgr.snapshot_counters(), trace


@pytest.mark.parametrize("variant", ["skeleton", "fwbw"])
def test_split_peak_memory_on_a_sparse_graph(variant):
    """On 16,384 vertices and 1.2 edges per vertex, 11,320 of the 11,321
    SCC parts are single vertices.  Kept as ids, both splits peak at about
    0.47 MiB under `tracemalloc`; the fw-bw split took 4.2 MiB while each
    pivot's searched parts waited on its stack under the rest.  As
    one-vertex bit masks, each as wide as its vertex id, they took 13 MiB
    and 13.7 MiB, quadratic in the vertices."""
    n = 16384
    model = Model("graph", n, tuple(random_edges(random.Random(0), n, 6 * n // 5)),
                  frozenset()).validate()
    mgr = mgr_for(model)
    tracemalloc.start()
    try:
        parts, ids = all_sccs(mgr, mgr.universe, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) > n // 2
    assert peak < 2 * 2**20, peak


class TestMatchesHandleLevelReference:
    """The raw-handle kernels return, charge and trace exactly what the
    same sequence of counted manager calls does."""

    @pytest.fixture(params=["bitset", "obdd", "tuples"])
    def backend(self, request):
        """The two backends, and the bitset backend on neighbour tuples,
        whose ``spine`` reads the predecessors through ``pre``."""
        if request.param != "tuples":
            yield request.param
            return
        with bitset_representation("tuples"):
            yield "bitset"

    def test_sets_counters_and_trace(self, backend):
        """The reference asks "more than one live start vertex" by
        cardinality, the kernel by comparing with the search's own vertex.
        The inputs prune 34 searches; each of the 200 calls ends with a
        search that closes unpruned.  None closes and is pruned in one
        step: the set it closes with was checked the round before against
        a live set that has only shrunk since."""
        events = collections.Counter()
        reference = partial(reference_lock_step_search, events=events)
        for seed in range(REFERENCE_SEEDS):
            model, *inputs = _kernel_inputs(seed)
            got = _run_kernels(model, backend, all_sccs, lock_step_search, inputs)
            want = _run_kernels(model, backend, reference_all_sccs, reference, inputs)
            assert got == want, seed
        assert events["pruned"] >= 1 and events["closed and pruned"] == 0, events

    def test_whole_graph_decomposition(self, backend):
        """Both variants give the reference's partition and all six of its
        counters, in the split's shape: the parts of two or more vertices
        as sets by least vertex, then the one-vertex parts as ascending ids."""
        for seed, (sccs, reference_sccs) in itertools.product(
            range(REFERENCE_SEEDS), SCC_KERNELS
        ):
            model = scc_instance(seed, n_max=64)
            ref, mgr = mgr_for(model, backend), mgr_for(model, backend)
            want = split_ids(ref, reference_sccs(ref, ref.universe))
            parts, ids = sccs(mgr, mgr.universe)
            got = [mgr.to_ids(p) for p in parts] + [[v] for v in ids]
            assert got == sorted(want, key=lambda p: len(p) == 1), seed
            assert mgr.snapshot_counters() == ref.snapshot_counters(), seed

    def test_paused_kernels_charge_nothing(self, backend):
        for seed, (sccs, reference_sccs) in itertools.product(
            range(REFERENCE_SEEDS // 4), SCC_KERNELS
        ):
            model, *inputs = _kernel_inputs(seed)
            got = _run_kernels(
                model, backend, sccs, lock_step_search, inputs, paused=True
            )
            want = _run_kernels(
                model, backend, reference_sccs, reference_lock_step_search,
                inputs, paused=True,
            )
            assert got[1] == StepCounters(), (seed, reference_sccs.__name__)
            assert got == want, (seed, reference_sccs.__name__)

    def test_sink_heavy_decomposition(self, backend, monkeypatch):
        """Pivots with no successor in their set: sinks with and without a
        self-loop, ends of chains whose successors are already split off,
        and vertices whose successors all lie outside `svs`.  Each is its
        own part after one ``layers`` call, with no ``spine`` call.  Those
        and the pivots whose backward search stops after one layer come
        back as ids, and the split and all six counters are the reference's."""
        kinds = collections.Counter()
        for seed in range(SINK_SEEDS):
            model, svs_ids = _sink_heavy_inputs(seed)
            ref, mgr = mgr_for(model, backend), mgr_for(model, backend)
            want = split_ids(ref, reference_all_sccs(ref, ref.from_ids(svs_ids)))
            calls = _record_kernel_calls(monkeypatch, mgr)
            parts, ids = all_sccs(mgr, mgr.from_ids(svs_ids))
            monkeypatch.undo()
            got = [mgr.to_ids(p) for p in parts] + [[v] for v in ids]
            assert got == sorted(want, key=lambda p: len(p) == 1), seed
            assert mgr.snapshot_counters() == ref.snapshot_counters(), seed

            # One pivot per forward search: a one-layer pivot makes no other
            # call, any other pivot one spine walk and one backward search.
            pivots = []
            for call in calls:
                if call[0] == "post":
                    pivots.append([call])
                else:
                    pivots[-1].append(call)
            succ, inside = model.out_adjacency(), set(svs_ids)
            for pivot in pivots:
                _, depth, start = pivot[0]
                if depth > 1:
                    assert [c[0] for c in pivot] == ["post", "spine", "pre"], seed
                    kinds["backward search of one layer"] += pivot[2][1] == 1
                    continue
                assert len(pivot) == 1, seed
                (v,) = start
                if v in succ[v]:
                    kinds["self-loop"] += 1
                elif set(succ[v]) <= inside:
                    kinds["successors split off"] += 1
                else:
                    kinds["successor outside svs"] += 1
        assert min(kinds[k] for k in (
            "self-loop", "successors split off", "successor outside svs",
            "backward search of one layer")) > 0, kinds
