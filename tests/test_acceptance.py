"""Acceptance suite: the eight exit criteria of this package.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them.  The randomized
criteria use fixed seed ranges, so the suite is fully deterministic.
"""

import time

from fairchk import (
    SymbolicManager,
    all_sccs,
    lock_step_search,
    mec_basic,
    mec_improved,
    run_command,
    streett_graph_basic,
    streett_graph_improved,
    streett_mdp_basic,
    streett_mdp_improved,
)
from fairchk.generate import generate_objects
from fairchk.model import StreettPairs
from fairchk.oracle import (
    explicit_mec,
    explicit_streett_graph,
    explicit_streett_mdp,
    tarjan_scc,
)

from helpers import (
    graph_instance,
    lockstep_instance,
    mdp_instance,
    ring_chain,
    scc_instance,
    split_ids,
)

TRIALS = 10_000
LOCKSTEP_TRIALS = 1_000
LOCKSTEP_CONSTANT = 2  # frozen regression bound for the search step count
SCC_CONSTANT = 6  # frozen regression bound: steps <= SCC_CONSTANT * n
# frozen regression bound: improved MDP steps <= RING_CONSTANT * n on the
# ring chain with k = n/8 (measured 3.82 n for n = 64..512)
RING_CONSTANT = 4
# improved MEC thresholds beside auto: every witness forces an SCC split,
# or every split is a lock-step split
FORCED_MEC_THRESHOLDS = (1, 10**9)


def _ok(criterion, message, started):
    elapsed = time.time() - started
    print(f"PASS criterion {criterion}: {message} [{elapsed:.1f}s]")


def _graph_reports(model, pairs, backend="bitset", debug=False):
    mgr = SymbolicManager.from_model(model, backend=backend)
    basic = streett_graph_basic(mgr, model, pairs, debug=debug)
    mgr = SymbolicManager.from_model(model, backend=backend)
    improved = streett_graph_improved(mgr, model, pairs, debug=debug)
    return basic, improved


def _mec_reports(model, backend="bitset", debug=False):
    mgr = SymbolicManager.from_model(model, backend=backend)
    basic = mec_basic(mgr, model, debug=debug)
    mgr = SymbolicManager.from_model(model, backend=backend)
    improved = mec_improved(mgr, model, debug=debug)
    return basic, improved


def _mdp_reports(model, pairs, backend="bitset", debug=False):
    mgr = SymbolicManager.from_model(model, backend=backend)
    basic = streett_mdp_basic(mgr, model, pairs, debug=debug)
    mgr = SymbolicManager.from_model(model, backend=backend)
    improved = streett_mdp_improved(mgr, model, pairs, debug=debug)
    return basic, improved


def test_criterion_1_graph_oracle_equivalence():
    started = time.time()
    for seed in range(TRIALS):
        model, pairs = graph_instance(seed)
        expected = explicit_streett_graph(model, pairs)
        basic, improved = _graph_reports(model, pairs)
        assert basic.winning == expected, f"seed {seed}"
        assert improved.winning == expected, f"seed {seed}"
    _ok(1, f"graph winning sets equal the oracle on {TRIALS} instances", started)


def test_criterion_2_mec_oracle_equivalence():
    started = time.time()
    scc_splits = 0
    for seed in range(TRIALS):
        model, _ = mdp_instance(seed)
        expected = explicit_mec(model)
        basic, improved = _mec_reports(model)
        assert basic.components == expected, f"seed {seed}"
        assert improved.components == expected, f"seed {seed}"
        for threshold in FORCED_MEC_THRESHOLDS:
            forced = mec_improved(SymbolicManager.from_model(model), model, threshold)
            assert forced.components == expected, f"seed {seed} threshold {threshold}"
            scc_splits += forced.events["rescc"]
    assert scc_splits > 0
    _ok(2, f"end-component decompositions equal the oracle on {TRIALS} instances "
        f"({scc_splits} improved SCC splits at forced thresholds)", started)


def test_criterion_3_mdp_oracle_equivalence():
    started = time.time()
    for seed in range(TRIALS):
        model, pairs = mdp_instance(seed)
        expected = explicit_streett_mdp(model, pairs)
        basic, improved = _mdp_reports(model, pairs)
        assert basic.winning == expected, f"seed {seed}"
        assert improved.winning == expected, f"seed {seed}"
    _ok(3, f"almost-sure winning sets equal the oracle on {TRIALS} instances",
        started)


def test_criterion_4_lock_step_contract():
    started = time.time()
    checked = 0
    seed = 0
    while checked < LOCKSTEP_TRIALS:
        model, svs_ids, in_ids, out_ids = lockstep_instance(seed)
        seed += 1
        if not in_ids and not out_ids:
            continue
        checked += 1
        mgr = SymbolicManager.from_model(model)
        before = mgr.snapshot_counters()
        comp, _, _ = lock_step_search(
            mgr,
            mgr.from_ids(svs_ids),
            mgr.from_ids(in_ids),
            mgr.from_ids(out_ids),
        )
        delta = mgr.snapshot_counters() - before
        cids = mgr.to_ids(comp)
        # extremal component, certified by the explicit decomposition
        parts = tarjan_scc(model, svs_ids)
        assert cids in parts, f"seed {seed - 1}: not an SCC"
        inside = set(svs_ids)
        members = set(cids)
        incoming = any(
            u in inside and u not in members
            for v in cids
            for u in model.in_adjacency()[v]
        )
        outgoing = any(
            w in inside and w not in members
            for v in cids
            for w in model.out_adjacency()[v]
        )
        assert not (incoming and outgoing), f"seed {seed - 1}: not extremal"
        # step bound with the frozen constant
        size, rest = len(cids), len(svs_ids) - len(cids)
        witnesses = len(in_ids) + len(out_ids)
        core = witnesses * (min(size, rest) if rest else size)
        assert delta.headline <= LOCKSTEP_CONSTANT * core + LOCKSTEP_CONSTANT, (
            f"seed {seed - 1}: {delta.headline} steps exceed bound {core}"
        )
    _ok(4, f"lock-step returns extremal SCCs within {LOCKSTEP_CONSTANT}x step "
           f"bound on {LOCKSTEP_TRIALS} candidates", started)


def test_criterion_5_invariant_suites():
    started = time.time()
    for seed in range(TRIALS):
        model, pairs = graph_instance(seed)
        _graph_reports(model, pairs, debug=True)
    for seed in range(TRIALS):
        model, pairs = mdp_instance(seed)
        _mec_reports(model, debug=True)
        _mdp_reports(model, pairs, debug=True)
    _ok(5, f"all invariant assertions hold with debugging enabled on "
           f"{3 * TRIALS} instance runs", started)


def _bad_vertex_per_cycle_pairs(cycles, size):
    requests = tuple(
        (frozenset([c * size + (1 % size)]), frozenset()) for c in range(cycles)
    )
    return StreettPairs(cycles, requests)


def test_criterion_6_scaling_trend():
    started = time.time()
    cycle_size = 16
    results = []
    for exponent in range(7, 13):
        n = 2**exponent
        cycles = n // cycle_size
        model, _ = generate_objects(
            "chain-of-cycles", cycles=cycles, cycle_size=cycle_size
        )
        pairs = _bad_vertex_per_cycle_pairs(cycles, cycle_size)
        basic, improved = _graph_reports(model, pairs)
        assert basic.winning == improved.winning
        results.append((n, basic.main_steps, improved.main_steps))
    # ratio non-increasing in n (exact, via cross multiplication) ...
    for (_, b1, i1), (_, b2, i2) in zip(results, results[1:]):
        assert i2 * b1 <= i1 * b2, f"ratio increased: {results}"
    # ... and strictly below one at the largest size
    n, basic_steps, improved_steps = results[-1]
    assert improved_steps < basic_steps, results
    ratios = ", ".join(f"{i / b:.4f}" for (_, b, i) in results)
    _ok(6, f"improved/basic step ratio non-increasing over n=128..4096 "
           f"({ratios})", started)


def test_criterion_6_mdp_scaling_trend():
    started = time.time()
    results = []
    for n in (64, 128, 256, 512):
        model, pairs = ring_chain(n, n // 8)
        basic, improved = _mdp_reports(model, pairs)
        assert basic.winning == improved.winning
        assert improved.main_steps <= RING_CONSTANT * n, (n, improved.main_steps)
        results.append((n, basic.main_steps, improved.main_steps))
    for (_, b1, i1), (_, b2, i2) in zip(results, results[1:]):
        assert i2 * b1 <= i1 * b2, f"ratio increased: {results}"
    ratios = ", ".join(f"{i / b:.4f}" for (_, b, i) in results)
    _ok(6, f"MDP improved/basic step ratio non-increasing over n=64..512 "
           f"({ratios}), improved steps <= {RING_CONSTANT}n", started)


def test_criterion_7_backend_equivalence():
    started = time.time()
    for seed in range(TRIALS):
        model, pairs = graph_instance(seed)
        expected = explicit_streett_graph(model, pairs)
        bit = _graph_reports(model, pairs, backend="bitset")
        dia = _graph_reports(model, pairs, backend="obdd")
        for b, d in zip(bit, dia):
            assert b.winning == d.winning == expected, f"seed {seed}"
            assert b.counters == d.counters, f"seed {seed}"
    for seed in range(TRIALS):
        model, pairs = mdp_instance(seed)
        expected_mec = explicit_mec(model)
        bit = _mec_reports(model, backend="bitset")
        dia = _mec_reports(model, backend="obdd")
        for b, d in zip(bit, dia):
            assert b.components == d.components == expected_mec, f"seed {seed}"
            assert b.counters == d.counters, f"seed {seed}"
        expected_win = explicit_streett_mdp(model, pairs)
        bit = _mdp_reports(model, pairs, backend="bitset")
        dia = _mdp_reports(model, pairs, backend="obdd")
        for b, d in zip(bit, dia):
            assert b.winning == d.winning == expected_win, f"seed {seed}"
            assert b.counters == d.counters, f"seed {seed}"
    _ok(7, f"bitset and obdd agree on results and one-step counters across "
           f"{2 * TRIALS} instances", started)


def test_criterion_8_scc_subroutine():
    started = time.time()
    for seed in range(TRIALS):
        model = scc_instance(seed, n_max=64)
        mgr = SymbolicManager.from_model(model)
        assert split_ids(mgr, all_sccs(mgr, mgr.universe)) == tarjan_scc(model), f"seed {seed}"
        steps = mgr.snapshot_counters().headline
        assert steps <= SCC_CONSTANT * model.n, (
            f"seed {seed}: {steps} steps on n={model.n}"
        )
    _ok(8, f"SCC decomposition matches the explicit partition within "
           f"{SCC_CONSTANT}n steps on {TRIALS} graphs", started)
