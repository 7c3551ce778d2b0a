"""`run_command` runs the same algorithm as the public functions.

Every route (four commands, two algorithms, two backends) must give the
report of the direct call: the same algorithm name, result, counters,
preprocessing and events.  `oracle_matches` must accept each report and
reject it once its result is altered.  The debug checks must leave every
report as the plain run gives it.
"""

import dataclasses

import pytest

from fairchk import (
    RunReport,
    StepCounters,
    SymbolicManager,
    UsageError,
    all_sccs,
    mec_basic,
    mec_improved,
    oracle_matches,
    run_command,
    streett_graph_basic,
    streett_graph_improved,
    streett_mdp_basic,
    streett_mdp_improved,
)

from helpers import graph_instance, mdp_instance, split_ids

SEEDS = range(6)
DEBUG_SEEDS = range(200)


def _scc(variant):
    def run(mgr, model, pairs):
        components = split_ids(mgr, all_sccs(mgr, mgr.universe, variant=variant))
        return RunReport(f"scc-{variant}", mgr.snapshot_counters(), StepCounters(),
                         0.0, components=components)
    return run


# command -> (instance generator, {algorithm: the direct call}).
ROUTES = {
    "scc": (graph_instance, {"basic": _scc("fwbw"), "improved": _scc("skeleton")}),
    "mec": (mdp_instance, {
        "basic": lambda mgr, model, pairs: mec_basic(mgr, model),
        "improved": lambda mgr, model, pairs: mec_improved(mgr, model),
    }),
    "streett-graph": (graph_instance, {"basic": streett_graph_basic,
                                       "improved": streett_graph_improved}),
    "streett-mdp": (mdp_instance, {"basic": streett_mdp_basic,
                                   "improved": streett_mdp_improved}),
}


def _fields(report):
    """Everything of a report but its wall time."""
    return (report.algorithm, report.winning, report.components,
            report.counters, report.preprocessing, report.events)


def _altered(report, n):
    # Vertex n exists in no model of n vertices, so no oracle returns it.
    if report.components is not None:
        return dataclasses.replace(report, components=report.components + [[n]])
    return dataclasses.replace(report, winning=report.winning + [n])


@pytest.mark.parametrize("algorithm", ["basic", "improved"])
@pytest.mark.parametrize("command", list(ROUTES))
def test_route_gives_the_direct_report(command, algorithm, backend):
    instance, direct = ROUTES[command]
    for seed in SEEDS:
        model, pairs = instance(seed)
        report = run_command(command, model, pairs, algorithm=algorithm,
                             backend=backend)
        mgr = SymbolicManager.from_model(model, backend=backend)
        assert _fields(report) == _fields(direct[algorithm](mgr, model, pairs)), seed
        assert oracle_matches(command, model, pairs, report), seed
        assert not oracle_matches(command, model, pairs, _altered(report, model.n)), seed


def test_debug_checks_change_no_report(backend):
    # Every debug check runs uncounted.  Thresholds 1 and 10**9 send the
    # improved algorithms down the SCC-split and the lock-step branch.
    runs = [("basic", "auto"), ("improved", 1), ("improved", 10**9)]
    for command in ("mec", "streett-graph", "streett-mdp"):
        for seed in DEBUG_SEEDS:
            model, pairs = ROUTES[command][0](seed)
            for algorithm, threshold in runs:
                plain, checked = (
                    run_command(command, model, pairs, algorithm=algorithm,
                                backend=backend, threshold=threshold, debug=debug)
                    for debug in (False, True)
                )
                assert _fields(checked) == _fields(plain), (command, seed, threshold)


@pytest.mark.parametrize("command", list(ROUTES))
def test_basic_run_ignores_threshold(command):
    # The basic algorithms have no threshold, so no value of it can fail.
    model, pairs = ROUTES[command][0](1)
    report = run_command(command, model, pairs, algorithm="basic", threshold=0)
    want = run_command(command, model, pairs, algorithm="basic")
    assert _fields(report) == _fields(want)


@pytest.mark.parametrize("command", ["mec", "streett-graph", "streett-mdp"])
def test_improved_run_rejects_threshold_zero(command):
    # run_command hands the threshold on to the improved algorithms.
    model, pairs = ROUTES[command][0](1)
    with pytest.raises(UsageError, match="positive integer"):
        run_command(command, model, pairs, algorithm="improved", threshold=0)


@pytest.mark.parametrize("command", ["mec", "streett-graph", "streett-mdp"])
def test_improved_run_rejects_threshold_before_building(command, monkeypatch):
    # The manager checks and indexes every edge: too late to find out then.
    def no_manager(*args, **kwargs):
        raise AssertionError("manager built for a run that cannot start")

    model, pairs = ROUTES[command][0](1)
    monkeypatch.setattr(SymbolicManager, "from_model", no_manager)
    with pytest.raises(UsageError, match="positive integer"):
        run_command(command, model, pairs, algorithm="improved", threshold=0)
