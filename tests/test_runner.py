"""`run_command` runs the same algorithm as the public functions.

Every route (four commands, two algorithms, two backends) must give the
report of the direct call: the same algorithm name, result, counters,
preprocessing and events.  `oracle_matches` must accept each report and
reject it once its result is altered.
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

from helpers import graph_instance, mdp_instance

SEEDS = range(6)


def _scc(variant):
    def run(mgr, model, pairs):
        parts = all_sccs(mgr, mgr.universe, variant=variant)
        return RunReport(f"scc-{variant}", mgr.snapshot_counters(), StepCounters(),
                         0.0, components=[mgr.to_ids(p) for p in parts])
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
