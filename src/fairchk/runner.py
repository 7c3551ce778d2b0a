"""Glue for running algorithms on fresh managers and checking oracles."""

from __future__ import annotations

import time

from . import mec, oracle, streett_graph, streett_mdp
from .errors import UsageError
from .report import RunReport
from .scc import all_sccs
from .symbolic import StepCounters, SymbolicManager
from .thresholds import mec_threshold, streett_threshold

__all__ = ["run_command", "oracle_matches", "COMMANDS"]

COMMANDS = ("scc", "mec", "streett-graph", "streett-mdp")
PAIRS_COMMANDS = ("streett-graph", "streett-mdp")  # the commands that read pairs


def run_command(command, model, pairs=None, algorithm="improved",
                backend="bitset", threshold="auto", debug=False) -> RunReport:
    """Run one algorithm on a fresh manager and return its report.

    For the ``scc`` command ``basic`` selects the plain forward/backward
    decomposition and ``improved`` the linear-step skeleton variant.  The
    basic algorithms take no threshold and ignore `threshold`.
    """
    if algorithm not in ("basic", "improved"):
        raise UsageError(f"unknown algorithm {algorithm!r}")
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    if pairs is None and command in PAIRS_COMMANDS:
        raise UsageError(f"{command} needs a pairs file")
    improved = algorithm == "improved"
    if improved and command != "scc":  # a bad threshold fails before set-up
        resolve = mec_threshold if command == "mec" else streett_threshold
        threshold = resolve(threshold, model.n, model.m)
    mgr = SymbolicManager.from_model(model, backend=backend)
    if command == "scc":
        variant = "skeleton" if improved else "fwbw"
        start = time.perf_counter()
        parts, ids = all_sccs(mgr, mgr.universe, variant=variant)
        return RunReport.since(mgr, f"scc-{variant}", start, StepCounters(), components=sorted(
            [mgr.to_ids(p) for p in parts] + [[v] for v in ids]))
    if command == "mec":
        return mec._report(mgr, model, improved, threshold, debug)
    driver = streett_graph if command == "streett-graph" else streett_mdp
    return driver._report(mgr, model, pairs, improved, threshold, debug)


def oracle_matches(command, model, pairs, report: RunReport) -> bool:
    """Compare a report against the explicit reference implementation."""
    if command == "scc":
        return report.components == oracle.tarjan_scc(model)
    if command == "mec":
        return report.components == oracle.explicit_mec(model)
    if command == "streett-graph":
        return report.winning == oracle.explicit_streett_graph(model, pairs)
    if command == "streett-mdp":
        return report.winning == oracle.explicit_streett_mdp(model, pairs)
    raise UsageError(f"unknown command {command!r}")
