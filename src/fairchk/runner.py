"""Glue for running algorithms on fresh managers and checking oracles."""

from __future__ import annotations

import time

from . import oracle
from .errors import UsageError
from .mec import mec_basic, mec_improved
from .report import RunReport
from .scc import all_sccs
from .streett_graph import streett_graph_basic, streett_graph_improved
from .streett_mdp import streett_mdp_basic, streett_mdp_improved
from .symbolic import StepCounters, SymbolicManager

__all__ = ["run_command", "oracle_matches", "COMMANDS"]

COMMANDS = ("scc", "mec", "streett-graph", "streett-mdp")


def run_command(command, model, pairs=None, algorithm="improved",
                backend="bitset", threshold="auto", debug=False) -> RunReport:
    """Run one algorithm on a fresh manager and return its report.

    For the ``scc`` command ``basic`` selects the plain forward/backward
    decomposition and ``improved`` the linear-step skeleton variant.
    """
    if algorithm not in ("basic", "improved"):
        raise UsageError(f"unknown algorithm {algorithm!r}")
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    if pairs is None and command in ("streett-graph", "streett-mdp"):
        raise UsageError(f"{command} needs a pairs file")
    mgr = SymbolicManager.from_model(model, backend=backend)
    if command == "scc":
        variant = "fwbw" if algorithm == "basic" else "skeleton"
        start = time.perf_counter()
        parts = all_sccs(mgr, mgr.universe, variant=variant)
        return RunReport(
            algorithm=f"scc-{variant}",
            counters=mgr.snapshot_counters(),
            preprocessing=StepCounters(),
            wall_time=time.perf_counter() - start,
            components=[mgr.to_ids(p) for p in parts],
        )
    if command == "mec":
        if algorithm == "basic":
            return mec_basic(mgr, model, debug=debug)
        return mec_improved(mgr, model, threshold=threshold, debug=debug)
    if command == "streett-graph":
        if algorithm == "basic":
            return streett_graph_basic(mgr, model, pairs, debug=debug)
        return streett_graph_improved(mgr, model, pairs, threshold=threshold,
                                      debug=debug)
    if algorithm == "basic":
        return streett_mdp_basic(mgr, model, pairs, debug=debug)
    return streett_mdp_improved(mgr, model, pairs, threshold=threshold,
                                debug=debug)


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
