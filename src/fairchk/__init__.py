"""Symbolic winning-set and end-component analysis under strong fairness.

The package computes, with exact symbolic-step accounting:

- winning sets of graphs with strong-fairness (request/grant) objectives,
- almost-sure winning sets of MDPs with the same objectives,
- maximal end-component decompositions of MDPs,

each in a basic variant based on repeated full decompositions and an
improved variant based on lock-step searches from vertices that lost
edges, plus the supporting symbolic primitives (reachability, random
attractors, SCC decomposition in linearly many steps) and explicit
brute-force oracles for cross-validation.
"""

from .errors import FairchkError, InvariantViolation, ModelError, UsageError
from .generate import generate_objects
from .mec import mec_basic, mec_decomposition, mec_improved
from .model import (
    Candidate,
    Model,
    StreettPairs,
    bad_vertices,
    pair_sets,
    parse_model,
    parse_pairs,
    serialize_model,
    serialize_pairs,
)
from .reach import almost_sure_reach, random_attractor, reach_backward
from .report import RunReport
from .runner import oracle_matches, run_command
from .scc import all_sccs, lock_step_search
from .streett_graph import streett_graph_basic, streett_graph_improved
from .streett_mdp import streett_mdp_basic, streett_mdp_improved
from .symbolic import StepCounters, SymbolicManager, VertexSet
from .thresholds import mec_threshold, streett_threshold

__all__ = [
    "FairchkError",
    "InvariantViolation",
    "ModelError",
    "UsageError",
    "Candidate",
    "Model",
    "StreettPairs",
    "StepCounters",
    "SymbolicManager",
    "VertexSet",
    "RunReport",
    "parse_model",
    "parse_pairs",
    "serialize_model",
    "serialize_pairs",
    "pair_sets",
    "bad_vertices",
    "reach_backward",
    "random_attractor",
    "almost_sure_reach",
    "all_sccs",
    "lock_step_search",
    "streett_graph_basic",
    "streett_graph_improved",
    "mec_basic",
    "mec_improved",
    "mec_decomposition",
    "streett_mdp_basic",
    "streett_mdp_improved",
    "streett_threshold",
    "mec_threshold",
    "generate_objects",
    "run_command",
    "oracle_matches",
]
