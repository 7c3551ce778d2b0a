"""Run reports: algorithm results plus step counters and wall time."""

from __future__ import annotations

import dataclasses
import time

from .symbolic import StepCounters

__all__ = ["RunReport"]


@dataclasses.dataclass
class RunReport:
    """Outcome of one algorithm run on one fresh manager.

    `winning` holds sorted vertex ids for the fairness algorithms,
    `components` sorted component lists for the decomposition algorithms;
    exactly one of the two is set.  `counters` are the manager totals at
    the end of the run and `preprocessing` the totals right after the
    initial decomposition, so `main_counters` isolates the part that the
    benchmark comparisons are about.

    `events` counts control decisions: ``rescc`` SCC and ``remec`` MEC
    re-decompositions, ``lockstep`` splits, ``bad_rounds`` removal rounds
    and ``accepted`` components.  The algorithms report these keys:

    - ``scc-fwbw``, ``scc-skeleton``: none;
    - ``mec-basic``, ``mec-improved``: ``rescc``, ``lockstep`` (0 in basic);
    - ``streett-graph-basic``: ``rescc``, ``accepted``, ``bad_rounds``;
    - ``streett-mdp-basic``: ``remec``, ``accepted``, ``bad_rounds``;
    - ``streett-graph-improved``, ``streett-mdp-improved``: ``rescc``,
      ``lockstep``, ``accepted``, ``bad_rounds``.
    """

    algorithm: str
    counters: StepCounters
    preprocessing: StepCounters
    wall_time: float
    winning: list | None = None
    components: list | None = None
    events: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def since(cls, mgr, algorithm, start, preprocessing, **result):
        """The report of the run on `mgr` begun at ``perf_counter()`` `start`;
        `result` sets `winning` or `components`, and `events`."""
        return cls(algorithm, mgr.snapshot_counters(), preprocessing,
                   time.perf_counter() - start, **result)

    @property
    def main_counters(self) -> StepCounters:
        return self.counters - self.preprocessing

    @property
    def main_steps(self) -> int:
        return self.main_counters.headline

    def result_text(self) -> str:
        if self.components is not None:
            inner = ",".join(
                "{" + ",".join(map(str, comp)) + "}" for comp in self.components
            )
            return "[" + inner + "]"
        return " ".join(map(str, self.winning))
