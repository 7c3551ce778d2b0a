"""Pinned results, counters, preprocessing and events of all six algorithms.

`counters_pinned.txt` holds one line per run on the seeded criterion
instances: the algorithm, its threshold (``-`` for the basic variants),
the seed, the result, all six `StepCounters` fields of the whole run and
of the preprocessing, and the events.  Any change to the control flow of
an algorithm that moves one operation shows up as a changed line.
Regenerate the file only for an intended counter change, and say which
lines moved and why::

    PYTHONPATH=src python tests/test_counters_pinned.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from fairchk import (  # noqa: E402
    SymbolicManager,
    mec_basic,
    mec_improved,
    streett_graph_basic,
    streett_graph_improved,
    streett_mdp_basic,
    streett_mdp_improved,
)

from helpers import graph_instance, mdp_instance  # noqa: E402

PIN_FILE = Path(__file__).parent / "counters_pinned.txt"
SEEDS = 75
FORCE_LOCKSTEP = 10**9
THRESHOLDS = ("auto", 1, FORCE_LOCKSTEP)

# (instance generator, basic run, improved run); a run takes
# (mgr, model, pairs, threshold) and returns a RunReport.
PROBLEMS = (
    (
        graph_instance,
        lambda mgr, model, pairs, _: streett_graph_basic(mgr, model, pairs),
        lambda mgr, model, pairs, t: streett_graph_improved(mgr, model, pairs, t),
    ),
    (
        mdp_instance,
        lambda mgr, model, pairs, _: mec_basic(mgr, model),
        lambda mgr, model, pairs, t: mec_improved(mgr, model, t),
    ),
    (
        mdp_instance,
        lambda mgr, model, pairs, _: streett_mdp_basic(mgr, model, pairs),
        lambda mgr, model, pairs, t: streett_mdp_improved(mgr, model, pairs, t),
    ),
)


def _fields(counters):
    return " ".join(str(v) for v in counters.as_dict().values())


def pinned_lines():
    lines = []
    for instance, basic, improved in PROBLEMS:
        for seed in range(SEEDS):
            model, pairs = instance(seed)
            runs = [(basic, "-")] + [(improved, t) for t in THRESHOLDS]
            for run, threshold in runs:
                mgr = SymbolicManager.from_model(model)
                report = run(mgr, model, pairs, threshold)
                events = " ".join(f"{k}={v}" for k, v in sorted(report.events.items()))
                lines.append(
                    f"{report.algorithm} {threshold} {seed} | "
                    f"{report.result_text()} | {_fields(report.counters)} | "
                    f"{_fields(report.preprocessing)} | {events}"
                )
    return lines


def test_counters_match_pinned_file():
    want = PIN_FILE.read_text(encoding="utf-8").splitlines()
    got = pinned_lines()
    assert len(got) == len(want)
    moved = [(w, g) for w, g in zip(want, got) if w != g]
    assert not moved, f"{len(moved)} lines moved, first: {moved[0]}"


if __name__ == "__main__":
    PIN_FILE.write_text("\n".join(pinned_lines()) + "\n", encoding="utf-8")
