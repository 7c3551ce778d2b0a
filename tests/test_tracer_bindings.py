"""The per-layer tracer of the benchmark sees every kernel call.

`perfbench/tracing.py` wraps each kernel at the binding of the module that
calls it (``fairchk.streett_graph.all_sccs``, ``fairchk.mec.random_attractor``,
...).  A loop that reached a kernel some other way, say by importing it
itself, would run it untraced.  Here each of the six algorithms runs under
the tracer, and the tracer's call count of each kernel must equal the
number of times that kernel's code ran, counted with :func:`sys.setprofile`.
The traced run must also give the untraced results, counters and events.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from fairchk import (  # noqa: E402
    SymbolicManager,
    mec_basic,
    mec_improved,
    streett_graph_basic,
    streett_graph_improved,
    streett_mdp_basic,
    streett_mdp_improved,
)
from fairchk.mec import mec_decomposition  # noqa: E402
from fairchk.refine import bad_vertices  # noqa: E402
from fairchk.reach import almost_sure_reach, random_attractor, reach_backward  # noqa: E402
from fairchk.scc import all_sccs, lock_step_search  # noqa: E402
from tracing import Tracer  # noqa: E402

from helpers import graph_instance, mdp_instance  # noqa: E402

SEEDS = range(40)
FORCE_LOCKSTEP = 10**9

# Tracer span name -> the kernel it stands for.
KERNELS = {
    "all_sccs": all_sccs,
    "lock_step": lock_step_search,
    "attractor": random_attractor,
    "bad_vertices": bad_vertices,
    "decomposition": mec_decomposition,
}
GRAPH = {"all_sccs", "bad_vertices", "final"}
MEC = {"all_sccs", "attractor"}
MDP = {"all_sccs", "bad_vertices", "attractor", "decomposition", "final"}

# (name, instance, run, final reachability, kernels the run calls).  The
# tracer wraps mec_decomposition only where the MDP fairness algorithms
# call it, so the MEC runs leave "decomposition" out.
ALGORITHMS = (
    ("streett-graph-basic", graph_instance,
     streett_graph_basic,
     reach_backward, GRAPH),
    ("streett-graph-improved", graph_instance,
     lambda mgr, m, p: streett_graph_improved(mgr, m, p, FORCE_LOCKSTEP),
     reach_backward, GRAPH | {"lock_step"}),
    ("mec-basic", mdp_instance,
     lambda mgr, m, p: mec_basic(mgr, m),
     None, MEC),
    ("mec-improved", mdp_instance,
     lambda mgr, m, p: mec_improved(mgr, m, FORCE_LOCKSTEP),
     None, MEC | {"lock_step"}),
    ("streett-mdp-basic", mdp_instance,
     streett_mdp_basic,
     almost_sure_reach, MDP),
    ("streett-mdp-improved", mdp_instance,
     lambda mgr, m, p: streett_mdp_improved(mgr, m, p, FORCE_LOCKSTEP),
     almost_sure_reach, MDP | {"lock_step"}),
)


def _code_calls(run, codes):
    """`run()` and the number of calls of each code object in `codes`."""
    calls = dict.fromkeys(codes, 0)
    code_names = {code: name for name, code in codes.items()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in code_names:
            calls[code_names[frame.f_code]] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(old)
    return result, calls


def _summary(report):
    return (report.result_text(), report.counters, report.preprocessing,
            report.events)


@pytest.mark.parametrize(
    "name, instance, run, final, spans", ALGORITHMS,
    ids=[a[0] for a in ALGORITHMS],
)
def test_tracer_sees_every_kernel_call(name, instance, run, final, spans):
    kernels = {**KERNELS, "final": final}
    codes = {span: kernels[span].__code__ for span in spans}
    totals = dict.fromkeys(spans, 0)
    for seed in SEEDS:
        model, pairs = instance(seed)
        untraced = run(SymbolicManager.from_model(model), model, pairs)
        mgr = SymbolicManager.from_model(model)
        with Tracer() as tracer:
            traced, ran = _code_calls(
                lambda: tracer.solve(run, mgr, model, pairs), codes
            )
        assert traced.algorithm == name
        assert _summary(traced) == _summary(untraced), seed
        seen = {span: tracer.calls.get(span, 0) for span in spans}
        assert seen == {span: ran[span] for span in spans}, seed
        for span in spans:
            totals[span] += ran[span]
    missing = {span for span in spans if totals[span] == 0}
    assert not missing, f"{name} never called {sorted(missing)} on these seeds"
