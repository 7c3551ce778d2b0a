"""Per-layer spans of one solve, recorded from outside the package.

The algorithm modules import their helpers by name, so a helper is wrapped
at each caller's binding (``fairchk.mec.all_sccs``,
``fairchk.streett_mdp.lock_step_search``, ...), not only where it is
defined.  Manager and backend methods are wrapped on their classes.  Every
patch is undone when the :class:`Tracer` context exits.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  The solve itself
is the root span of layer ``control``, so the layer self times add up to
the traced solve time.  Manager and backend calls are too many to keep one
by one: they add to their layer's self time and to the parent's child time
only.  Every other span is kept as (name, layer, start, end, parent) for
:meth:`Tracer.spans_jsonl`.
"""

from __future__ import annotations

import json
import time

from fairchk import mec, reach, streett_graph, streett_mdp
from fairchk.obdd import ObddBackend
from fairchk.symbolic import SymbolicManager, _BitsetBackend

LAYERS = ("symbolic", "bitset", "obdd", "scc", "reach", "model", "mec", "control")

MANAGER_METHODS = (
    "empty", "from_ids", "singleton", "to_ids", "is_empty", "contains",
    "min_vertex", "snapshot_counters", "pre", "post", "cpre_random", "union",
    "intersect", "difference", "complement", "cardinality", "pick",
)
BACKEND_METHODS = (
    "empty", "universe", "from_ids", "to_ids", "pre", "post", "cpre_random",
    "union", "intersect", "difference", "complement", "card", "min_vertex",
    "is_empty",
)

# (layer, span name, function, modules whose global binding is wrapped).
# mec_decomposition is a layer of its own only where the MDP fairness
# algorithms call it; under mec_basic/mec_improved it is the refinement
# loop itself, which belongs to ``control``.
CALLER_BINDINGS = (
    ("scc", "all_sccs", "all_sccs", (mec, streett_graph, streett_mdp)),
    ("scc", "lock_step", "lock_step_search", (mec, streett_graph, streett_mdp)),
    ("reach", "attractor", "random_attractor", (mec, streett_mdp)),
    ("reach", "final", "reach_backward", (streett_graph,)),
    ("reach", "final", "almost_sure_reach", (streett_mdp,)),
    ("reach", "reach_backward", "reach_backward", (reach,)),
    ("model", "bad_vertices", "bad_vertices", (streett_graph, streett_mdp)),
    ("model", "pair_sets", "pair_sets", (streett_graph, streett_mdp)),
    ("mec", "decomposition", "mec_decomposition", (streett_mdp,)),
)


class Tracer:
    """Patches the layers on entry, records one solve, restores on exit."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.span_s = {}  # span name -> summed duration
        self.calls = {}  # span name -> count
        self.lock_step_rounds = 0
        self.lock_step_searches = 0
        self.final_steps = 0
        self.solve_start = self.prep_end = None
        self.solve_s = 0.0
        self._spans = []  # (name, layer, start, end, parent index, extra)
        self._stack = [[0.0, None]]  # frames: [child time, span index]
        self._saved = []

    def __enter__(self):
        try:
            for cls, layer, names in (
                (SymbolicManager, "symbolic", MANAGER_METHODS),
                (_BitsetBackend, "bitset", BACKEND_METHODS),
                (ObddBackend, "obdd", BACKEND_METHODS),
            ):
                for name in names:
                    self._patch(cls, name, self._leaf(layer, cls.__dict__[name]))
            for layer, span, fname, modules in CALLER_BINDINGS:
                for module in modules:
                    self._patch(module, fname, self._span(layer, span, getattr(module, fname)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _leaf(self, layer, fn):
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                stack[-1][0] += dur

        return wrapper

    def _span(self, layer, name, fn):
        def wrapper(*args, **kwargs):
            extra = {}
            if name == "lock_step" and kwargs.get("trace") is None:
                kwargs["trace"] = extra["rounds"] = []
            if name == "final":
                steps_before = args[0].counters.headline
            parent = self._stack[-1]
            frame = [0.0, len(self._spans)]
            self._spans.append(None)
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                self.self_s[layer] += dur - frame[0]
                parent[0] += dur
                self._spans[frame[1]] = (name, layer, t0, t1, parent[1], extra)
                self.span_s[name] = self.span_s.get(name, 0.0) + dur
                self.calls[name] = self.calls.get(name, 0) + 1
                if "rounds" in extra and extra["rounds"]:
                    first = extra["rounds"][0]
                    self.lock_step_rounds += len(extra["rounds"])
                    self.lock_step_searches += first["live_in"] + first["live_out"]
                if name == "final":
                    self.final_steps += args[0].counters.headline - steps_before
                if name == "all_sccs" and self.prep_end is None:
                    self.prep_end = t1

        return wrapper

    def solve(self, fn, *args):
        """Run `fn(*args)` as the root span; returns its result."""
        frame = [0.0, len(self._spans)]
        self._spans.append(None)
        self._stack.append(frame)
        t0 = self.solve_start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.solve_s = t1 - t0
            self.self_s["control"] += self.solve_s - frame[0]
            self._spans[frame[1]] = ("solve", "control", t0, t1, None, {})

    def phases(self) -> dict:
        """Seconds spent before the first SCC split ends, in the final
        reachability, and in between."""
        prep = self.prep_end - self.solve_start if self.prep_end else 0.0
        final = self.span_s.get("final", 0.0)
        return {"prep": prep, "refine": self.solve_s - prep - final, "final": final}

    def spans_jsonl(self, tag: dict) -> str:
        lines = []
        for i, (name, layer, t0, t1, parent, extra) in enumerate(self._spans):
            record = {**tag, "id": i, "name": name, "layer": layer,
                      "start": t0, "end": t1, "parent": parent, **extra}
            lines.append(json.dumps(record))
        return "\n".join(lines) + "\n"
