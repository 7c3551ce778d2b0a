#!/usr/bin/env python3
"""Benchmark of fairchk: basic versus improved solves on seeded workloads.

    python3 perfbench/run.py --workload chain-mdp --seed 0 --seconds 40 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a traced run (``--trace 1``).  Without ``--workload`` every workload runs,
each in a fresh process, followed by a table of all metrics.

A run builds its instances from the seed, times set-up (parsing the model
and pairs text, building the ``SymbolicManager``) several times, then solves
every instance with both variants on fresh managers in passes until
``--seconds`` are used up.  Every time is divided by that of a fixed probe
computation timed around it, so that drifts of the host's speed cancel out.
Every result is checked outside the timed region; see NOTES.md for the
checks, the probe, the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

VARIANTS = ("basic", "improved")
EVENTS = ("rescc", "remec", "lockstep", "bad_rounds", "accepted")

# Set-up takes this share of a run's time.  It runs before every solve of
# an instance until it has caught up with that share, so that its samples
# span the run like the solves do.  The traced run sets up once, for
# SETUP_SECONDS.
SETUP_SHARE = 0.1
SETUP_SECONDS = 1.5
# Solve passes per run, at least; more while --seconds allow.
MIN_PASSES = 3
# In each pass the improved solve of an instance repeats until it has run
# for this share of the basic solve's time, so that the faster variant
# gets enough samples for a steady statistic.
IMPROVED_SHARE = 0.15

# The host's speed drifts between levels up to 2x apart, for seconds to
# minutes at a time, so raw times drift with it from run to run.  A fixed
# reference computation, the probe, is therefore timed right before and
# right after every solve and set-up, and each time metric is the median
# over its samples of sample time / mean probe time, times PROBE_REF_S.
# PROBE_REF_S is about the probe's time on the machine the benchmark was
# built on when that machine ran fast, so the metrics read as seconds at
# that speed.  See NOTES.md for the measurements behind this.
PROBE_REF_S = 0.003
PROBE_MASK = (1 << 4096) - 1


def probe_seconds() -> float:
    """Time the probe: dict updates on tuple keys and shifts of a big integer.

    The garbage collector is off meanwhile, so that a collection of the
    objects a solve left behind never lands in the probe.
    """
    gc.disable()
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(4000):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + 1
        acc = ((acc << 3) | (i & 7)) & PROBE_MASK
        acc ^= acc >> 17
    seconds = time.perf_counter() - t0
    gc.enable()
    return seconds


def scaled_median(samples) -> float:
    """Median of seconds / probe seconds over (seconds, probe seconds) pairs, as seconds."""
    return statistics.median(t / p for t, p in samples) * PROBE_REF_S


# Per-layer metrics reported once per variant as <name>.basic and
# <name>.improved; names ending in _s are seconds, the rest counts.
LAYER_METRICS = (
    "symbolic.self_s", "symbolic.pre_ops", "symbolic.post_ops",
    "symbolic.cpre_ops", "symbolic.set_ops", "symbolic.card_ops",
    "symbolic.pick_ops",
    "bitset.self_s",
    "obdd.self_s", "obdd.nodes", "obdd.cache_entries",
    "scc.self_s", "scc.all_sccs_s", "scc.all_sccs.calls", "scc.lock_step_s",
    "scc.lock_step.calls", "scc.lock_step.rounds", "scc.lock_step.searches",
    "reach.self_s", "reach.attractor_s", "reach.attractor.calls",
    "reach.final_s",
    "model.self_s", "model.bad_vertices_s", "model.bad_vertices.calls",
    "mec.self_s", "mec.decomposition_s", "mec.decomposition.calls",
    "control.self_s",
    "phase.prep_steps", "phase.refine_steps", "phase.final_steps",
    "phase.prep_s", "phase.refine_s", "phase.final_s",
    *(f"events.{e}" for e in EVENTS),
    "trace.solve_s", "trace.overhead_s",
)
# Per-layer metrics of the set-up, not split by variant.
SETUP_METRICS = ("setup.parse_s", "setup.manager_s", "obdd.setup_s")
# Table sizes are the largest seen after any solve; the rest are sums.
MAX_METRICS = ("obdd.nodes", "obdd.cache_entries")


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    """One workload run: its instances and the tally of checked solves."""

    def __init__(self, workload, seed, smoke):
        from fairchk import serialize_model, serialize_pairs

        self.wl = workload
        self.solvers = workload.solvers()
        self.instances = []
        size = workload.smoke_size if smoke else {}
        for s in workload.instance_seeds(seed):
            model, pairs = workload.build(s, **size)
            self.instances.append({
                "seed": s, "model": model, "pairs": pairs,
                "model_text": serialize_model(model),
                "pairs_text": None if pairs is None else serialize_pairs(pairs),
            })
        self.digests = None
        if workload.stored_digests and not smoke:
            from workloads import load_digests

            self.digests = load_digests()
        self.attempted = 0
        self.failed = 0
        self.last_probe = None  # mean probe seconds around the latest solve
        self.failures = []  # set-up or check failures outside the solve tally

    # -- set-up --------------------------------------------------------

    def measure_setup(self, instances, seconds, samples, split_backend=False):
        """Set up `instances` in rounds for at least `seconds`, at least once.

        Adds parse and manager seconds, and (total seconds, mean probe
        seconds) pairs, to the lists in `samples`, and returns the seconds
        spent.
        With `split_backend`, OBDD workloads also time building the backend
        alone (node tables and edge relation), as ``backend``.
        """
        from fairchk import SymbolicManager, parse_model, parse_pairs
        from fairchk.obdd import ObddBackend

        clock = time.perf_counter
        start = clock()
        while True:
            for inst in instances:
                gc.collect()
                before = probe_seconds()
                t0 = clock()
                model = parse_model(inst["model_text"])
                pairs = None
                if inst["pairs_text"] is not None:
                    pairs = parse_pairs(inst["pairs_text"], model.n)
                t1 = clock()
                mgr = SymbolicManager.from_model(model, backend=self.wl.backend)
                t2 = clock()
                del mgr
                samples["total"].append((t2 - t0, (before + probe_seconds()) / 2))
                samples["parse"].append(t1 - t0)
                samples["manager"].append(t2 - t1)
                if model != inst["model"] or pairs != inst["pairs"]:
                    self.failures.append(f"instance {inst['seed']}: parsed text differs")
                if split_backend and self.wl.backend == "obdd":
                    t0 = clock()
                    backend = ObddBackend(model.n, model.edges, model.random_vertices)
                    t1 = clock()
                    del backend
                    samples["backend"].append(t1 - t0)
            if clock() - start >= seconds:
                return clock() - start

    # -- solves --------------------------------------------------------

    def solve(self, inst, variant, backend=None, tracer=None):
        """One solve on a fresh manager: (report, seconds, table sizes).

        The table sizes are the OBDD node count and apply-cache entries
        after the solve, (0, 0) on bitsets.  Raises what the solve raises.
        """
        from fairchk import SymbolicManager

        fn = self.solvers[variant]
        # Managers hold reference cycles: free earlier ones first, so that
        # neither their memory nor their collection reaches this solve.
        gc.collect()
        mgr = SymbolicManager.from_model(inst["model"], backend=backend or self.wl.backend)
        args = (mgr, inst["model"], inst["pairs"])
        before = probe_seconds()
        if tracer is not None:
            with tracer:
                report = tracer.solve(fn, *args)
            seconds = tracer.solve_s
        else:
            t0 = time.perf_counter()
            report = fn(*args)
            seconds = time.perf_counter() - t0
        self.last_probe = (before + probe_seconds()) / 2
        dd = getattr(mgr._b, "dd", None)
        tables = (0, 0) if dd is None else (len(dd.level), len(dd._cache))
        return report, seconds, tables

    def expected_digest(self, inst) -> str:
        from workloads import digest

        if self.digests is not None:
            return self.digests[str(inst["seed"])]
        return digest(self.wl.oracle_answer(inst["model"], inst["pairs"]))

    def reference(self, inst, reports) -> dict:
        """Check both variants' first reports; return them as references.

        A report fails if its result differs from the oracle or from the
        other variant, or, on OBDD, if its result or counters differ from a
        bitset solve of the same instance.
        """
        from workloads import answer, digest

        expected = self.expected_digest(inst)
        answers = {v: answer(r) for v, r in reports.items()}
        refs = {}
        for variant, report in reports.items():
            ok = digest(answers[variant]) == expected
            ok = ok and all(a == answers[variant] for a in answers.values())
            if self.wl.backend == "obdd":
                twin, _, _ = self.solve(inst, variant, backend="bitset")
                ok = ok and signature(twin) == signature(report)
            refs[variant] = signature(report)
            self.tally(ok, f"instance {inst['seed']} {variant}: check failed")
        return refs

    def tally(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.wl.name}: {message}", file=sys.stderr)

    def try_solve(self, inst, variant, **kwargs):
        """`solve`, with an exception reported and counted as a failed solve."""
        try:
            return self.solve(inst, variant, **kwargs)
        except Exception:
            traceback.print_exc()
            self.tally(False, f"instance {inst['seed']} {variant}: raised")
            return None


def signature(report):
    """Result and counters of a report, for identity checks."""
    from workloads import answer

    return (
        answer(report),
        report.counters.as_dict(),
        report.preprocessing.as_dict(),
        report.events,
    )


# -- untraced run: end-to-end metrics -------------------------------------


def setup_samples() -> dict:
    return {"total": [], "parse": [], "manager": [], "backend": []}


def run_measure(run: Run, seed: int, seconds: float) -> dict:
    setup = setup_samples()
    n = len(run.instances)
    times = {(i, v): [] for i in range(n) for v in VARIANTS}  # (seconds, mean probe seconds)
    stamps = []  # (instance seed, variant, end within the run, seconds, mean probe seconds)
    refs = [None] * n
    steps = [None] * n  # per instance: variant -> (main steps, prep steps)
    clock = time.perf_counter
    start = clock()
    setup_spent = 0.0
    passes = 0
    last_pass = 0.0
    while passes < MIN_PASSES or clock() - start + last_pass <= seconds:
        p0 = clock()
        for i, inst in enumerate(run.instances):
            owed = SETUP_SHARE * (clock() - start) - setup_spent
            setup_spent += run.measure_setup([inst], owed, setup)
            out, probes = {}, {}
            for v in VARIANTS:
                out[v] = run.try_solve(inst, v)
                probes[v] = run.last_probe
            if None in out.values():
                continue
            reports = {v: out[v][0] for v in VARIANTS}
            for v in VARIANTS:
                times[i, v].append((out[v][1], probes[v]))
                stamps.append((inst["seed"], v, round(clock() - start, 3), out[v][1], probes[v]))
            budget = IMPROVED_SHARE * out["basic"][1] - out["improved"][1]
            if refs[i] is None:
                refs[i] = run.reference(inst, reports)
                steps[i] = {v: (r.main_steps, r.preprocessing.headline)
                            for v, r in reports.items()}
            else:
                for v in VARIANTS:
                    run.tally(signature(reports[v]) == refs[i][v],
                              f"instance {inst['seed']} {v}: result or counters changed")
            while budget > 0:
                extra = run.try_solve(inst, "improved")
                if extra is None:
                    break
                report, solve_s, _ = extra
                times[i, "improved"].append((solve_s, run.last_probe))
                stamps.append((inst["seed"], "improved", round(clock() - start, 3), solve_s,
                               run.last_probe))
                budget -= solve_s
                run.tally(signature(report) == refs[i]["improved"],
                          f"instance {inst['seed']} improved: result or counters changed")
        passes += 1
        last_pass = clock() - p0
    if any(r is None for r in refs):
        raise RuntimeError("an instance has no successful solve of both variants")

    print(f"{run.wl.name}: {n} instance(s) on {run.wl.backend}, "
          f"{passes} passes in {clock() - start:.1f} s")
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"samples-{run.wl.name}-seed{seed}.json"
    out_file.write_text(json.dumps({"solves": stamps, "setups": setup["total"]}))
    print(f"  every solve and set-up time written to {out_file.relative_to(ROOT)}")
    for i, inst in enumerate(run.instances):
        line = "; ".join(
            f"{v} {steps[i][v][0]} steps (prep {steps[i][v][1]}),"
            f" {scaled_median(times[i, v]):.4f} s"
            f" ({statistics.median(t for t, _ in times[i, v]):.4f} s unscaled)"
            f" over {len(times[i, v])} solves"
            for v in VARIANTS
        )
        print(f"  instance seed {inst['seed']}: {line}")
    per_solve = {
        v: statistics.fmean(scaled_median(times[i, v]) for i in range(n))
        for v in VARIANTS
    }
    metrics = {
        "basic_s": metric(per_solve["basic"], "s"),
        "improved_s": metric(per_solve["improved"], "s"),
        "setup_s": metric(scaled_median(setup["total"]), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "basic_steps": metric(sum(st["basic"][0] for st in steps), "count"),
        "improved_steps": metric(sum(st["improved"][0] for st in steps), "count"),
    }
    print(f"  setup_s is the scaled median of {len(setup['total'])} set-ups "
          f"({statistics.median(t for t, _ in setup['total']):.4f} s unscaled); basic_s and "
          "improved_s average over the instances the scaled median of their solves")
    return metrics


# -- traced run: per-layer metrics ------------------------------------------


def run_trace(run: Run, seed: int) -> dict:
    from tracing import Tracer

    setup = setup_samples()
    run.measure_setup(run.instances, SETUP_SECONDS, setup, split_backend=True)
    values = {v: dict.fromkeys(LAYER_METRICS, 0) for v in VARIANTS}
    spans = []
    for inst in run.instances:
        plain = {}
        for v in VARIANTS:
            out = run.try_solve(inst, v)
            if out is None:
                continue
            plain[v], plain_s, _ = out
            tracer = Tracer()
            traced = run.try_solve(inst, v, tracer=tracer)
            if traced is None:
                continue
            report, solve_s, tables = traced
            run.tally(signature(report) == signature(plain[v]),
                      f"instance {inst['seed']} {v}: tracing changed the result or counters")
            acc = values[v]
            for name, value in layer_values(tracer, report, tables).items():
                acc[name] = max(acc[name], value) if name in MAX_METRICS else acc[name] + value
            acc["trace.overhead_s"] += solve_s - plain_s
            spans.append(tracer.spans_jsonl({"instance": inst["seed"], "variant": v}))
        if len(plain) == len(VARIANTS):
            run.reference(inst, plain)

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"trace-{run.wl.name}-seed{seed}.jsonl"
    out_file.write_text("".join(spans))
    print(f"{run.wl.name}: spans written to {out_file.relative_to(ROOT)}")
    metrics = {
        f"{name}.{v}": metric(values[v][name], unit_of(name))
        for name in LAYER_METRICS for v in VARIANTS
    }
    metrics["setup.parse_s"] = metric(statistics.median(setup["parse"]), "s")
    metrics["setup.manager_s"] = metric(statistics.median(setup["manager"]), "s")
    backend_s = statistics.median(setup["backend"]) if setup["backend"] else 0.0
    metrics["obdd.setup_s"] = metric(backend_s, "s")
    return metrics


def layer_values(tracer, report, tables) -> dict:
    c = report.counters
    phases = tracer.phases()
    span_s = tracer.span_s
    calls = tracer.calls
    values = {f"{layer}.self_s": tracer.self_s[layer] for layer in tracer.self_s}
    values.update({
        "symbolic.pre_ops": c.pre_ops,
        "symbolic.post_ops": c.post_ops,
        "symbolic.cpre_ops": c.cpre_ops,
        "symbolic.set_ops": c.set_ops,
        "symbolic.card_ops": c.cardinality_ops,
        "symbolic.pick_ops": c.pick_ops,
        "obdd.nodes": tables[0],
        "obdd.cache_entries": tables[1],
        "scc.all_sccs_s": span_s.get("all_sccs", 0.0),
        "scc.all_sccs.calls": calls.get("all_sccs", 0),
        "scc.lock_step_s": span_s.get("lock_step", 0.0),
        "scc.lock_step.calls": calls.get("lock_step", 0),
        "scc.lock_step.rounds": tracer.lock_step_rounds,
        "scc.lock_step.searches": tracer.lock_step_searches,
        "reach.attractor_s": span_s.get("attractor", 0.0),
        "reach.attractor.calls": calls.get("attractor", 0),
        "reach.final_s": span_s.get("final", 0.0),
        "model.bad_vertices_s": span_s.get("bad_vertices", 0.0),
        "model.bad_vertices.calls": calls.get("bad_vertices", 0),
        "mec.decomposition_s": span_s.get("decomposition", 0.0),
        "mec.decomposition.calls": calls.get("decomposition", 0),
        "phase.prep_steps": report.preprocessing.headline,
        "phase.refine_steps": report.main_steps - tracer.final_steps,
        "phase.final_steps": tracer.final_steps,
        "phase.prep_s": phases["prep"],
        "phase.refine_s": phases["refine"],
        "phase.final_s": phases["final"],
        "trace.solve_s": tracer.solve_s,
    })
    values.update({f"events.{e}": report.events.get(e, 0) for e in EVENTS})
    return values


# -- entry points -------------------------------------------------------------


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.smoke)
    if args.trace:
        metrics = run_trace(run, args.seed)
    else:
        metrics = run_measure(run, args.seed, args.seconds)
    for message in run.failures:
        print(f"FAILED {run.wl.name}: {message}", file=sys.stderr)
    correct = run.failed == 0 and not run.failures
    print(f"  fail_rate {run.failed / run.attempted:.4f} ratio "
          f"({run.failed} failed / {run.attempted} attempted solves)")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        rate = result["failed"] / result["attempted"]
        rows.append((name, "fail_rate", rate, "ratio"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    print()
    for name, key, value, unit in rows:
        print(f"{name:<16} {key:<32} {value:>14.6g} {unit}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; all of them when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="small instances, for the benchmark's self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairchk" / "__init__.py").is_file():
        print(f"fairchk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
