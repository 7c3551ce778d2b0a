"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Pins the seed-0 step counters of the two headline workloads on both
backends, recomputes one stored oracle answer, runs a small smoke mode of
every workload in both modes, and checks that the output matches
BENCHMARK.json.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import fairchk  # noqa: E402
from fairchk import SymbolicManager  # noqa: E402
from run import LAYER_METRICS, SETUP_METRICS, VARIANTS  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import FEW_PAIRS_POOL, WORKLOADS, digest, load_digests  # noqa: E402

# workload -> (basic main steps, improved main steps, preprocessing steps)
PINNED = {
    "chain-mdp": (368_643, 3_905, 1_538),
    "ladder-mec-obdd": (207_402, 1_664, 3_197),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("backend", ["bitset", "obdd"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed0_counters(name, backend):
    wl = WORKLOADS[name]
    model, pairs = wl.build(0)
    basic, improved, prep = PINNED[name]
    for variant, steps in (("basic", basic), ("improved", improved)):
        mgr = SymbolicManager.from_model(model, backend=backend)
        report = wl.solvers()[variant](mgr, model, pairs)
        assert (report.main_steps, report.preprocessing.headline) == (steps, prep)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_seed0_solves_the_pinned_instance(name):
    assert WORKLOADS[name].instance_seeds(0)[0] == 0


def test_stored_oracle_answer_recomputes():
    wl = WORKLOADS["few-pairs-graph"]
    model, pairs = wl.build(7)
    assert digest(wl.oracle_answer(model, pairs)) == load_digests()["7"]


def test_stored_answers_are_not_trivial():
    # Equal answers on every instance would mean a shared answer such as
    # "every vertex wins", which a solve that wins too much also gives.
    stored = load_digests()
    assert len(set(stored.values())) == len(stored)
    wl = WORKLOADS["few-pairs-graph"]
    model, pairs = wl.build(0, **wl.smoke_size)
    assert 0 < len(wl.oracle_answer(model, pairs)) < model.n


def test_every_run_seed_has_stored_answers():
    stored = load_digests()
    assert len(stored) == FEW_PAIRS_POOL
    for seed in range(-5, 100):
        for s in WORKLOADS["few-pairs-graph"].instance_seeds(seed):
            assert str(s) in stored


def test_instances_depend_only_on_the_seed():
    for wl in WORKLOADS.values():
        for seed in (0, 5):
            built = [wl.build(s, **wl.smoke_size) for s in wl.instance_seeds(seed)]
            again = [wl.build(s, **wl.smoke_size) for s in wl.instance_seeds(seed)]
            assert built == again
            for model, pairs in built:
                model.validate()
                if pairs is not None:
                    pairs.validate(model.n)


def test_benchmark_json_names(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    expected = {f"{n}.{v}" for n in LAYER_METRICS for v in VARIANTS} | set(SETUP_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == expected


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name, trace, spec):
    proc = bench("--workload", name, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    values = {k: m["value"] for k, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    for v in VARIANTS:
        total = sum(values[f"{layer}.self_s.{v}"] for layer in LAYERS)
        assert total == pytest.approx(values[f"trace.solve_s.{v}"], rel=1e-9)
        assert values[f"control.self_s.{v}"] >= 0


def test_tracer_restores_every_patch():
    wl = WORKLOADS["chain-mdp"]
    model, pairs = wl.build(0, **wl.smoke_size)
    before = (SymbolicManager.pre, fairchk.streett_mdp.mec_decomposition,
              fairchk.streett_mdp.lock_step_search, fairchk.reach.reach_backward)
    tracer = Tracer()
    with tracer:
        mgr = SymbolicManager.from_model(model)
        tracer.solve(fairchk.streett_mdp_improved, mgr, model, pairs)
    after = (SymbolicManager.pre, fairchk.streett_mdp.mec_decomposition,
             fairchk.streett_mdp.lock_step_search, fairchk.reach.reach_backward)
    assert after == before
    assert tracer.calls["lock_step"] == 1 and tracer.lock_step_rounds > 0


def test_all_workloads_in_one_command():
    proc = bench("--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    for name in WORKLOADS:
        assert re.search(rf"^{name} +fail_rate +0 ratio$", proc.stdout, re.M)
        assert re.search(rf"^{name} +basic_s +\S+ s$", proc.stdout, re.M)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "chain-mdp", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
