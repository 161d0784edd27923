"""Smoke test of the benchmark itself, at toy size (about 15 s).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload through run.py in both modes and checks the printed
metric names against BENCHMARK.json, checks that each correctness gate
rejects a corrupted result, and that the benchmark refuses to run in a
directory without the library.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = workloads.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_declared_metrics(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:  # at toy size every workload runs on one thread
        assert result["metrics"]["trace.self_sum_frac"]["value"] == pytest.approx(1.0, abs=1e-12)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def cf():
    return workloads.import_library()


def test_capacity_gate_rejects_shifted_value(cf):
    wl = workloads.WORKLOADS["capacity-sweep"]
    family, fb = wl._problem(cf)
    rep = cf.compute_Cn(family, fb, 2, cf.SolverConfig(max_iters=20, restarts=0, seed=0))
    memo = {}
    assert wl.check_report(cf, 0, "toy", rep.n, rep.C_n_nats, rep.policy, memo) == []
    assert wl.check_report(cf, 0, "toy", rep.n, rep.C_n_nats + 1e-3, rep.policy, memo)
    assert wl.check_report(cf, 0, "toy", rep.n, rep.C_n_nats - 1e-3, rep.policy, memo)
    # a policy worse than uniform is caught even when its value is reported honestly
    bad = cf.CausalConditioning(horizon=rep.n, x_card=2, z_card=fb.z_card, conditionals=tuple(
        np.tile([1.0, 0.0], (c.shape[0], 1)) for c in rep.policy.conditionals))
    value = min(cf.directed_information(bad, m, s, fb).value_nats / rep.n for s in range(2) for _, m in family)
    problems = wl.check_report(cf, 0, "toy", rep.n, value, bad, memo)
    assert len(problems) == 1 and "uniform" in problems[0]


def test_capacity_gate_checks_recorded_value(cf):
    wl = workloads.WORKLOADS["capacity-sweep"]
    family = cf.load_preset("ge-gap")
    fb = cf.identity_feedback(family.members[0].outputs)
    q = cf.CausalConditioning(horizon=1, x_card=2, z_card=fb.z_card, conditionals=([[0.9, 0.1]],))
    value = min(cf.directed_information(q, m, s, fb).value_nats for s in range(2) for _, m in family)
    assert value < workloads.REFERENCE_C_N[1]
    assert any("recorded" in p for p in wl.check_report(cf, 0, "full", 1, value, q, {}))
    assert not any("recorded" in p for p in wl.check_report(cf, 1, "full", 1, value, q, {}))


def test_simulate_gate_rejects_flipped_decisions(cf):
    wl = workloads.WORKLOADS["simulate-ml"]
    inputs = wl.setup(cf, 0, "toy", None)
    res = cf.run_trials(inputs["cfg"])
    memo = {}
    assert wl.check_trials(cf, 0, "toy", res.errors, res.trials, res.messages, res.decisions, memo) == []
    flipped = (res.decisions + 1) % inputs["cfg"].codebook.m_count
    errors = int((flipped != res.messages).sum())
    problems = wl.check_trials(cf, 0, "toy", errors, res.trials, res.messages, flipped, memo)
    assert len(problems) == 1 and "outside" in problems[0]
    problems = wl.check_trials(cf, 0, "toy", res.errors, res.trials, res.messages, flipped, memo)
    assert any("decisions give" in p for p in problems)


def test_verify_gate_rejects_failed_suite():
    wl = workloads.WORKLOADS["verify-all"]
    checks = [{"name": s, "passed": True, "detail": ""} for s in ("sanov", "state-gap")]
    assert wl.gate(None, 0, "toy", {"checks": checks}, {}) == []
    checks[1]["passed"] = False
    assert len(wl.gate(None, 0, "toy", {"checks": checks}, {})) == 1


def test_refuses_without_library():
    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / "perfbench" / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench(bare, "capacity-sweep", 0)
        assert proc.returncode != 0
        assert "metrics" not in proc.stdout
    finally:
        shutil.rmtree(bare)
