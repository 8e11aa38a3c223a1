"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/tests -q        # from the root of a checkout
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import TARGETS, Tracer, patched  # noqa: E402


def tiny(name, K):
    return dataclasses.replace(W.WORKLOADS[name], overrides={"K": K})


def originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}


def test_patched_restores_every_attribute():
    before = originals()
    tracer = Tracer()
    case = W.build_case(tiny("sin-opt", 2), 0, 0)
    with patched(tracer):
        assert all(getattr(importlib.import_module(m), a) is not f
                   for (m, a), f in before.items())
        tracer.call("solver.solve", W.run_solve, tracer.counting_problem(case.bench.problem), case)
    assert originals() == before
    with pytest.raises(RuntimeError):
        with patched(tracer):
            raise RuntimeError("boom")
    after = originals()
    assert all(after[k] is before[k] for k in before)
    assert not tracer._stack


def test_tiny_solve_counts_are_exact_and_repeatable(tmp_path):
    K = 3
    res = [run.run_traced(tiny("sin-opt", K), 0, tmp_path) for _ in range(2)]
    timings = {k for k, u in run.per_layer_units().items() if u == "s"} | {
        "problems.oracle.share", "trace.overhead_ratio"}
    counts = [{k: v for k, v in r["metrics"].items() if k not in timings} for r in res]
    assert counts[0] == counts[1]
    m = counts[0]
    T_z, T_y = 50, 25
    assert m["solver.y_solve.grads"] == K * T_y
    assert m["solver.y_solve.short_stages"] == 0
    assert m["solver.z_solve.grads"] == (K + 1) * T_z  # K stages plus the final polish
    assert m["solver.z_solve.evals"] == K + 1
    assert m["core.field.calls.solve.F_ul.val"] == K + 2  # start, each stage, polish
    assert m["core.field.calls.chain_rule.F_ul.gx"] == K
    assert m["core.field.calls.chain_rule.f_ll.gx"] == 2 * K
    assert m["solver.ul_retries"] == 0
    assert m["core.field.calls.y_solve.F_ul.val"] == m["solver.y_solve.evals"]
    assert res[0]["unlisted"] == []


def test_traced_solve_matches_plain_on_constrained_branch():
    case = W.build_case(tiny("sin-con", 5), 0, 0)
    plain = W.run_solve(case.bench.problem, case)
    tracer = Tracer()
    with patched(tracer):
        traced = tracer.call("solver.solve", W.run_solve,
                             tracer.counting_problem(case.bench.problem), case)
    assert W.trace_digest(plain) == W.trace_digest(traced)
    metrics = run.layer_metrics(tracer, 1, case.cfg, {m: {} for m in W.STEP_METHODS})
    assert metrics["core.field.calls.z_solve.h_ll.val"] > 0
    assert run.unlisted_calls(tracer) == []


def test_traced_steps_match_plain(tmp_path):
    res = run.run_traced(dataclasses.replace(W.WORKLOADS["step-n1000"], steps=2,
                                             trace_units=1), 0, tmp_path)
    assert res["tally"].failed == 0 and res["tally"].attempted == 6
    m = res["metrics"]
    assert m["solver.y_solve.grads"] == 25
    assert m["baselines.cg.hvps_per_step"] == 2 and m["baselines.cg.breakdown_rate"] == 1.0
    assert res["unlisted"] == []


def test_seed_changes_only_hyperclean_data():
    for name, wl in W.WORKLOADS.items():
        a, b = W.build_case(wl, 0, 0), W.build_case(wl, 1, 0)
        x, y = a.x0 + 0.1, a.y0 + 0.1
        same = (a.cfg == b.cfg and np.array_equal(a.x0, b.x0) and np.array_equal(a.y0, b.y0)
                and a.bench.problem.f(x, y) == b.bench.problem.f(x, y)
                and a.bench.problem.F(x, y) == b.bench.problem.F(x, y))
        assert same == (name != "hyperclean"), name
    from bvfsm import make_hyperclean_problem

    a10 = make_hyperclean_problem(seed=0)
    case = W.build_case(W.WORKLOADS["hyperclean"], 0, 0)
    assert case.bench.params == a10.params


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sin-opt",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
