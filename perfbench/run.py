"""bvfsm benchmark: one workload per run, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload sin-opt --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15      # every workload in turn

Run from the root of a checkout; the library is imported from ``src``.  With
``--trace 0`` the run repeats units of work until ``--seconds`` have passed
(at least the workload's ``min_units``) and reports, for each timing, the
median over inputs of the fastest repeat on each input; README.md says why.
With ``--trace 1`` it runs a fixed number of primary operations twice,
plainly and traced, checks that both give the same numbers, and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the line before it holds details (quality values, margins to the acceptance
bars, digests, flags and the environment record).
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"  # the library, from the checkout the run starts in
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import numpy as np  # noqa: E402
import workloads as W  # noqa: E402
from bvfsm.cli import build_solver_config  # noqa: E402
from bvfsm.problems import parse_problem  # noqa: E402
from tracer import ROLE_TOKENS, Tracer, patched  # noqa: E402

SETUP_SAMPLES = 7
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import workloads as w\n"
    "w.build_case(w.WORKLOADS[sys.argv[1]], int(sys.argv[2]), 0)\n"
    "print(repr(time.perf_counter() - t0))\n"
)

END_TO_END = {  # name -> unit
    "solve_s": "s",
    "step_ms": "ms",
    "step_ms.cg": "ms",
    "step_ms.neumann": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Oracle calls each layer makes, as (layer, role, kind); see tracer.ROLE_TOKENS.
FIELD_CALLS = (
    ("solve", "F", "val"), ("solve", "f", "val"),
    ("z_solve", "f", "val"), ("z_solve", "f", "gy"),
    ("z_solve", "h", "val"), ("z_solve", "h", "gy"),
    ("y_solve", "F", "val"), ("y_solve", "F", "gy"),
    ("y_solve", "f", "val"), ("y_solve", "f", "gy"),
    ("y_solve", "h", "val"), ("y_solve", "h", "gy"),
    ("chain_rule", "F", "gx"), ("chain_rule", "f", "val"), ("chain_rule", "f", "gx"),
    ("chain_rule", "h", "val"), ("chain_rule", "h", "gx"),
    ("ll_descent", "f", "gy"), ("hvp", "f", "gy"),
    ("cg", "F", "gy"), ("cg", "F", "gx"), ("cg", "f", "gx"),
    ("neumann", "F", "gy"), ("neumann", "F", "gx"), ("neumann", "f", "gx"),
)


def field_metric(layer, role, kind):
    return f"core.field.calls.{layer}.{ROLE_TOKENS[role]}.{kind}"


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric, in report order."""
    units = {"solver.solve.s": "s", "solver.solve.self_s": "s"}
    for stage in ("z_solve", "y_solve"):
        units.update({f"solver.{stage}.s": "s", f"solver.{stage}.self_s": "s",
                      f"solver.{stage}.grads": "count", f"solver.{stage}.evals": "count",
                      f"solver.{stage}.evals_per_grad": "ratio"})
    units["solver.y_solve.short_stages"] = "count"
    units.update({"solver.chain_rule.s": "s", "solver.chain_rule.oracle_calls": "count",
                  "solver.ul_retries": "count", "problems.oracle.s": "s",
                  "problems.oracle.share": "ratio", "core.field.calls.total": "count"})
    units.update({field_metric(*key): "count" for key in FIELD_CALLS})
    units.update({"auxfun.schedule_step.s": "s", "baselines.ll_descent.s": "s",
                  "baselines.cg.s": "s", "baselines.neumann.s": "s",
                  "baselines.hvp.calls": "count", "baselines.cg.hvps_per_step": "count",
                  "baselines.neumann.hvps_per_step": "count",
                  "baselines.cg.breakdown_rate": "ratio",
                  "baselines.neumann.diverging_rate": "ratio",
                  "cli.build_solver_config.s": "s", "problems.build.s": "s",
                  "trace.overhead_ratio": "ratio"})
    return units


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up times from fresh interpreters: import bvfsm, build problem and config."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH_DIR), str(SRC)]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, name, str(seed)],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Operations attempted and failed, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def tail(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    out = {"n": n, "median": statistics.median(samples) if samples else None,
           "min": ordered[0] if samples else None}
    for p in (50.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            out["p"] = p
            out["value"] = ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return out


def typical(samples: list[tuple]) -> float:
    """Median over inputs of the fastest repeat on each input.

    Repeats of one input do the same work, so their fastest is the one that
    load on the machine disturbed least; different inputs do different work.
    """
    best = {}
    for key, t in samples:
        best[key] = min(t, best.get(key, math.inf))
    return statistics.median(best.values()) if best else math.nan


def run_plain(wl, seed: int, seconds: float) -> dict:
    """Repeat units of work until the time is up; return samples and outcomes."""
    tally = Tally()
    solve_s: list[tuple] = []  # (input, seconds)
    step_s = {m: [] for m in W.STEP_METHODS}
    flags = {m: Counter() for m in W.STEP_METHODS}
    outcomes, digests, grads = [], {}, {}
    start = time.perf_counter()
    unit = 0
    # A unit starts only if one more, at the mean pace so far, fits in the time.
    while unit < wl.min_units or (time.perf_counter() - start) * (unit + 1) / unit <= seconds:
        case = W.build_case(wl, seed, unit)
        problem = case.bench.problem

        def steps(count):
            for _ in range(count):
                for m in W.STEP_METHODS:
                    tally.attempted += 1
                    try:
                        t0 = time.perf_counter()
                        g, flag = W.run_step(problem, case, m)
                        step_s[m].append((case.data_seed, time.perf_counter() - t0))
                        flags[m][flag] += 1
                        first = grads.setdefault((case.data_seed, m), g)
                        if not (W.check_step(g) and np.array_equal(first, g)):
                            tally.fail(f"unit {unit}: {m} gradient non-finite or not repeatable")
                    except Exception:
                        tally.fail(f"unit {unit}: {m} step raised\n{traceback.format_exc(limit=3)}")

        # Steps on both sides of the solve sample two stretches of machine time.
        steps(wl.steps // 2)
        tally.attempted += 1
        try:
            t0 = time.perf_counter()
            trace = W.run_solve(problem, case)
            solve_s.append((case.data_seed, time.perf_counter() - t0))
            outcome = W.check_solve(wl, case, trace)
            digest = W.trace_digest(trace)
            if unit < wl.min_units:
                outcomes.append(outcome)
            if not outcome.ok:
                tally.fail(f"unit {unit}: solve missed its bar: {outcome.margins}")
            elif digests.setdefault(case.data_seed, digest) != digest:
                tally.fail(f"unit {unit}: trace differs from an earlier solve of the same input")
        except Exception:
            tally.fail(f"unit {unit}: solve raised\n{traceback.format_exc(limit=3)}")
        steps(wl.steps - wl.steps // 2)
        unit += 1
    return dict(tally=tally, solve_s=solve_s, step_s=step_s, flags=flags,
                outcomes=outcomes, digests=digests, units=unit)


def run_traced(wl, seed: int, out_dir: Path | None = None) -> dict:
    """The primary operation, plainly then traced, ``trace_units`` times."""
    tracer = Tracer()
    tally = Tally()
    plain_s = traced_s = 0.0
    n_ops = 0
    flags = {m: Counter() for m in W.STEP_METHODS}
    digests = {}
    case = None
    for unit in range(wl.trace_units):
        case = W.build_case(wl, seed, unit)
        problem = case.bench.problem
        counted = tracer.counting_problem(problem)
        if wl.primary == "solve":
            tally.attempted += 1
            n_ops += 1
            try:
                t0 = time.perf_counter()
                plain = W.run_solve(problem, case)
                t1 = time.perf_counter()
                with patched(tracer):
                    traced = tracer.call("solver.solve", W.run_solve, counted, case)
                t2 = time.perf_counter()
                plain_s += t1 - t0
                traced_s += t2 - t1
                digest = W.trace_digest(traced)
                digests[case.data_seed] = digest
                same = (W.trace_digest(plain) == digest
                        and repr((plain.final.rel_err_x, plain.final.rel_err_F))
                        == repr((traced.final.rel_err_x, traced.final.rel_err_F)))
                if not (same and W.check_solve(wl, case, traced).ok):
                    tally.fail(f"unit {unit}: traced solve differs from plain or missed its bar")
            except Exception:
                tally.fail(f"unit {unit}: solve raised\n{traceback.format_exc(limit=3)}")
            continue
        for _ in range(wl.steps):
            n_ops += 1
            for m in W.STEP_METHODS:
                tally.attempted += 1
                root = "solver.step" if m == "bvfsm" else f"baselines.step.{m.partition(':')[0]}"
                try:
                    t0 = time.perf_counter()
                    g0, f0 = W.run_step(problem, case, m)
                    t1 = time.perf_counter()
                    with patched(tracer):
                        g1, f1 = tracer.call(root, W.run_step, counted, case, m)
                    t2 = time.perf_counter()
                    plain_s += t1 - t0
                    traced_s += t2 - t1
                    flags[m][f1] += 1
                    if not (W.check_step(g1) and np.array_equal(g0, g1) and f0 == f1):
                        tally.fail(f"unit {unit}: traced {m} step differs from plain")
                except Exception:
                    tally.fail(f"unit {unit}: {m} step raised\n{traceback.format_exc(limit=3)}")

    metrics = layer_metrics(tracer, max(n_ops, 1), case.cfg, flags)
    metrics.update(build_times(wl, seed))
    metrics["trace.overhead_ratio"] = traced_s / plain_s if plain_s > 0 else 0.0
    out_dir = out_dir or BENCH_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_csv = out_dir / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write_csv(spans_csv)
    return dict(tally=tally, metrics=metrics, digests=digests, flags=flags,
                shares=layer_shares(tracer), unlisted=unlisted_calls(tracer),
                spans_csv=os.path.relpath(spans_csv), spans=len(tracer.spans))


def build_times(wl, seed: int) -> dict:
    """Median in-process times of problem construction and config building."""
    spec = wl.spec if wl.name != "hyperclean" else f"{wl.spec}:seed={W.data_seed(seed, 0)}"
    build, config = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        bench = parse_problem(spec)
        t1 = time.perf_counter()
        build_solver_config({"bvfsm": wl.overrides}, bench)
        config.append(time.perf_counter() - t1)
        build.append(t1 - t0)
    return {"problems.build.s": statistics.median(build),
            "cli.build_solver_config.s": statistics.median(config)}


# ---------------------------------------------------------------------------
# per-layer aggregation
# ---------------------------------------------------------------------------


def _layer(span_name: str) -> str:
    return span_name.rsplit(".", 1)[-1]


def layer_metrics(tracer, n_ops: int, cfg, flags) -> dict:
    """Per-layer metrics per primary operation (one solve, or one step triple)."""
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    bvfsm_roots = by_name["solver.solve"] + by_name["solver.step"]

    def dur(name):
        return sum(s.duration for s in by_name[name]) / n_ops

    def self_s(name):
        return sum(s.self_s for s in by_name[name]) / n_ops

    def calls(name, role, kind):
        return sum(s.calls[(role, kind)] for s in by_name[name])

    m = {
        "solver.solve.s": sum(s.duration for s in bvfsm_roots) / n_ops,
        "solver.solve.self_s": (sum(s.self_s for s in bvfsm_roots)
                                + sum(s.self_s for s in by_name["solver.solve_inner"])) / n_ops,
    }
    for stage, role in (("z_solve", "f"), ("y_solve", "F")):
        name = f"solver.{stage}"
        grads, evals = calls(name, role, "gy"), calls(name, role, "val")
        m.update({f"{name}.s": dur(name), f"{name}.self_s": self_s(name),
                  f"{name}.grads": grads / n_ops, f"{name}.evals": evals / n_ops,
                  f"{name}.evals_per_grad": evals / grads if grads else 0.0})
    m["solver.y_solve.short_stages"] = sum(
        s.calls[("F", "gy")] < cfg.T_y for s in by_name["solver.y_solve"]) / n_ops

    m["solver.chain_rule.s"] = dur("solver.chain_rule")
    m["solver.chain_rule.oracle_calls"] = sum(
        sum(s.calls.values()) for s in by_name["solver.chain_rule"]) / n_ops
    inner_per_root = Counter(s.root for s in by_name["solver.solve_inner"])
    m["solver.ul_retries"] = sum(inner_per_root[s.index] - cfg.K * cfg.L
                                 for s in by_name["solver.solve"]) / n_ops

    oracle_s = sum(s.oracle_s for s in spans)
    root_s = sum(s.duration for s in spans if s.parent == -1)
    m["problems.oracle.s"] = oracle_s / n_ops
    m["problems.oracle.share"] = oracle_s / root_s if root_s > 0 else 0.0
    field_calls = Counter()
    for s in spans:
        for (role, kind), c in s.calls.items():
            field_calls[(_layer(s.name), role, kind)] += c
    m["core.field.calls.total"] = sum(field_calls.values()) / n_ops
    for key in FIELD_CALLS:
        m[field_metric(*key)] = field_calls[key] / n_ops

    m["auxfun.schedule_step.s"] = dur("auxfun.schedule_step")
    for name in ("ll_descent", "cg", "neumann"):
        m[f"baselines.{name}.s"] = dur(f"baselines.{name}")
    m["baselines.hvp.calls"] = len(by_name["baselines.hvp"]) / n_ops
    hvp_parents = Counter(spans[s.parent].name for s in by_name["baselines.hvp"])
    for name, method, flag, rate in (("cg", "cg:20", "cg-breakdown", "breakdown_rate"),
                                     ("neumann", "neumann:20", "diverging", "diverging_rate")):
        steps = len(by_name[f"baselines.{name}"])
        hvps = hvp_parents[f"baselines.{name}"]
        m[f"baselines.{name}.hvps_per_step"] = hvps / steps if steps else 0.0
        total = sum(flags[method].values())
        m[f"baselines.{name}.{rate}"] = flags[method][flag] / total if total else 0.0
    return m


def unlisted_calls(tracer) -> list:
    """Oracle calls from (layer, role, kind) pairs missing from FIELD_CALLS."""
    seen = {(_layer(s.name), role, kind) for s in tracer.spans for role, kind in s.calls}
    return sorted(seen - set(FIELD_CALLS))


def layer_shares(tracer) -> dict:
    """Share of traced root time per span self time, with oracle time apart."""
    root_s = sum(s.duration for s in tracer.spans if s.parent == -1)
    shares = Counter()
    for s in tracer.spans:
        shares[s.name] += s.self_s
        shares["problems.oracle"] += s.oracle_s
    if not root_s:
        return {}
    return {k: v / root_s for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def summarize_plain(res: dict, setup: list[float]) -> tuple[dict, dict]:
    best = {m: typical(v) for m, v in res["step_s"].items()}
    values = {
        "solve_s": typical(res["solve_s"]),
        "step_ms": best["bvfsm"] * 1e3,
        "step_ms.cg": best["cg:20"] * 1e3,
        "step_ms.neumann": best["neumann:20"] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    quality = defaultdict(list)
    margins = defaultdict(list)
    for o in res["outcomes"]:
        for k, v in o.quality.items():
            quality[k].append(v)
        for k, v in o.margins.items():
            margins[k].append(v)
    tally = res["tally"]
    details = {
        "units": res["units"],
        "quality": {k: statistics.median(v) for k, v in quality.items()},
        "margins": {k: min(v) for k, v in margins.items()},
        "fail_rate": tally.failed / max(tally.attempted, 1),
        "trace_digest": W.combined_digest(res["digests"]),
        "tails": {"solve_s": tail([t for _, t in res["solve_s"]]),
                  **{f"step_s.{m}": tail([t for _, t in v]) for m, v in res["step_s"].items()}},
        "flags": {m: dict(c) for m, c in res["flags"].items()},
        "a9_ratio": min(best["cg:20"], best["neumann:20"]) / best["bvfsm"],
        "setup_samples": setup,
        "errors": tally.errors,
    }
    if res["flags"]["cg:20"].get("cg-breakdown"):
        details["note"] = ("cg returned cg-breakdown: step_ms.cg times a truncated "
                           "solve, not Q=20 conjugate-gradient iterations")
    return values, details


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = W.WORKLOADS[name]
    load_before = os.getloadavg()
    if trace:
        res = run_traced(wl, seed)
        units = per_layer_units()
        metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
        details = {"layer_shares": res["shares"], "unlisted_calls": res["unlisted"],
                   "spans": res["spans"], "spans_csv": res["spans_csv"],
                   "trace_digest": W.combined_digest(res["digests"]),
                   "flags": {m: dict(c) for m, c in res["flags"].items()},
                   "errors": res["tally"].errors}
    else:
        setup = measure_setup(name, seed)
        res = run_plain(wl, seed, seconds)
        values, details = summarize_plain(res, setup)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    tally = res["tally"]
    details.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                   env={**environment(), "loadavg_before": load_before,
                        "loadavg_after": os.getloadavg()})
    for k, v in metrics.items():
        print(f"{name:>10}  {k:<44} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"details": details}, default=str))
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in W.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(W.WORKLOADS)} or all")
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for n, r in results.items():
            print(json.dumps({"workload": n, **r}))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
