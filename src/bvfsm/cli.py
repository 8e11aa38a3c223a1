"""Experiment runner: convergence runs, dimension sweeps, per-step timing.

One JSON config describes a run; artifacts are one trace CSV per method plus
a summary JSON.  Numeric CSV content is deterministic given (config, seed);
timing columns are excluded from that contract.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .auxfun import DynamicShift, ScheduleState, StaticShift, parse_aux
from .baselines import BaselineConfig, hypergradient_step, parse_method
from .core import InvalidParameter, project, validate_gradients
from .problems import BenchmarkProblem, list_problems, parse_problem
from .solver import (
    SolveError,
    SolveTimeout,
    SolveTrace,
    SolverConfig,
    TraceRecord,
    solve,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

TRACE_COLUMNS = ["k", "l", "wall_time_s", "F", "f", "ul_grad_norm", "rel_err_x", "rel_err_F"]

BASELINE_NAMES = ["rhg", "trhg", "bda", "cg", "neumann"]


def _baseline_config(cfg: dict) -> BaselineConfig:
    fields = {k: v for k, v in cfg.get("baseline", {}).items() if k != "ul_steps"}
    try:
        return BaselineConfig(**fields)
    except TypeError as exc:  # a key BaselineConfig does not know
        raise InvalidParameter(f"baseline: {exc}") from exc


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def write_trace_csv(path: Path, trace: SolveTrace):
    lines = [",".join(TRACE_COLUMNS)]
    for r in trace.records:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (r.k, r.l, r.wall_time_s, r.F_value, r.f_value,
                          r.ul_grad_norm, r.rel_err_x, r.rel_err_F)
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _peak_rss_kb() -> int | None:
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _resolve_seed(cfg: dict, override: int | None) -> int:
    if override is not None:
        return int(override)
    if "seed" in cfg:
        return int(cfg["seed"])
    env = os.environ.get("BVFSM_SEED")
    return int(env) if env else 0


def load_problem(cfg: dict, seed: int) -> BenchmarkProblem:
    spec = cfg["problem"]
    if isinstance(spec, str) and spec.startswith("hyperclean") and "seed=" not in spec:
        sep = ":" if ":" not in spec else ","
        spec = f"{spec}{sep}seed={seed}"
    return parse_problem(spec)


def build_schedule(d: dict, bench: BenchmarkProblem) -> ScheduleState:
    d = dict(d or {})
    decay = float(d.get("decay", 1.0 / 1.01))

    def parse_shift(cfg_entry):
        if cfg_entry is None:
            return None
        if isinstance(cfg_entry, dict) and cfg_entry.get("rule", "static") == "dynamic":
            offset = cfg_entry.get("offset")
            return DynamicShift(float(offset) if offset is not None else bench.dynamic_offset)
        if isinstance(cfg_entry, dict):
            value = float(cfg_entry.get("value", 1.0))
            pow_ = cfg_entry.get("decay_pow")
            return StaticShift(value, decay ** float(pow_) if pow_ is not None else None)
        return StaticShift(float(cfg_entry), None)

    sigma2 = parse_shift(d.get("sigma2", {})) or StaticShift()
    sigma2_H = parse_shift(d.get("sigma2_H"))
    sigma2_h = parse_shift(d.get("sigma2_h"))
    for name, rule in (("sigma2_H", sigma2_H), ("sigma2_h", sigma2_h)):
        if isinstance(rule, DynamicShift):
            raise InvalidParameter(f"{name}: constraint shifts take only the static rule")
    return ScheduleState(
        mu=float(d.get("mu", 1.0)),
        theta=float(d.get("theta", 1.0)),
        sigma1=float(d.get("sigma1", 1.0)),
        decay=decay,
        sigma2=sigma2,
        sigma2_H=sigma2_H,
        sigma2_h=sigma2_h,
    )


def build_solver_config(cfg: dict, bench: BenchmarkProblem) -> SolverConfig:
    """Merge user settings over the benchmark's suggested solver profile."""
    d = dict(bench.suggested_solver)
    d.update(cfg.get("bvfsm", {}))
    sched = build_schedule(d.get("schedule", {}), bench)
    kwargs = dict(
        K=int(d.get("K", 3000)),
        L=int(d.get("L", 1)),
        T_z=int(d.get("T_z", 50)),
        T_y=int(d.get("T_y", 25)),
        alpha=float(d.get("alpha", 0.01)),
        step_z=float(d.get("step_z", 0.01)),
        step_y=float(d.get("step_y", 0.01)),
        schedule=sched,
        warm_start=bool(d.get("warm_start", True)),
    )
    for role in ("aux_f", "aux_H", "aux_h", "aux_B"):
        if role in d:
            kwargs[role] = parse_aux(d[role])
    if cfg.get("wall_clock_cap_s") is not None:
        kwargs["wall_clock_cap_s"] = float(cfg["wall_clock_cap_s"])
    return SolverConfig(**kwargs)


def _vector(problem_dim: int, value, default: float = 0.0) -> np.ndarray:
    if value is None:
        return np.full(problem_dim, default)
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        return np.full(problem_dim, float(arr[0]))
    return arr


def run_baseline_loop(
    bench: BenchmarkProblem,
    method: str,
    bcfg: BaselineConfig,
    ul_steps: int,
    x0: np.ndarray,
    y0: np.ndarray,
    wall_clock_cap_s: float | None = None,
) -> tuple[SolveTrace, str]:
    """Projected UL descent driven by a baseline hypergradient estimator."""
    from .solver import _errors  # shared rel-error bookkeeping

    problem = bench.problem
    reference = bench.reference
    t0 = time.perf_counter()
    x = project(problem.ul_set, x0.copy())
    y = y0.copy()
    trace = SolveTrace()
    F_val, f_val, rel_x, rel_F = _errors(problem, x, y, reference)
    trace.append(TraceRecord(0, 0, x.copy(), F_val, f_val, float("nan"), rel_x, rel_F,
                             time.perf_counter() - t0, math.nan, math.nan, math.nan,
                             y=y.copy()))
    last_flag = ""
    for k in range(ul_steps):
        if wall_clock_cap_s is not None and time.perf_counter() - t0 > wall_clock_cap_s:
            raise SolveTimeout(f"baseline {method} exceeded wall clock cap", trace)
        g, y, flag = hypergradient_step(problem, method, x, y, bcfg)
        last_flag = flag or last_flag
        x = project(problem.ul_set, x - bcfg.alpha * g)
        F_val, f_val, rel_x, rel_F = _errors(problem, x, y, reference)
        trace.append(TraceRecord(k, 1, x.copy(), F_val, f_val, float(np.linalg.norm(g)),
                                 rel_x, rel_F, time.perf_counter() - t0,
                                 math.nan, math.nan, math.nan, y=np.array(y)))
    return trace, last_flag


def _run_method(bench: BenchmarkProblem, mspec, cfg: dict, x0: np.ndarray,
                y0: np.ndarray, cap: float | None) -> tuple[SolveTrace, str]:
    """Run one method spec of a config on ``bench``; returns (trace, flag).

    Raises InvalidParameter for an unknown method or a malformed method
    section; SolveTimeout and SolveError carry the partial trace.
    """
    mname = str(mspec).partition(":")[0].lower()
    if mname == "bvfsm":
        try:
            scfg = build_solver_config(cfg, bench)
        except (ValueError, TypeError) as exc:  # e.g. a non-numeric K
            raise InvalidParameter(f"bvfsm: {exc}") from exc
        return solve(bench.problem, scfg, x0, y0, reference=bench.reference), ""
    name, bcfg = parse_method(mspec, _baseline_config(cfg))
    ul_steps = int(cfg.get("baseline", {}).get("ul_steps", 500))
    return run_baseline_loop(bench, name, bcfg, ul_steps, x0, y0, cap)


def run_experiment(config_path, out_dir=None, seed=None, wall_clock_cap_s=None) -> int:
    """Execute one experiment config; write trace CSVs and a summary JSON."""
    try:
        cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if wall_clock_cap_s is not None:
            cfg["wall_clock_cap_s"] = wall_clock_cap_s
        seed = _resolve_seed(cfg, seed)
        methods = list(cfg.get("methods", []))
        if not methods:
            raise InvalidParameter("config must list at least one method")
        bench = load_problem(cfg, seed)
        out = Path(out_dir or cfg.get("out_dir", "."))
    except (KeyError, ValueError, TypeError, InvalidParameter, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out.mkdir(parents=True, exist_ok=True)
    problem = bench.problem
    x0 = _vector(problem.m, cfg.get("x0", None if bench.x0 is None else bench.x0))
    y0 = _vector(problem.n, cfg.get("y0", None if bench.y0 is None else bench.y0))
    cap = cfg.get("wall_clock_cap_s")
    cap = float(cap) if cap is not None else None

    summary: dict = {
        "config": cfg,
        "seed": seed,
        "version": __version__,
        "problem": bench.name,
        "problem_params": bench.params,
        "results": {},
    }
    failed = False
    for mspec in methods:
        entry: dict = {"method": str(mspec)}
        try:
            trace, flag = _run_method(bench, mspec, cfg, x0, y0, cap)
        except (SolveTimeout, SolveError) as exc:
            trace = exc.trace
            flag = type(exc).__name__
            failed = True
        except InvalidParameter as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        csv_path = out / f"trace_{str(mspec).replace(':', '_')}.csv"
        write_trace_csv(csv_path, trace)
        final = trace.final
        entry.update(
            final_rel_err_x=final.rel_err_x,
            final_rel_err_F=final.rel_err_F,
            final_F=final.F_value,
            final_f=final.f_value,
            records=len(trace.records),
            wall_time_s=final.wall_time_s,
            flag=flag,
            trace_csv=csv_path.name,
        )
        summary["results"][str(mspec)] = entry

    rss = _peak_rss_kb()
    if rss is not None:
        summary["peak_rss_kb"] = rss
    (out / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n",
                                      encoding="utf-8")
    return EXIT_RUNTIME if failed else EXIT_OK


# ---------------------------------------------------------------------------
# dimension sweep
# ---------------------------------------------------------------------------


def _sweep_cell(family: str, n: int, mspec: str, cfg: dict):
    started = time.perf_counter()
    try:
        bench = parse_problem(f"{family}:n={n},a={cfg.get('a', 2)},c={cfg.get('c', 2)}")
        problem = bench.problem
        x0 = _vector(problem.m, cfg.get("x0", 8.0))
        y0 = _vector(problem.n, cfg.get("y0", 0.0))
        trace, _ = _run_method(bench, mspec, cfg, x0, y0, cfg.get("wall_clock_cap_s"))
        final = trace.final
        return dict(n=n, method=str(mspec), rel_err_x=final.rel_err_x,
                    rel_err_F=final.rel_err_F,
                    wall_time_s=time.perf_counter() - started, note="")
    except Exception as exc:  # per-cell failure recorded, sweep continues
        return dict(n=n, method=str(mspec), rel_err_x=math.nan, rel_err_F=math.nan,
                    wall_time_s=time.perf_counter() - started,
                    note=f"{type(exc).__name__}: {exc}")


def run_dimension_sweep(
    family: str,
    n_list,
    methods,
    cfg: dict | None = None,
    out_path=None,
    parallel: int = 1,
) -> list[dict]:
    """One row per (n, method) with final rel_err_x and wall time."""
    if not n_list:
        raise InvalidParameter("n_list must be non-empty")
    cfg = cfg or {}
    cells = [(int(n), str(m)) for n in n_list for m in methods]
    if parallel > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(lambda c: _sweep_cell(family, c[0], c[1], cfg), cells))
    else:
        rows = [_sweep_cell(family, n, m, cfg) for n, m in cells]
    if out_path is not None:
        cols = ["n", "method", "rel_err_x", "rel_err_F", "wall_time_s", "note"]
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(_fmt(r[c]) for c in cols))
        Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


# ---------------------------------------------------------------------------
# per-step timing
# ---------------------------------------------------------------------------


def time_step(
    sizes,
    methods,
    repeats: int = 5,
    cfg: dict | None = None,
    out_path=None,
) -> list[dict]:
    """Median wall time of one UL-gradient computation per (m, n, method).

    For the sequential-minimization solver a step is both inner solves plus
    the chain-rule assembly; for baselines it is the T-step LL solve plus the
    estimator.  One warm-up repetition is excluded.  Always serial.
    """
    if repeats < 3:
        raise InvalidParameter("repeats must be >= 3")
    cfg = cfg or {}
    rows = []
    for m, n in sizes:
        bench = parse_problem(f"sin:n={int(n)},a=2,c=2,m={int(m)}")
        problem = bench.problem
        x = _vector(problem.m, cfg.get("x0", 8.0))
        y0 = _vector(problem.n, cfg.get("y0", 0.0))
        for mspec in methods:
            mname = str(mspec).partition(":")[0].lower()
            times = []
            try:
                if mname == "bvfsm":
                    scfg = build_solver_config(cfg, bench)
                    from .solver import solve_inner, ul_gradient_for

                    sched = scfg.schedule
                    for rep in range(repeats + 1):
                        t0 = time.perf_counter()
                        inner = solve_inner(problem, x, sched, scfg, z0=y0, y0=y0)
                        ul_gradient_for(problem, x, inner, sched, scfg)
                        if rep > 0:
                            times.append(time.perf_counter() - t0)
                else:
                    base = _baseline_config(cfg)
                    name, bcfg = parse_method(mspec, base)
                    for rep in range(repeats + 1):
                        t0 = time.perf_counter()
                        hypergradient_step(problem, name, x, y0, bcfg)
                        if rep > 0:
                            times.append(time.perf_counter() - t0)
                rows.append(dict(m=int(m), n=int(n), method=str(mspec),
                                 median_s=statistics.median(times),
                                 repeats=repeats, note=""))
            except Exception as exc:
                rows.append(dict(m=int(m), n=int(n), method=str(mspec),
                                 median_s=math.nan, repeats=repeats,
                                 note=f"{type(exc).__name__}: {exc}"))
    if out_path is not None:
        cols = ["m", "n", "method", "median_s", "repeats", "note"]
        lines = [",".join(cols)]
        for r in rows:
            lines.append(",".join(_fmt(r[c]) for c in cols))
        Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bvfsm", description="Bi-level optimization benchmark harness")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--wall-clock-cap-s", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="dimension sweep over n")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--family", default="sin")
    p_sweep.add_argument("--n", type=int, nargs="+", required=True)
    p_sweep.add_argument("--methods", nargs="+", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--parallel", type=int, default=1)

    p_time = sub.add_parser("time", help="per-step hypergradient timing")
    p_time.add_argument("--config", default=None)
    p_time.add_argument("--sizes", nargs="+", required=True, help="pairs m:n, e.g. 1:1000")
    p_time.add_argument("--methods", nargs="+", required=True)
    p_time.add_argument("--repeats", type=int, default=5)
    p_time.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="finite-difference gradient checks")
    p_val.add_argument("--problem", required=True)
    p_val.add_argument("--probes", type=int, default=10)
    p_val.add_argument("--tol", type=float, default=1e-5)
    p_val.add_argument("--seed", type=int, default=None)

    sub.add_parser("list-problems", help="known benchmark problems")
    sub.add_parser("list-methods", help="known solution methods")

    args = parser.parse_args(argv)

    if args.verb == "list-problems":
        for name in list_problems():
            print(name)
        return EXIT_OK
    if args.verb == "list-methods":
        for name in ["bvfsm"] + BASELINE_NAMES:
            print(name)
        return EXIT_OK

    if args.verb == "run":
        return run_experiment(args.config, args.out_dir, args.seed, args.wall_clock_cap_s)

    cfg = {}
    if getattr(args, "config", None):
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    if args.verb == "sweep":
        try:
            run_dimension_sweep(args.family, args.n, args.methods, cfg,
                                out_path=args.out, parallel=args.parallel)
        except InvalidParameter as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except Exception as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    if args.verb == "time":
        try:
            sizes = []
            for s in args.sizes:
                m_str, _, n_str = s.partition(":")
                sizes.append((int(m_str), int(n_str)))
            time_step(sizes, args.methods, args.repeats, cfg, out_path=args.out)
        except (InvalidParameter, ValueError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except Exception as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    if args.verb == "validate":
        try:
            bench = parse_problem(args.problem)
        except InvalidParameter as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        seed = _resolve_seed(cfg, args.seed)
        ok = True
        for label, fld in [("F", bench.problem.F), ("f", bench.problem.f)] + [
            (f"H[{j}]", h) for j, h in enumerate(bench.problem.ul_constraints)
        ] + [(f"h[{j}]", h) for j, h in enumerate(bench.problem.ll_constraints)]:
            rep = validate_gradients(fld, probes=args.probes, tol=args.tol, seed=seed)
            print(f"{label}: {rep}")
            ok = ok and rep.passed
        return EXIT_OK if ok else EXIT_RUNTIME

    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
