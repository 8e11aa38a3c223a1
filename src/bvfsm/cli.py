"""Experiment runner: convergence runs, dimension sweeps, per-step timing.

One JSON config describes a run; artifacts are one trace CSV per method plus
a summary JSON.  Numeric CSV content is deterministic given (config, seed);
timing columns are excluded from that contract.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .auxfun import DynamicShift, ScheduleState, StaticShift, parse_aux
from .baselines import BaselineConfig, hypergradient_step, parse_method
from .core import InvalidParameter, NonFiniteEvaluation, project, validate_gradients
from .problems import BenchmarkProblem, list_problems, parse_problem
from .solver import (
    SolveError,
    SolveTimeout,
    SolveTrace,
    SolverConfig,
    TraceRecord,
    solve,
    solve_inner,
    ul_gradient_for,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

TRACE_COLUMNS = ["k", "l", "wall_time_s", "F", "f", "ul_grad_norm", "rel_err_x", "rel_err_F"]
SWEEP_COLUMNS = ["n", "method", "rel_err_x", "rel_err_F", "wall_time_s", "note"]
TIMING_COLUMNS = ["m", "n", "method", "median_s", "repeats", "note"]

BASELINE_NAMES = ["rhg", "trhg", "bda", "cg", "neumann"]


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def _write_csv(path, cols, rows):
    """One header line of ``cols``, then one line per row of values."""
    lines = [",".join(cols)] + [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _peak_rss_kb() -> int | None:
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _load_config(path) -> dict:
    """The JSON config at ``path``, or {} for None; a bad file is a config error."""
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidParameter(f"{path}: {exc}") from exc


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


def _reject_unknown(section: str, d: dict, known) -> None:
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise InvalidParameter(f"unknown {section} keys {unknown}; known: {sorted(known)}")


SCHEDULE_KEYS = ("mu", "theta", "sigma1", "decay", "sigma2", "sigma2_H", "sigma2_h")
# the keys of a shift entry in ``schedule``, by rule
SHIFT_KEYS = {"static": ("rule", "value", "decay_pow"), "dynamic": ("rule", "offset")}


def build_schedule(d: dict, bench: BenchmarkProblem) -> ScheduleState:
    d = dict(d or {})
    _reject_unknown("schedule", d, SCHEDULE_KEYS)
    decay = float(d.get("decay", 1.0 / 1.01))

    def parse_shift(name, cfg_entry):
        if cfg_entry is None:
            return None
        if not isinstance(cfg_entry, dict):
            return StaticShift(float(cfg_entry), None)
        rule = cfg_entry.get("rule", "static")
        if rule not in SHIFT_KEYS:
            raise InvalidParameter(f"{name}: unknown rule {rule!r}; known: {sorted(SHIFT_KEYS)}")
        _reject_unknown(f"{name} ({rule})", cfg_entry, SHIFT_KEYS[rule])
        if rule == "dynamic":
            offset = cfg_entry.get("offset")
            return DynamicShift(float(offset) if offset is not None else bench.dynamic_offset)
        value = float(cfg_entry.get("value", 1.0))
        pow_ = cfg_entry.get("decay_pow")
        return StaticShift(value, decay ** float(pow_) if pow_ is not None else None)

    sigma2 = parse_shift("sigma2", d.get("sigma2", {})) or StaticShift()
    sigma2_H = parse_shift("sigma2_H", d.get("sigma2_H"))
    sigma2_h = parse_shift("sigma2_h", d.get("sigma2_h"))
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


# the settable SolverConfig fields of a "bvfsm" section, besides "schedule"
SOLVER_KEYS = {
    "K": int, "L": int, "T_z": int, "T_y": int,
    "alpha": float, "step_z": float, "step_y": float,
    "aux_f": parse_aux, "aux_H": parse_aux, "aux_h": parse_aux, "aux_B": parse_aux,
}


def build_solver_config(cfg: dict, bench: BenchmarkProblem) -> SolverConfig:
    """Merge user settings over the benchmark's suggested solver profile.

    A key missing from both takes the SolverConfig default; an unknown key in
    the ``bvfsm`` section or its ``schedule`` raises InvalidParameter.
    """
    d = dict(bench.suggested_solver)
    d.update(cfg.get("bvfsm", {}))
    _reject_unknown("bvfsm", d, [*SOLVER_KEYS, "schedule"])
    kwargs = {key: cast(d[key]) for key, cast in SOLVER_KEYS.items() if key in d}
    kwargs["schedule"] = build_schedule(d.get("schedule", {}), bench)
    kwargs["wall_clock_cap_s"] = _wall_clock_cap(cfg)
    return SolverConfig(**kwargs)


def _wall_clock_cap(cfg: dict) -> float | None:
    """The config's ``wall_clock_cap_s`` as a float, or None when unset."""
    cap = cfg.get("wall_clock_cap_s")
    try:
        return float(cap) if cap is not None else None
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"wall_clock_cap_s: {exc}") from exc


def _vector(dim: int, value) -> np.ndarray:
    """A start point of ``dim`` entries: None gives zeros, a scalar is broadcast."""
    if value is None:
        return np.zeros(dim)
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"start point {value!r}: {exc}") from exc
    if arr.size == 1:
        return np.full(dim, float(arr[0]))
    if arr.shape != (dim,):
        raise InvalidParameter(f"start point needs {dim} entries, got shape {arr.shape}")
    return arr


def _resolve_method(bench: BenchmarkProblem, mspec, cfg: dict):
    """Turn one method spec of a config into a configured method.

    Returns ``("bvfsm", SolverConfig, None)`` or a baseline's ``(name,
    BaselineConfig, ul_steps)``.  This is the only reader of the ``bvfsm`` and
    ``baseline`` sections: an unknown method or a malformed section raises
    InvalidParameter naming the section.
    """
    section = "bvfsm" if str(mspec).partition(":")[0].lower() == "bvfsm" else "baseline"
    try:
        if section == "bvfsm":
            return "bvfsm", build_solver_config(cfg, bench), None
        fields = dict(cfg.get("baseline", {}))
        ul_steps = int(fields.pop("ul_steps", 500))
        name, bcfg = parse_method(mspec, BaselineConfig(**fields))
        return name, bcfg, ul_steps
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"{section}: {exc}") from exc


def run_baseline_loop(
    bench: BenchmarkProblem,
    method: str,
    bcfg: BaselineConfig,
    ul_steps: int,
    x0: np.ndarray,
    y0: np.ndarray,
    wall_clock_cap_s: float | None = None,
) -> tuple[SolveTrace, str]:
    """Projected UL descent driven by a baseline hypergradient estimator.

    Returns the trace and the last estimator flag.  The loop stops at the first
    non-finite gradient, iterate or trace value, after recording that step
    when its values could be formed, and returns the flag "diverging".
    """
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
        try:
            g, y, flag = hypergradient_step(problem, method, x, y, bcfg)
            x = project(problem.ul_set, x - bcfg.alpha * g)
            # a diverging run overflows first in these values, checked below
            with np.errstate(over="ignore", invalid="ignore"):
                F_val, f_val, rel_x, rel_F = _errors(problem, x, y, reference)
                g_norm = float(np.linalg.norm(g))
        except (NonFiniteEvaluation, OverflowError):
            return trace, "diverging"
        last_flag = flag or last_flag
        trace.append(TraceRecord(k, 1, x.copy(), F_val, f_val, g_norm,
                                 rel_x, rel_F, time.perf_counter() - t0,
                                 math.nan, math.nan, math.nan, y=np.array(y)))
        if not (math.isfinite(F_val) and math.isfinite(f_val) and math.isfinite(g_norm)
                and np.isfinite(y).all()):
            return trace, "diverging"
    return trace, last_flag


def _run_method(bench: BenchmarkProblem, method, x0: np.ndarray, y0: np.ndarray,
                cap: float | None) -> tuple[SolveTrace, str]:
    """Run one resolved method on ``bench``; returns (trace, flag).

    SolveTimeout and SolveError carry the partial trace.
    """
    name, mcfg, ul_steps = method
    if isinstance(mcfg, SolverConfig):
        return solve(bench.problem, mcfg, x0, y0, reference=bench.reference), ""
    return run_baseline_loop(bench, name, mcfg, ul_steps, x0, y0, cap)


def run_experiment(config_path, out_dir=None, seed=None, wall_clock_cap_s=None) -> int:
    """Execute one experiment config; write trace CSVs and a summary JSON.

    The whole config, every method section included, is checked before the
    first method runs, so a config error (exit 2) writes no artifacts.
    """
    try:
        cfg = _load_config(config_path)
        if wall_clock_cap_s is not None:
            cfg["wall_clock_cap_s"] = wall_clock_cap_s
        seed = _resolve_seed(cfg, seed)
        methods = list(cfg.get("methods", []))
        if not methods:
            raise InvalidParameter("config must list at least one method")
        bench = load_problem(cfg, seed)
        resolved = [_resolve_method(bench, mspec, cfg) for mspec in methods]
        x0 = _vector(bench.problem.m, cfg.get("x0", bench.x0))
        y0 = _vector(bench.problem.n, cfg.get("y0", bench.y0))
        cap = _wall_clock_cap(cfg)
        out = Path(out_dir or cfg.get("out_dir", "."))
    except (KeyError, TypeError, ValueError) as exc:  # InvalidParameter is a ValueError
        return _config_error(exc)

    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {
        "config": cfg,
        "seed": seed,
        "version": __version__,
        "problem": bench.name,
        "problem_params": bench.params,
        "results": {},
    }
    failed = False
    for mspec, method in zip(methods, resolved):
        entry: dict = {"method": str(mspec)}
        try:
            trace, flag = _run_method(bench, method, x0, y0, cap)
        except (SolveTimeout, SolveError) as exc:
            trace = exc.trace
            flag = type(exc).__name__
            failed = True
        csv_path = out / f"trace_{str(mspec).replace(':', '_')}.csv"
        _write_csv(csv_path, TRACE_COLUMNS,
                   [(r.k, r.l, r.wall_time_s, r.F_value, r.f_value, r.ul_grad_norm,
                     r.rel_err_x, r.rel_err_F) for r in trace.records])
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


def _sweep_cell(family: str, n: int, mspec: str, cfg: dict, cap: float | None) -> dict:
    """One sweep row; a config error raises, a failed run goes into ``note``."""
    started = time.perf_counter()
    bench = parse_problem(f"{family}:n={n},a={cfg.get('a', 2)},c={cfg.get('c', 2)}")
    method = _resolve_method(bench, mspec, cfg)
    x0 = _vector(bench.problem.m, cfg.get("x0", 8.0))
    y0 = _vector(bench.problem.n, cfg.get("y0", 0.0))
    try:
        trace, _ = _run_method(bench, method, x0, y0, cap)
        rel_x, rel_F, note = trace.final.rel_err_x, trace.final.rel_err_F, ""
    except Exception as exc:  # per-cell failure recorded, sweep continues
        rel_x, rel_F, note = math.nan, math.nan, f"{type(exc).__name__}: {exc}"
    return dict(n=n, method=mspec, rel_err_x=rel_x, rel_err_F=rel_F,
                wall_time_s=time.perf_counter() - started, note=note)


def run_dimension_sweep(family: str, n_list, methods, cfg: dict | None = None,
                        out_path=None) -> list[dict]:
    """One row per (n, method) with final rel_err_x and wall time."""
    if not n_list:
        raise InvalidParameter("n_list must be non-empty")
    cfg = cfg or {}
    cap = _wall_clock_cap(cfg)
    rows = [_sweep_cell(family, int(n), str(m), cfg, cap) for n in n_list for m in methods]
    if out_path is not None:
        _write_csv(out_path, SWEEP_COLUMNS, [[r[c] for c in SWEEP_COLUMNS] for r in rows])
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
    estimator.  One warm-up repetition is excluded.  A config error raises; a
    failed step is recorded in the row's ``note``.
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
            name, mcfg, _ = _resolve_method(bench, mspec, cfg)
            times = []
            try:
                for rep in range(repeats + 1):
                    t0 = time.perf_counter()
                    if isinstance(mcfg, SolverConfig):
                        inner = solve_inner(problem, x, mcfg.schedule, mcfg, z0=y0, y0=y0)
                        ul_gradient_for(problem, x, inner, mcfg.schedule, mcfg)
                    else:
                        hypergradient_step(problem, name, x, y0, mcfg)
                    if rep > 0:
                        times.append(time.perf_counter() - t0)
                median_s, note = statistics.median(times), ""
            except Exception as exc:  # per-method failure recorded, timing continues
                median_s, note = math.nan, f"{type(exc).__name__}: {exc}"
            rows.append(dict(m=int(m), n=int(n), method=str(mspec), median_s=median_s,
                             repeats=repeats, note=note))
    if out_path is not None:
        _write_csv(out_path, TIMING_COLUMNS, [[r[c] for c in TIMING_COLUMNS] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _size_pair(spec: str) -> tuple[int, int]:
    m, _, n = spec.partition(":")
    try:
        return int(m), int(n)
    except ValueError as exc:
        raise InvalidParameter(f"size {spec!r} is not m:n") from exc


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

    # the one mapping from errors to exit codes for every verb
    try:
        if args.verb == "run":
            return run_experiment(args.config, args.out_dir, args.seed, args.wall_clock_cap_s)
        if args.verb == "sweep":
            run_dimension_sweep(args.family, args.n, args.methods, _load_config(args.config),
                                out_path=args.out)
            return EXIT_OK
        if args.verb == "time":
            time_step([_size_pair(s) for s in args.sizes], args.methods, args.repeats,
                      _load_config(args.config), out_path=args.out)
            return EXIT_OK
        # validate, the one verb left
        bench = parse_problem(args.problem)
        seed = _resolve_seed({}, args.seed)
        ok = True
        for label, fld in [("F", bench.problem.F), ("f", bench.problem.f)] + [
            (f"H[{j}]", h) for j, h in enumerate(bench.problem.ul_constraints)
        ] + [(f"h[{j}]", h) for j, h in enumerate(bench.problem.ll_constraints)]:
            rep = validate_gradients(fld, probes=args.probes, tol=args.tol, seed=seed)
            print(f"{label}: {rep}")
            ok = ok and rep.passed
        return EXIT_OK if ok else EXIT_RUNTIME
    except InvalidParameter as exc:
        return _config_error(exc)
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
