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
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, solver
from .auxfun import ScheduleState, parse_aux
from .baselines import METHODS, BaselineConfig, hypergradient_step, parse_method
from .core import InvalidParameter, NonFiniteEvaluation, project, validate_gradients
from .core import _number, _read_text, _reject_unknown, _section
from .problems import BenchmarkProblem, list_problems, make_problem, parse_problem
from .solver import (
    SolveError,
    SolveTimeout,
    SolveTrace,
    SolverConfig,
    _recorder,
    solve,
    start_point,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

TRACE_COLUMNS = ["k", "l", "wall_time_s", "F", "f", "ul_grad_norm", "rel_err_x", "rel_err_F"]
SWEEP_COLUMNS = ["n", "method", "rel_err_x", "rel_err_F", "wall_time_s", "note"]
TIMING_COLUMNS = ["m", "n", "method", "median_s", "repeats", "note"]


def _fmt(v) -> str:
    """A CSV cell; a float, np.float64 included, as a plain number (``nan``, ``inf`` too)."""
    return repr(float(v)) if isinstance(v, float) else str(v)


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
    """The JSON object at ``path``, or {} for None; a bad file is a config error."""
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidParameter(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidParameter(f"{path}: a config must be a JSON object")
    return cfg


# the keys a config may set at its top level: those its verb reads
CONFIG_KEYS = {
    "run": ("problem", "methods", "x0", "y0", "seed", "out_dir", "wall_clock_cap_s",
            "bvfsm", "baseline"),
    "sweep": ("x0", "y0", "wall_clock_cap_s", "bvfsm", "baseline", "a", "c"),
    "time": ("x0", "y0", "bvfsm", "baseline"),
}


def _resolve_seed(cfg: dict, override: int | None) -> int:
    """``override``, else the config's ``seed``, else ``BVFSM_SEED``, else 0."""
    if override is not None:
        return _number("seed", override, "int")
    if "seed" in cfg:
        return _number("seed", cfg["seed"], "int")
    env = os.environ.get("BVFSM_SEED") or "0"
    return _number("BVFSM_SEED", _read_text(env), "int")


def _seeded_problem(spec: str, cfg: dict, override: int | None):
    """``(bench, seed)``: the problem of ``spec`` built with the seed of
    _resolve_seed, and the seed its data was drawn from.  A seed the spec names
    wins over the ``BVFSM_SEED`` fallback; one that differs from ``override``
    or the config's ``seed`` is a config error."""
    explicit = override is not None or "seed" in cfg
    seed = _resolve_seed(cfg, override)
    bench = parse_problem(spec, seed)
    drawn = bench.params.get("seed", seed)
    if explicit and drawn != seed:
        raise InvalidParameter(f"seed {seed} conflicts with the problem spec's seed={drawn}")
    return bench, drawn


def build_schedule(d: dict) -> ScheduleState:
    """A ScheduleState; a missing or null key takes its default."""
    return ScheduleState(**_section("schedule", d or {}, ScheduleState, nested=True))


def build_solver_config(cfg: dict, bench: BenchmarkProblem) -> SolverConfig:
    """Merge user settings over the benchmark's suggested solver profile.

    The ``schedule`` merges key by key, so a ``sigma2`` set alone keeps the
    profile's ``sigma2_pow``; every other key, an auxiliary-function entry
    included, replaces the profile's value whole.  A key missing from both
    takes the SolverConfig default; an unknown key in the ``bvfsm`` section
    or its ``schedule`` raises InvalidParameter.
    """
    profile, user = bench.suggested_solver, cfg.get("bvfsm") or {}
    d = {**profile, **user}
    if isinstance(user.get("schedule"), dict):
        d["schedule"] = {**profile.get("schedule", {}), **user["schedule"]}
    readers = {"schedule": build_schedule,
               **dict.fromkeys(("aux_f", "aux_H", "aux_h", "aux_B"), parse_aux)}
    return SolverConfig(**_section("bvfsm", d, SolverConfig, readers),
                        wall_clock_cap_s=_wall_clock_cap(cfg))


def _wall_clock_cap(cfg: dict) -> float | None:
    """The config's ``wall_clock_cap_s`` as a float, or None when unset; NaN raises."""
    cap = cfg.get("wall_clock_cap_s")
    if cap is None:
        return None
    cap = _number("wall_clock_cap_s", cap, "float")
    if math.isnan(cap):
        raise InvalidParameter("wall_clock_cap_s must not be NaN")
    return cap


def _resolve_method(bench: BenchmarkProblem, mspec, cfg: dict):
    """Turn one method spec of a config into a configured method.

    Returns ``("bvfsm", SolverConfig)`` or a baseline's ``(name,
    BaselineConfig)``.  This is the only reader of the ``bvfsm`` and
    ``baseline`` sections: an unknown method or a malformed section raises
    InvalidParameter naming the section.
    """
    name, _, arg = str(mspec).strip().lower().partition(":")
    section = "bvfsm" if name == "bvfsm" else "baseline"
    try:
        if section == "bvfsm":
            if arg:
                raise InvalidParameter(f"bvfsm takes no argument, got {mspec!r}")
            return "bvfsm", build_solver_config(cfg, bench)
        fields = _section("baseline", cfg.get("baseline") or {}, BaselineConfig)
        return parse_method(mspec, BaselineConfig(**fields))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter(f"{section}: {exc}") from exc


def run_baseline_loop(
    bench: BenchmarkProblem,
    method: str,
    bcfg: BaselineConfig,
    x0: np.ndarray,
    y0: np.ndarray,
    wall_clock_cap_s: float | None = None,
) -> tuple[SolveTrace, str]:
    """``bcfg.ul_steps`` steps of projected UL descent driven by a baseline
    hypergradient estimator.

    Returns the trace and the last estimator flag.  The loop stops at the first
    non-finite gradient, iterate or trace value, after recording that step
    when its values could be formed, and returns the flag "diverging".
    """
    problem = bench.problem
    t0 = time.perf_counter()
    x, y = start_point(problem, x0, y0)
    trace = SolveTrace()
    record = _recorder(problem, bench.reference, trace, t0)
    record(0, 0, x, y)
    last_flag = ""
    for k in range(bcfg.ul_steps):
        if wall_clock_cap_s is not None and time.perf_counter() - t0 > wall_clock_cap_s:
            raise SolveTimeout(f"baseline {method} exceeded wall clock cap", trace)
        try:
            g, y, flag = hypergradient_step(problem, method, x, y, bcfg)
            x = project(problem.ul_set, x - bcfg.alpha * g)
            # a diverging run overflows first in these values, checked below
            with np.errstate(over="ignore", invalid="ignore"):
                g_norm = float(np.linalg.norm(g))
                rec = record(k, 1, x, y, g_norm)
        except (NonFiniteEvaluation, OverflowError):
            return trace, "diverging"
        last_flag = flag or last_flag
        if not (math.isfinite(rec.F_value) and math.isfinite(rec.f_value)
                and math.isfinite(g_norm) and np.isfinite(y).all()):
            return trace, "diverging"
    return trace, last_flag


def _run_method(bench: BenchmarkProblem, method, x0: np.ndarray, y0: np.ndarray,
                cap: float | None) -> tuple[SolveTrace, str]:
    """Run one resolved method on ``bench``; returns (trace, flag).

    SolveTimeout and SolveError carry the partial trace.
    """
    name, mcfg = method
    if isinstance(mcfg, SolverConfig):
        return solve(bench.problem, mcfg, x0, y0, reference=bench.reference), ""
    return run_baseline_loop(bench, name, mcfg, x0, y0, cap)


def run_experiment(config: dict, out_dir=None, seed=None, wall_clock_cap_s=None) -> int:
    """Execute one experiment config; write trace CSVs and a summary JSON.

    ``config`` is left unchanged.  The whole config, every method section
    included, is checked before the first method runs, so a config error
    (exit 2) writes no artifacts.  ``summary.json`` reports the seed the
    problem's data was drawn from: a seed the problem spec names wins over
    the ``BVFSM_SEED`` fallback, and one that differs from ``seed`` or the
    config's ``seed`` is a config error.
    """
    try:
        cfg = dict(config)
        _reject_unknown("config", cfg, CONFIG_KEYS["run"])
        if wall_clock_cap_s is not None:
            cfg["wall_clock_cap_s"] = wall_clock_cap_s
        cap = _wall_clock_cap(cfg)
        methods = list(cfg.get("methods", []))
        if not methods:
            raise InvalidParameter("config must list at least one method")
        bench, seed = _seeded_problem(cfg["problem"], cfg, seed)
        resolved = [_resolve_method(bench, mspec, cfg) for mspec in methods]
        x0, y0 = start_point(bench.problem, cfg.get("x0", bench.x0), cfg.get("y0", bench.y0))
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


def _sweep_cell(bench: BenchmarkProblem, mspec: str, cfg: dict, cap: float | None) -> dict:
    """One sweep row of ``bench``; a config error raises, a failed run goes
    into ``note``."""
    started = time.perf_counter()
    method = _resolve_method(bench, mspec, cfg)
    x0, y0 = start_point(bench.problem, cfg.get("x0", 8.0), cfg.get("y0", 0.0))
    try:
        trace, _ = _run_method(bench, method, x0, y0, cap)
        rel_x, rel_F, note = trace.final.rel_err_x, trace.final.rel_err_F, ""
    except Exception as exc:  # per-cell failure recorded, sweep continues
        rel_x, rel_F, note = math.nan, math.nan, f"{type(exc).__name__}: {exc}"
    return dict(n=bench.problem.n, method=mspec, rel_err_x=rel_x, rel_err_F=rel_F,
                wall_time_s=time.perf_counter() - started, note=note)


def run_dimension_sweep(family: str, n_list, methods, cfg: dict | None = None,
                        out_path=None) -> list[dict]:
    """One row per (n, method) with final rel_err_x and wall time; every problem,
    of ``n`` and the config's ``a`` and ``c`` (else the family's), is built first."""
    if not n_list:
        raise InvalidParameter("n_list must be non-empty")
    cfg = cfg or {}
    _reject_unknown("config", cfg, CONFIG_KEYS["sweep"])
    cap = _wall_clock_cap(cfg)
    ac = {key: cfg[key] for key in ("a", "c") if key in cfg}
    benches = [make_problem(family, {"n": n, **ac}) for n in n_list]
    rows = [_sweep_cell(bench, str(m), cfg, cap) for bench in benches for m in methods]
    if out_path is not None:
        _write_csv(out_path, SWEEP_COLUMNS, [[r[c] for c in SWEEP_COLUMNS] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# per-step timing
# ---------------------------------------------------------------------------


def _step(problem, method, x: np.ndarray, y0: np.ndarray) -> None:
    """One UL-gradient computation of a resolved ``(name, config)`` method at x.

    For the sequential-minimization solver a step is both inner solves from
    y0 plus the chain-rule assembly; for a baseline it is the T-step LL solve
    from y0 plus the estimator.  The solver's layers are looked up in
    ``solver`` when called, so a wrapper put there sees every step.
    """
    name, mcfg = method
    if isinstance(mcfg, SolverConfig):
        inner = solver.solve_inner(problem, x, mcfg.schedule, mcfg, z0=y0, y0=y0)
        solver.ul_gradient_for(problem, x, inner, mcfg.schedule, mcfg)
    else:
        hypergradient_step(problem, name, x, y0, mcfg)


def time_step(
    sizes,
    methods,
    repeats: int = 5,
    cfg: dict | None = None,
    out_path=None,
) -> list[dict]:
    """Median wall time of one ``_step`` per (m, n, method).

    Every method is resolved first, so a config error raises before any
    timing.  The steps then run in rounds, one ``_step`` per method in turn,
    so that a change in the machine's speed falls on every method alike: one
    warm-up round, excluded, then ``repeats`` timed rounds.  A failed step is
    recorded in its row's ``note``, and that method sits out later rounds.
    """
    if repeats < 3:
        raise InvalidParameter("repeats must be >= 3")
    cfg = cfg or {}
    _reject_unknown("config", cfg, CONFIG_KEYS["time"])
    rows = []
    for bench in [make_problem("sin", {"n": n, "m": m}) for m, n in sizes]:
        problem = bench.problem
        x, y0 = start_point(problem, cfg.get("x0", 8.0), cfg.get("y0", 0.0))
        resolved = [_resolve_method(bench, mspec, cfg) for mspec in methods]
        times, notes = [[] for _ in resolved], [""] * len(resolved)
        for _ in range(repeats + 1):
            for i, method in enumerate(resolved):
                if notes[i]:
                    continue
                try:
                    t0 = time.perf_counter()
                    _step(problem, method, x, y0)
                    times[i].append(time.perf_counter() - t0)
                except Exception as exc:  # per-method failure recorded, timing continues
                    notes[i] = f"{type(exc).__name__}: {exc}"
        for mspec, t, note in zip(methods, times, notes):  # t[0]: the warm-up round
            rows.append(dict(m=problem.m, n=problem.n, method=str(mspec),
                             median_s=math.nan if note else float(np.median(t[1:])),
                             repeats=repeats, note=note))
    if out_path is not None:
        _write_csv(out_path, TIMING_COLUMNS, [[r[c] for c in TIMING_COLUMNS] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _size_pair(spec: str) -> tuple:
    """The m and n of a ``--sizes`` entry ``m:n`` as _read_text reads them."""
    m, sep, n = spec.partition(":")
    if not sep:
        raise InvalidParameter(f"size {spec!r} is not m:n")
    return _read_text(m), _read_text(n)


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
        for name in ["bvfsm", *METHODS]:
            print(name)
        return EXIT_OK

    # the one mapping from errors to exit codes for every verb
    try:
        if args.verb == "run":
            return run_experiment(_load_config(args.config), args.out_dir, args.seed,
                                  args.wall_clock_cap_s)
        if args.verb == "sweep":
            run_dimension_sweep(args.family, args.n, args.methods, _load_config(args.config),
                                out_path=args.out)
            return EXIT_OK
        if args.verb == "time":
            time_step([_size_pair(s) for s in args.sizes], args.methods, args.repeats,
                      _load_config(args.config), out_path=args.out)
            return EXIT_OK
        # validate, the one verb left
        bench, seed = _seeded_problem(args.problem, {}, args.seed)
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
