"""The benchmark's workloads: inputs, timed operations and acceptance checks.

Each workload is one bvfsm problem with its solver profile.  A unit of work
is one full ``solve`` plus ``steps`` single hypergradients (bvfsm, cg:20,
neumann:20) at the problem's start point; the ``primary`` operation is what
the workload was chosen for and what the traced run records.  The reasons
for each choice are in README.md next to this file.

Only ``hyperclean`` reads the seed: it draws its data sets from it.  Every
other input is fixed, so its outputs are the same for every seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from bvfsm import baselines, solver
from bvfsm.baselines import BaselineConfig, parse_method
from bvfsm.cli import build_solver_config
from bvfsm.problems import BenchmarkProblem, parse_problem
from bvfsm.solver import SolverConfig, SolveTrace

HYPERCLEAN_DATASETS = 10  # data sets per hyperclean run, solved in turn
BASELINE = BaselineConfig(T=100, I=100, Q=20)  # the A9 settings
STEP_METHODS = ("bvfsm", "cg:20", "neumann:20")
DIGEST_COLUMNS = ("k", "l", "F_value", "f_value", "ul_grad_norm", "rel_err_x", "rel_err_F")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str  # problem spec for bvfsm.problems.parse_problem
    overrides: dict  # solver settings over the problem's suggested profile
    primary: str  # "solve" or "step": the operation the traced run records
    steps: int  # step triples per unit, half before and half after the solve
    min_units: int  # units every run completes, so per-run results are fixed
    trace_units: int  # units a traced run records
    x0: tuple | None = None  # start point; None takes the problem's own
    y0: float | tuple | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sin-opt", "sin:n=2,a=2,c=2", {"K": 3000}, "solve",
                 steps=1200, min_units=1, trace_units=1, x0=(8.0,), y0=(8.0, 8.0)),
        Workload("sin-con", "sin-constrained:n=2,a=2,c=1", {"K": 2000}, "solve",
                 steps=700, min_units=1, trace_units=1),
        Workload("hyperclean", "hyperclean", {"K": 400}, "solve",
                 steps=30, min_units=HYPERCLEAN_DATASETS, trace_units=HYPERCLEAN_DATASETS),
        Workload("step-n1000", "sin:n=1000,a=2,c=2,m=1", {"K": 1}, "step",
                 steps=2, min_units=1, trace_units=10, x0=(8.0,), y0=0.0),
    )
}


@dataclass
class Case:
    """The inputs of one unit of work."""

    bench: BenchmarkProblem
    cfg: SolverConfig
    x0: np.ndarray
    y0: np.ndarray
    data_seed: int | None = None


def data_seed(seed: int, unit: int) -> int:
    """hyperclean data seed of a unit: seed 0, unit 0 is the A10 data set."""
    return seed * HYPERCLEAN_DATASETS + unit % HYPERCLEAN_DATASETS


def build_case(wl: Workload, seed: int, unit: int) -> Case:
    spec, ds = wl.spec, None
    if wl.name == "hyperclean":
        ds = data_seed(seed, unit)
        spec = f"{wl.spec}:seed={ds}"
    bench = parse_problem(spec)
    cfg = build_solver_config({"bvfsm": wl.overrides}, bench)

    def vec(value, dim, default):
        v = np.atleast_1d(np.asarray(default if value is None else value, dtype=float))
        return np.full(dim, v[0]) if v.size == 1 else v.copy()

    p = bench.problem
    return Case(bench, cfg, vec(wl.x0, p.m, bench.x0), vec(wl.y0, p.n, bench.y0), ds)


# ---------------------------------------------------------------------------
# timed operations; the library is looked up at call time so tracing sees it
# ---------------------------------------------------------------------------


def run_solve(problem, case: Case) -> SolveTrace:
    return solver.solve(problem, case.cfg, case.x0, case.y0, reference=case.bench.reference)


def run_step(problem, case: Case, method: str):
    """One hypergradient at the case's start point, as ``bvfsm time`` takes it.

    Returns (gradient, flag).
    """
    if method == "bvfsm":
        sched = case.cfg.schedule
        inner = solver.solve_inner(problem, case.x0, sched, case.cfg, z0=case.y0, y0=case.y0)
        return solver.ul_gradient_for(problem, case.x0, inner, sched, case.cfg), ""
    name, bcfg = parse_method(method, BASELINE)
    g, _, flag = baselines.hypergradient_step(problem, name, case.x0, case.y0, bcfg)
    return g, flag


# ---------------------------------------------------------------------------
# results and their acceptance bars
# ---------------------------------------------------------------------------


def trace_digest(trace: SolveTrace) -> str:
    """sha256 of the trace's non-timing columns, as the trace CSV prints them."""
    h = hashlib.sha256()
    for r in trace.records:
        h.update((",".join(repr(getattr(r, c)) for c in DIGEST_COLUMNS) + "\n").encode())
    return h.hexdigest()


def combined_digest(digests: dict) -> str | None:
    """One digest over the per-input trace digests of a run (None if no solve)."""
    if not digests:
        return None
    h = hashlib.sha256()
    for key in sorted(digests, key=str):
        h.update(f"{key}:{digests[key]}\n".encode())
    return h.hexdigest()


@dataclass
class Outcome:
    ok: bool
    quality: dict = field(default_factory=dict)  # named final values
    margins: dict = field(default_factory=dict)  # distance to each bar, > 0 passes


def check_solve(wl: Workload, case: Case, trace: SolveTrace) -> Outcome:
    """The workload's acceptance bar, with the margin to each part of it."""
    final = trace.final
    if wl.name == "sin-opt":
        q = {"rel_err_x": final.rel_err_x, "rel_err_F": final.rel_err_F}
        m = {"rel_err_x<0.05": 0.05 - final.rel_err_x, "rel_err_F<0.05": 0.05 - final.rel_err_F}
        ok = m["rel_err_x<0.05"] > 0 and m["rel_err_F<0.05"] > 0
    elif wl.name == "sin-con":
        sums = [r.x[0] + r.y for r in trace.records if r.y is not None]
        lo = min(float(s.min()) for s in sums)
        hi = max(float(s.max()) for s in sums)
        x_err = abs(final.x[0] + 2.0 / 3.0)
        q = {"rel_err_x": final.rel_err_x, "rel_err_F": final.rel_err_F,
             "x_err": x_err, "band_lo": lo, "band_hi": hi}
        m = {"|x+2/3|<0.1": 0.1 - x_err, "band_lo>=-0.05": lo + 0.05,
             "band_hi<=1.05": 1.05 - hi}
        ok = x_err < 0.1 and lo >= -0.05 and hi <= 1.05
    elif wl.name == "hyperclean":
        mask = np.array(case.bench.params["corrupt_mask"])
        w = 1.0 / (1.0 + np.exp(-final.x))
        sep = float(w[~mask].mean() - w[mask].mean())
        start = trace.records[0].F_value
        q = {"weight_sep": sep, "val_loss": final.F_value, "val_loss_start": start}
        m = {"weight_sep>=0.2": sep - 0.2, "val_loss_decreasing": start - final.F_value}
        ok = sep >= 0.2 and final.F_value < start
    else:  # step-n1000: a single-stage solve, whose only bar is finiteness
        q = {"F": final.F_value, "rel_err_x": final.rel_err_x}
        m = {}
        ok = True
    ok = ok and all(math.isfinite(v) for v in q.values())
    return Outcome(ok, q, m)


def check_step(grad) -> bool:
    return bool(np.all(np.isfinite(grad)))
