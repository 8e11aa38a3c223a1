"""Golden traces of short solves, on the benchmark's own paths and on paths it does not run.

Each case is a short solve whose trace must stay bit for bit the same: a
refactor of the inner solves or the chain rule that changes any rounding
shows up here as a new digest.  Three cases follow the benchmark workloads
(``perfbench/workloads.py``): the sin-opt setup and the default sin-con
profile, both cut to K = 30 stages, and the one-stage n = 1000 point of
step-n1000.  The other nine cover paths the benchmark does not run.  The
expected digests were recorded before the stage object replaced the
written-out penalized sums in ``solver.py``; the three cases that
interpolated backtracking changed (constrained-sin-pessimistic,
dynamic-shift, wall-recovery) were recorded again when it replaced step
halving, and the three benchmark cases were recorded before the plain
descent loop moved into ``core``.  A deliberate change re-records a case by
copying the digest its failure prints.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from bvfsm import (
    Mode,
    ScalarField,
    make_constrained_sin_problem,
    make_pessimistic_sin_problem,
    make_sin_problem,
    solve,
    solve_inner,
    ul_gradient_for,
)
from bvfsm.auxfun import schedule_step
from bvfsm.cli import build_solver_config
from bvfsm.solver import InnerState

K = 30


def _with_ul_constraint(bench):
    """The sin problem with the UL constraint y_0 <= 6, violated at the start."""
    n = bench.problem.n

    def gy(x, y):
        g = np.zeros(n)
        g[0] = 1.0
        return g

    H = ScalarField(m=1, n=n, fn=lambda x, y: float(y[0]) - 6.0,
                    grad_x=lambda x, y: np.zeros(1), grad_y=gy, name="cap")
    return replace(bench, problem=replace(bench.problem, ul_constraints=(H,)))


def _pessimistic(bench):
    return replace(bench, problem=replace(bench.problem, mode=Mode.PESSIMISTIC))


STATIC = {"sigma2": {"rule": "static", "value": 2.0, "decay_pow": 0.6}}

CASES = {
    # the benchmark workloads sin-opt, sin-con and step-n1000
    "sin-opt": (make_sin_problem(2), {}),
    "sin-con": (make_constrained_sin_problem(2, 2.0, 1.0), {}),
    "step-n1000": (replace(make_sin_problem(1000), y0=np.zeros(1000)), {"K": 1}),
    "pessimistic-sin": (make_pessimistic_sin_problem(2), {}),
    "constrained-sin-pessimistic": (_pessimistic(make_constrained_sin_problem(2, 2.0, 1.0)), {}),
    "ul-constraint": (_with_ul_constraint(make_sin_problem(2)), {
        "aux_H": {"name": "inverse", "modified": True},
        "schedule": {**STATIC, "sigma2_H": {"value": 0.5}}}),
    "ul-constraint-quadratic": (_with_ul_constraint(make_sin_problem(2)), {"aux_H": "quadratic"}),
    "truncated-log": (make_sin_problem(2), {
        "aux_f": {"name": "truncated-log:0.5", "modified": True}, "schedule": STATIC}),
    "polynomial": (make_sin_problem(2), {"aux_f": "polynomial:3"}),
    "dynamic-shift": (make_sin_problem(2), {
        "aux_f": {"name": "truncated-log", "modified": True},
        "schedule": {"sigma2": {"rule": "dynamic"}}}),
    "constrained-truncated-log": (make_constrained_sin_problem(2, 2.0, 1.0), {
        "aux_h": {"name": "truncated-log:0.5", "modified": True}, "aux_B": "truncated-log"}),
    # alpha = 0.5 strands some stages outside the LL wall: the UL recovery
    # retries them, and the z-solve's restoration phase runs
    "wall-recovery": (make_constrained_sin_problem(1, 2.0, 1.0), {
        "aux_f": "quadratic", "aux_h": "inverse", "aux_B": "inverse", "alpha": 0.5}),
}

GOLDEN = {
    "sin-con": "f476b80ede88221cb4eff275cdf2ea77def6dca7490ee088f058883a3c9a63b3",
    "sin-opt": "ba7ae731b37aa347d27956befbe973b1a10e755895a6d72c212d6ebc7c887b8b",
    "step-n1000": "77ba52ff1d542eac1425bfd2f98800663f4d085e2d2660d66e2f9dc338202cbd",
    "constrained-sin-pessimistic": "4c72a4b458fef47dcf340914f0c1a3d14dc76f005a6e4c21e44e79470fe935b5",
    "constrained-truncated-log": "cfbe428ad204b2139be50dbb24cf2fb226b1324fc25eb388e87b426426f2b84d",
    "dynamic-shift": "4a2afc14593f4f4268722f705df2b50b090faaab9b7fec13ac67aee84f8d5657",
    "pessimistic-sin": "b8919b05a9732fba60fc06dac51f73ac7dc6721d854d33714d59fac5c9e778c2",
    "polynomial": "f5f9a303aeecb0baebb280ca622d1e5e1a8f4d8ebf83a98875cfbecb45e29622",
    "truncated-log": "14af8ff0fd52b53296b0619e0b5eca10ebd67464421db5b0c4912bbb17e89238",
    "ul-constraint": "b387786918b5784f6cb4f8a05335e377afdd2d045c5f95e14fac3e9a7bd95c3f",
    "ul-constraint-quadratic": "ba7ae731b37aa347d27956befbe973b1a10e755895a6d72c212d6ebc7c887b8b",
    "wall-recovery": "00124b98424e7a0dcabab88014710e22a51e5cca7c866b5fd8ce4594ef8bdecb",
}


def _config(name):
    bench, overrides = CASES[name]
    return bench, build_solver_config({"bvfsm": {"K": K, **overrides}}, bench)


def trace_digest(trace) -> str:
    """sha256 of every record's values and iterates, as exact bytes."""
    h = hashlib.sha256()
    for r in trace.records:
        h.update(repr((r.k, r.l, r.F_value, r.f_value, r.ul_grad_norm,
                       r.rel_err_x, r.rel_err_F)).encode())
        h.update(r.x.tobytes() + r.y.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_short_solve_trace_is_unchanged(name):
    bench, cfg = _config(name)
    trace = solve(bench.problem, cfg, bench.x0, bench.y0, reference=bench.reference)
    digest = trace_digest(trace)
    assert digest == GOLDEN[name], f"{name}: trace digest is now {digest}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_rule_same_from_solved_and_hand_built_state(name):
    # 20 stages into the schedule, where the barriers are stiff; the hand-built
    # state carries only what a caller can know: iterates, f* and the shifts
    bench, cfg = _config(name)
    sched = cfg.schedule
    for _ in range(20):
        sched = schedule_step(sched)
    x = bench.x0
    inner = solve_inner(bench.problem, x, sched, cfg, z0=bench.y0, y0=bench.y0)
    bare = InnerState(z=inner.z, f_star_approx=inner.f_star_approx, y=inner.y,
                      shift_f=inner.shift_f, shifts_H=inner.shifts_H, shifts_h=inner.shifts_h)
    g_solved = ul_gradient_for(bench.problem, x, inner, sched, cfg)
    g_bare = ul_gradient_for(bench.problem, x, bare, sched, cfg)
    assert np.array_equal(g_solved, g_bare)
    assert np.isfinite(g_solved).all()
