"""Golden traces of short solves, on the benchmark's own paths and on paths it does not run.

Each case is a short solve whose trace must stay bit for bit the same: a
refactor of the inner solves or the chain rule that changes any rounding
shows up here as a new digest.  Three cases follow the benchmark workloads
(``perfbench/workloads.py``): the sin-opt setup and the default sin-con
profile, both cut to K = 30 stages, and the one-stage n = 1000 point of
step-n1000.  The other eight cover paths the benchmark does not run.  Each
digest was last recorded when a change moved that case's rounding:
ul-constraint-quadratic when its cap was lowered from 6 to 3, so that its
penalty term is active; constrained-sin-pessimistic, sin-con, step-n1000 and
wall-recovery when the guarded inner loop began to stop at the rounding floor;
sin-opt when the benchmark cases were added, just before the plain descent
loop moved into ``core``; the others before the stage object replaced the
written-out penalized sums in ``solver.py``.  A deliberate
change re-records a case by copying the digest its failure prints.
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


def _with_ul_constraint(bench, cap):
    """The sin problem with the UL constraint y_0 <= cap."""
    n = bench.problem.n

    def gy(x, y):
        g = np.zeros(n)
        g[0] = 1.0
        return g

    H = ScalarField(m=1, n=n, fn=lambda x, y: float(y[0]) - cap,
                    grad_x=lambda x, y: np.zeros(1), grad_y=gy, name="cap")
    return replace(bench, problem=replace(bench.problem, ul_constraints=(H,)))


def _pessimistic(bench):
    return replace(bench, problem=replace(bench.problem, mode=Mode.PESSIMISTIC))


STATIC = {"sigma2": {"value": 2.0, "decay_pow": 0.6}}

CASES = {
    # the benchmark workloads sin-opt, sin-con and step-n1000
    "sin-opt": (make_sin_problem(2), {}),
    "sin-con": (make_constrained_sin_problem(2, 2.0, 1.0), {}),
    "step-n1000": (replace(make_sin_problem(1000), y0=np.zeros(1000)), {"K": 1}),
    "pessimistic-sin": (make_pessimistic_sin_problem(2), {}),
    "constrained-sin-pessimistic": (_pessimistic(make_constrained_sin_problem(2, 2.0, 1.0)), {}),
    "ul-constraint": (_with_ul_constraint(make_sin_problem(2), 6.0), {
        "aux_H": {"name": "inverse", "modified": True},
        "schedule": {**STATIC, "sigma2_H": {"value": 0.5}}}),
    # the y-solve starts from the z-solve's (3.59, 3.59): y_0 <= 3 is violated
    # there, so the quadratic penalty is active (under y_0 <= 6 it would add 0)
    "ul-constraint-quadratic": (_with_ul_constraint(make_sin_problem(2), 3.0),
                                {"aux_H": "quadratic"}),
    "truncated-log": (make_sin_problem(2), {
        "aux_f": {"name": "truncated-log:0.5", "modified": True}, "schedule": STATIC}),
    "polynomial": (make_sin_problem(2), {"aux_f": "polynomial:3"}),
    "constrained-truncated-log": (make_constrained_sin_problem(2, 2.0, 1.0), {
        "aux_h": {"name": "truncated-log:0.5", "modified": True}, "aux_B": "truncated-log"}),
    # alpha = 0.5 strands some stages outside the LL wall: the UL recovery
    # retries them, and the z-solve's restoration phase runs
    "wall-recovery": (make_constrained_sin_problem(1, 2.0, 1.0), {
        "aux_f": "quadratic", "aux_h": "inverse", "aux_B": "inverse", "alpha": 0.5}),
}

GOLDEN = {
    "sin-con": "c225fda02f6985eb2bcd4ac590ef0b33886f5c6d12dd9802b601d326f2463fe8",
    "sin-opt": "ba7ae731b37aa347d27956befbe973b1a10e755895a6d72c212d6ebc7c887b8b",
    "step-n1000": "289ae87f51be5723bcf520603c9fa039694ac0f93617fceeb3e6de58b2e5951b",
    "constrained-sin-pessimistic": "97e5b5218457746927891b5f993f53d7efb2e7ec4481433b4f8be9d344a2e47f",
    "constrained-truncated-log": "cfbe428ad204b2139be50dbb24cf2fb226b1324fc25eb388e87b426426f2b84d",
    "pessimistic-sin": "b8919b05a9732fba60fc06dac51f73ac7dc6721d854d33714d59fac5c9e778c2",
    "polynomial": "f5f9a303aeecb0baebb280ca622d1e5e1a8f4d8ebf83a98875cfbecb45e29622",
    "truncated-log": "14af8ff0fd52b53296b0619e0b5eca10ebd67464421db5b0c4912bbb17e89238",
    "ul-constraint": "b387786918b5784f6cb4f8a05335e377afdd2d045c5f95e14fac3e9a7bd95c3f",
    "ul-constraint-quadratic": "adc734cb6565ac2675de5a906647445d29a3b21579dbaa67904eed46adaf9580",
    "wall-recovery": "8da4c311572a4be3dbddfa091218e852630074ea5e5cab22e097c03b1adac78f",
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
