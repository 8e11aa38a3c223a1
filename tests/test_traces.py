"""Golden traces of short solves, on the benchmark's own paths and on paths it does not run.

Each case is a short solve whose trace must stay bit for bit the same: a
refactor of the inner solves or the chain rule that changes any rounding
shows up here as a new digest.  Three cases follow the benchmark workloads
(``perfbench/workloads.py``): the sin-opt setup and the default sin-con
profile, both cut to K = 30 stages, and the one-stage n = 1000 point of
step-n1000.  The other eight cover paths the benchmark does not run.  Every
digest was recorded when the z-solve moved onto the guarded loop and each
inner solve's step began to grow up to the secant curvature: every inner
solve now ends at its rounding floor, so every iterate moved.  In the same
change ``rel_err_x`` became a Python float, whose repr the digests hash, and
ul-constraint-quadratic's cap fell from 3 to 2, so that its penalty term
stays active.  Eight were re-recorded when a trial past a barrier wall began
to step to the barrier model's minimizer instead of halving, and the z-solve
of the sin and pessimistic sin profiles began at the step 1/2: sin-opt,
step-n1000, polynomial, truncated-log, ul-constraint and
ul-constraint-quadratic run the sin profile, pessimistic-sin runs the
pessimistic one, and pessimistic-sin, step-n1000 and wall-recovery have
trials past a wall.  sin-con and the two constrained cases kept their
digests.  wall-recovery alone was re-recorded when each y-solve after the
first began at twice the first step the last stage's y-solve accepted:
its UL step alpha = 0.5 makes two of its y-solves backtrack from their
first trial, so 13 later ones start below step_y.  In every other case
each y-solve accepts its first trial, step_y, and the rule starts the next
one at step_y again.  All but wall-recovery and step-n1000 were re-recorded
when each y-solve from the third stage on began to descend from the secant
prediction 2 y_k - y_(k-1) wherever the frozen stage is no higher there:
in those nine cases later y-solves start elsewhere.  step-n1000 has one
stage and gets no prediction, and in wall-recovery none of the 28
predictions is as low as the plain start.  ul-constraint alone was
re-recorded when every modified term began to take the one shift sequence
sigma2: its H barrier had its own sequence, 0.5 stepped by sqrt(decay),
and now takes the sin profile's 2.0 stepped by decay ** 0.6; the parent with that H sequence set to sigma2 gives
the same digest.  A deliberate change re-records
a case by copying the digest its failure prints.
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
    solve_regularized_ll,
    ul_gradient_for,
)
from bvfsm.auxfun import schedule_step
from bvfsm.cli import build_solver_config
from bvfsm.solver import _Stage

from oracles import chain_rule, unpadded_shifts

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


STATIC = {"sigma2": 2.0, "sigma2_pow": 0.6}

CASES = {
    # the benchmark workloads sin-opt, sin-con and step-n1000
    "sin-opt": (make_sin_problem(2), {}),
    "sin-con": (make_constrained_sin_problem(2, 2.0, 1.0), {}),
    "step-n1000": (replace(make_sin_problem(1000), y0=np.zeros(1000)), {"K": 1}),
    "pessimistic-sin": (make_pessimistic_sin_problem(2), {}),
    "constrained-sin-pessimistic": (_pessimistic(make_constrained_sin_problem(2, 2.0, 1.0)), {}),
    "ul-constraint": (_with_ul_constraint(make_sin_problem(2), 6.0),
                      {"aux_H": {"name": "inverse", "modified": True}}),
    # F pulls y toward (4, 4), and without the cap y_0 reaches 2.73 by the
    # third stage: under y_0 <= 2 the quadratic penalty is active in 28 of
    # the 30 stages (under y_0 <= 3 it would add 0)
    "ul-constraint-quadratic": (_with_ul_constraint(make_sin_problem(2), 2.0),
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
    "sin-con": "810b8a2b221cf28c28c6bdca4c3cdec52d3243c61f77af823212fc2484a57eb9",
    "sin-opt": "f8ad963584fa82bb18aa83c4a9fbe0fd819eaf08b79e9a584ea2b8e13be6fc0a",
    "step-n1000": "8dda501814815dfd078926ed54bb9226ce6d82040e6d4eb9cb0dc38984517ca3",
    "constrained-sin-pessimistic": "7951f62cb38ff12b42e68dc0fea9afb488ab4c654764d92b109e693d4f173594",
    "constrained-truncated-log": "aacb3b9604f3d0cbd684ceb0df2f7d7bf4e48385b99bba0ef1209c633c578adf",
    "pessimistic-sin": "a648a3e7e68dfdcf4d9f27cf823cd383b10763508515196e523b6bfb1984843a",
    "polynomial": "f0555296bd64f0fb9dd06f64ecf121bb2c3b11aa810d7a21fbed5fa771224fc3",
    "truncated-log": "e89138a9d4fba2e2063c405734ca6bc1d417728289a745af8bc2f6d1893e7550",
    "ul-constraint": "8b530cf6cf122f8e39255f948a61ea59e22befb4334fcca2e2984bf9991ee7d3",
    "ul-constraint-quadratic": "830f1febceece80affe29e9bb21de90fea7284c59b0c02b0207fc166d92f580c",
    "wall-recovery": "bb909806a05104e8bdf8d4831b7aeff49db209e7016a3e11267787d5409c1844",
}


# The chain-rule check's cases beyond the golden ones: in no golden case is
# lam_f nonzero with LL constraints, so none reaches the LL-barrier term of
# df*/dx.  A modified barrier on f - f* does.
MODIFIED_F = {"aux_f": {"name": "inverse", "modified": True}, "schedule": STATIC}
LL_BARRIER_CASES = {
    "constrained-modified-f": (make_constrained_sin_problem(2, 2.0, 1.0), MODIFIED_F),
    "constrained-modified-f-pessimistic": (
        _pessimistic(make_constrained_sin_problem(2, 2.0, 1.0)), MODIFIED_F),
}


def _config(name):
    bench, overrides = CASES[name] if name in CASES else LL_BARRIER_CASES[name]
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


@pytest.mark.parametrize("name", sorted(CASES) + sorted(LL_BARRIER_CASES))
def test_chain_rule_same_from_solved_and_hand_built_state(name):
    # 20 stages into the schedule, where the barriers are stiff; the formula
    # is given a hand-built state, only what a caller can know (iterates, f*
    # and the shifts), and evaluates every multiplier from the fields that
    # the solves' penalty arguments came from
    bench, cfg = _config(name)
    sched = cfg.schedule
    for _ in range(20):
        sched = schedule_step(sched)
    x, prob = bench.x0, bench.problem
    inner = solve_inner(prob, x, sched, cfg, z0=bench.y0, y0=bench.y0)
    shifts = [shift for _, _, shift, _, _ in inner.stage.terms]
    n_H = len(prob.ul_constraints)
    shifts = (shifts[0], shifts[1:1 + n_H], shifts[1 + n_H:])
    g_solved = ul_gradient_for(prob, x, inner, sched, cfg)
    g_formula = chain_rule(prob, x, inner.z, inner.y, inner.f_star_approx, shifts, sched, cfg)
    assert np.array_equal(g_solved, g_formula)
    assert np.isfinite(g_solved).all()


# Each kind of y-stage term under the one shift sequence: (golden case, the
# term's index in the stage, its SolverConfig field, a y inside its wall, a y
# outside it), all at x = 0.  ul-constraint's f and H and sin-con's h are
# modified inverse barriers under sigma2.
SHIFT_TERMS = {
    "f": ("ul-constraint", 0, "aux_f", None, [2.0 + np.pi / 2] * 2),  # None: at z; f = 2 out
    "H": ("ul-constraint", 1, "aux_H", [0.0, 0.0], [7.0, 0.0]),
    "h": ("sin-con", 1, "aux_h", [0.5, 0.5], [1.5, 0.5]),
}


@pytest.mark.parametrize("term", sorted(SHIFT_TERMS))
def test_every_shift_is_frozen_by_one_rule(term):
    # Inside its wall a modified term takes the unpadded shift phi_k takes;
    # outside, the pad is exactly the violation; unmodified, no shift at all.
    name, j, aux, y_in, y_out = SHIFT_TERMS[term]
    bench, cfg = _config(name)
    prob, sched, x = bench.problem, cfg.schedule, np.zeros(1)
    z, f_star, _ = solve_regularized_ll(prob, x, sched, cfg, bench.y0)
    fields = (prob.f, *prob.ul_constraints, *prob.ll_constraints)
    base = f_star if j == 0 else 0.0

    def shift_and_violation(y, cfg):
        raw = [c(x, y) for c in fields]
        stage = _Stage.penalized(prob, x, sched, cfg, f_star, raw)
        return stage.terms[j][2], raw[j] - base

    unpadded = unpadded_shifts(prob, cfg, sched)[j]
    assert unpadded > 0.0
    shift, violation = shift_and_violation(z if y_in is None else np.array(y_in), cfg)
    assert violation < 0.0 and shift == unpadded
    shift, violation = shift_and_violation(np.array(y_out), cfg)
    assert violation > 0.0 and shift == unpadded + violation
    plain = replace(cfg, **{aux: replace(getattr(cfg, aux), modified=False)})
    assert shift_and_violation(np.array(y_out), plain)[0] == 0.0
