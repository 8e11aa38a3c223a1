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
each y-solve accepted its first trial, step_y, and the rule started the
next one at step_y again.  All but wall-recovery and step-n1000 were re-recorded
when each y-solve from the third stage on began to descend from the secant
prediction 2 y_k - y_(k-1) wherever the frozen stage is no higher there:
in those nine cases later y-solves start elsewhere.  step-n1000 has one
stage and gets no prediction, and in wall-recovery none of the 28
predictions is as low as the plain start.  ul-constraint alone was
re-recorded when every modified term began to take the one shift sequence
sigma2: its H barrier had its own sequence, 0.5 stepped by sqrt(decay),
and now takes the sin profile's 2.0 stepped by decay ** 0.6; the parent with that H sequence set to sigma2 gives
the same digest.  All but step-n1000 were re-recorded when each y-solve
after the first stopped capping its first trial, twice the first step the
last stage's y-solve accepted, at step_y: in each of the ten cases of
several stages that double exceeds step_y at some stage, so the next
y-solve starts higher and the iterates move.  step-n1000 has one stage, so
it never reads the memory.  A deliberate change re-records a case by
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
    solve_regularized_ll,
    ul_gradient_for,
)
from bvfsm import solver as solver_module
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
    "sin-con": "e45a680d571e120936e8aebc89605c49f9dd2a9b82d272e2d78e20b7d3894008",
    "sin-opt": "e7fc701612be036769fd6bafd9d519ecc129ba5f3d495961eab7e6c3edbfc564",
    "step-n1000": "d925def0d8fd94367eac30ed67aa0cb62e3aee6c5e0df2be13ca58e5fd86e7cb",
    "constrained-sin-pessimistic": "f5d8ffb6b21281cc90af6412a3fdfedd9acc204afde42418c148f5502ad9653a",
    "constrained-truncated-log": "f5859d5ed86c945016ff5d88d456ab538e0dabf51bab41578d2540e0909d70e1",
    "pessimistic-sin": "559db3e02ef7b775e58fe82449d6684aab2256985c3fcf9ac461a6193b1d9fc8",
    "polynomial": "bf5e0d9e5efa45a85cd55cd5ff5d76f84de4466a44c5c757ad90244966045b10",
    "truncated-log": "80930e64663abdcc13b9e566b0ed4f4688c1a99751833f23f2e57369aeea11b5",
    "ul-constraint": "3a676ee00835915b85b7da2d376a86751e295076b6b293750e913b2947e4f654",
    "ul-constraint-quadratic": "fe1891a1c37fcbfd35f806a8de6e2f4ef82f5be67d90dc2a991d692653d7afd4",
    "wall-recovery": "1ea328538fe143659d573922343d2aa2cdde96d3a027ede3e2c154af7ceec3eb",
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


# The z-path digests of the golden cases whose trace cannot see the z-solve.
# In constrained-sin-pessimistic the f-term multiplier lam_f is 0 at every
# stage (its quadratic penalty is never active) and pessimistic mode has no
# polish, so neither z nor f* reaches the trace: a change to every z-solve
# left its trace digest as it was.
Z_PATH_GOLDEN = {
    "constrained-sin-pessimistic": "1f6022a828c70e65df17fbc784892467d196bb460546add3cd3246cd1e8075c1",
}


@pytest.mark.parametrize("name", sorted(Z_PATH_GOLDEN))
def test_short_solve_z_path_is_unchanged(name, monkeypatch):
    # sha256 of each solve_inner call's f* and z, as exact bytes, in order
    bench, cfg = _config(name)
    h, inner_solve = hashlib.sha256(), solver_module.solve_inner

    def recorded(*args, **kwargs):
        inner = inner_solve(*args, **kwargs)
        h.update(repr(inner.f_star_approx).encode() + inner.z.tobytes())
        return inner

    monkeypatch.setattr(solver_module, "solve_inner", recorded)
    solve(bench.problem, cfg, bench.x0, bench.y0, reference=bench.reference)
    digest = h.hexdigest()
    assert digest == Z_PATH_GOLDEN[name], f"{name}: z-path digest is now {digest}"


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
    z, f_star, _, _ = solve_regularized_ll(prob, x, sched, cfg, bench.y0)
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
