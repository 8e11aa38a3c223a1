import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from bvfsm import (
    AuxiliaryFunction,
    BilevelProblem,
    FeasibleSet,
    InverseBarrier,
    Mode,
    NonFiniteEvaluation,
    QuadraticPenalty,
    ScalarField,
    ScheduleState,
    SolverConfig,
    StaticShift,
    TruncatedLogBarrier,
    make_sin_problem,
    parse_aux,
    solve,
    solve_inner,
    solve_penalized_inner,
    solve_regularized_ll,
    ul_gradient_for,
)
from bvfsm.auxfun import schedule_step
from bvfsm.solver import MAX_HALVINGS, InnerState, _descend

from oracles import fd_of_phi, grid_argmin, penalized_value

QP = AuxiliaryFunction(QuadraticPenalty())
INV_MOD = AuxiliaryFunction(InverseBarrier(), modified=True)


def field(m, n, fn, gx, gy, name=""):
    return ScalarField(m=m, n=n, fn=fn, grad_x=gx, grad_y=gy, name=name)


def shifted_quadratic_problem(b, F_fn=None, F_gx=None, F_gy=None, mode=Mode.OPTIMISTIC):
    """f(x, y) = 0.5 |y - b|^2 (x enters F only)."""
    n = len(b)
    b = np.asarray(b, dtype=float)
    f = field(1, n,
              lambda x, y: 0.5 * float((y - b) @ (y - b)),
              lambda x, y: np.zeros(1),
              lambda x, y: y - b)
    F = field(1, n,
              F_fn or (lambda x, y: 0.5 * float(y @ y)),
              F_gx or (lambda x, y: np.zeros(1)),
              F_gy or (lambda x, y: y))
    return BilevelProblem(m=1, n=n, F=F, f=f, mode=mode)


# ---------------------------------------------------------------------------
# regularized LL solve
# ---------------------------------------------------------------------------


def test_z_solve_unregularized_quadratic():
    prob = shifted_quadratic_problem([1.5, -0.5])
    cfg = SolverConfig(T_z=2000, step_z=0.2, schedule=ScheduleState(mu=1e-12))
    z, f_star, _ = solve_regularized_ll(prob.problem if hasattr(prob, "problem") else prob,
                                     np.zeros(1), cfg.schedule, cfg)
    assert np.allclose(z, [1.5, -0.5], atol=1e-6)
    assert f_star == pytest.approx(0.0, abs=1e-6)


def test_z_solve_regularized_closed_form():
    b = np.array([2.0, -1.0])
    prob = shifted_quadratic_problem(b)
    mu = 0.5
    cfg = SolverConfig(T_z=4000, step_z=0.2, schedule=ScheduleState(mu=mu))
    z, f_star, _ = solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg)
    assert np.allclose(z, b / (1 + mu), atol=1e-8)
    expect = 0.5 * float((z - b) @ (z - b)) + 0.5 * mu * float(z @ z)
    assert f_star == pytest.approx(expect, abs=1e-12)


def test_z_solve_restoration_steps_past_every_walled_constraint():
    # Both bands y_i <= 1 start 2 past their walls.  Stepping along both
    # normals at once clears them in 21 moves of 0.1, within the budget of
    # 4 * T_z + MAX_HALVINGS = 34 moves.  Stepping along only the constraints
    # value() reached before its first wall would clear them one after the
    # other, in 42 moves, and give up.
    def band(i):
        return field(1, 2, lambda x, y: float(y[i]) - 1.0, lambda x, y: np.zeros(1),
                     lambda x, y: np.eye(2)[i])

    f = field(1, 2, lambda x, y: 0.5 * float(y @ y), lambda x, y: np.zeros(1), lambda x, y: y)
    prob = BilevelProblem(m=1, n=2, F=f, f=f, ll_constraints=(band(0), band(1)))
    cfg = SolverConfig(T_z=1, step_z=0.1, aux_B=AuxiliaryFunction(InverseBarrier()))
    z, f_star, args = solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, np.full(2, 3.0))
    assert math.isfinite(f_star)
    assert len(args) == 2 and all(w < 0.0 for w in args)
    assert np.array_equal(args, [h(np.zeros(1), z) for h in prob.ll_constraints])


def test_z_solve_sin_against_grid_oracle():
    # f = sin(x + y - 2) at x = 0 with mu = 0.1; oracle is a dense 1-D grid
    f = field(1, 1,
              lambda x, y: math.sin(x[0] + y[0] - 2.0),
              lambda x, y: np.array([math.cos(x[0] + y[0] - 2.0)]),
              lambda x, y: np.array([math.cos(x[0] + y[0] - 2.0)]))
    F = field(1, 1, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(1))
    prob = BilevelProblem(m=1, n=1, F=F, f=f)
    mu = 0.1
    cfg = SolverConfig(T_z=4000, step_z=0.1, schedule=ScheduleState(mu=mu))
    z, f_star, _ = solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, z0=np.zeros(1))
    y_grid, v_grid = grid_argmin(lambda y: math.sin(y[0] - 2.0) + 0.05 * y[0] ** 2)
    assert abs(z[0] - y_grid[0]) <= 0.05
    assert f_star == pytest.approx(v_grid, abs=1e-3)


# ---------------------------------------------------------------------------
# penalized inner solve
# ---------------------------------------------------------------------------


def test_y_solve_plain_quadratic():
    # F = 0.5|y|^2 with an everywhere-inactive penalty and theta ~ 0 -> y ~ 0
    f = field(1, 2, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(2))
    F = field(1, 2, lambda x, y: 0.5 * float(y @ y),
              lambda x, y: np.zeros(1), lambda x, y: y)
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    sched = ScheduleState(mu=1e-10, theta=1e-12, sigma1=1.0)
    cfg = SolverConfig(T_y=4000, step_y=0.2, schedule=sched, aux_f=QP)
    inner = solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, np.array([1.0, 1.0]))
    assert np.allclose(inner.y, [0.0, 0.0], atol=1e-3)


def test_y_solve_pessimistic_ascent():
    # Pessimistic: F = -0.5|y - b|^2, ascent with inactive penalty -> y -> b
    b = np.array([0.7, -0.3])
    f = field(1, 2, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(2))
    F = field(1, 2,
              lambda x, y: -0.5 * float((y - b) @ (y - b)),
              lambda x, y: np.zeros(1),
              lambda x, y: -(y - b))
    prob = BilevelProblem(m=1, n=2, F=F, f=f, mode=Mode.PESSIMISTIC)
    sched = ScheduleState(mu=1e-10, theta=1e-12, sigma1=1.0)
    cfg = SolverConfig(T_y=4000, step_y=0.2, schedule=sched, aux_f=QP)
    inner = solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, np.zeros(2))
    assert np.allclose(inner.y, b, atol=1e-3)


def test_y_solve_sin_against_grid_oracle():
    # T_y-step descent started in the optimum's basin lands on the global
    # minimizer of the penalized objective, checked by a dense 2-D grid.
    bench = make_sin_problem(2, 2.0, 2.0)
    prob = bench.problem
    x = np.array([2.4749])
    sched = ScheduleState(mu=0.01, theta=0.01, sigma1=0.01)
    cfg = SolverConfig(T_z=4000, step_z=0.1, T_y=30000, step_y=0.002,
                       schedule=sched, aux_f=QP)
    inner = solve_inner(prob, x, sched, cfg, z0=np.zeros(2), y0=np.array([4.0, 4.0]))

    # 2-D grid oracle over the same stage-frozen penalized objective
    f_star = inner.f_star_approx
    ys = np.linspace(-8.0, 12.0, 2001)
    Y1, Y2 = np.meshgrid(ys, ys, indexing="ij")
    w = np.sin(x[0] + Y1 - 2.0) + np.sin(x[0] + Y2 - 2.0) - f_star
    pen = np.where(w > 0, w * w / (2 * 0.01), 0.0)
    obj = (Y1 - 4.0) ** 2 + (Y2 - 4.0) ** 2 + pen + 0.005 * (Y1**2 + Y2**2)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    y_grid = np.array([ys[i], ys[j]])
    assert np.all(np.abs(inner.y - y_grid) <= 0.05)

    # proximity to the bilevel optimum is limited by the mu-regularization
    # cushion (~0.22 here), so only a coarse bound is meaningful
    y_star = np.array([4.23746, 4.23746])
    assert np.all(np.abs(inner.y - y_star) <= 0.25)


def counting_field(fld, counts):
    """``fld`` with its value and y-gradient calls tallied in ``counts``."""
    def fn(x, y):
        counts["val"] += 1
        return fld.fn(x, y)

    def gy(x, y):
        counts["gy"] += 1
        return fld.grad_y(x, y)

    return ScalarField(m=fld.m, n=fld.n, fn=fn, grad_x=fld.grad_x, grad_y=gy, name=fld.name)


class _QuadStage:
    """A stage stand-in: value v'Av/2 and gradient Av for A = diag(a), or a wall."""

    def __init__(self, a=2.0, walled=False):
        self.a, self.walled, self.trials, self.grads = a, walled, [], 0

    def value(self, v):
        self.trials.append(v)
        return (math.inf if self.walled else 0.5 * float(v @ (self.a * v))), None

    def gradient(self, v, args):
        self.grads += 1
        return self.a * v


class _ScriptedStage:
    """A stage stand-in whose trials return ``values`` in turn, gradient 1 everywhere.

    From v = 0 every trial lands on -step, so ``steps`` reads the trial steps.
    """

    def __init__(self, values):
        self.values, self.trials = iter(values), []

    def value(self, v):
        self.trials.append(v)
        return next(self.values), None

    def gradient(self, v, args):
        return np.ones(1)

    def steps(self):
        return [-float(v[0]) for v in self.trials]


def test_descend_pins_after_max_halvings():
    # ulp(0) is the least subnormal, so from cur = 0 no step reaches the
    # rounding floor: a wall that rejects every trial pins the iterate
    stage = _QuadStage(walled=True)
    v, cur, _ = _descend(stage, np.ones(2), 0.0, None, 3, 0.01, "unused")
    assert len(stage.trials) == MAX_HALVINGS + 1  # one step's trials, then pinned
    assert np.array_equal(v, np.ones(2)) and cur == 0.0


def test_descend_stops_at_the_rounding_floor():
    # from cur = 1 with |g|^2 = 1, every trial rejected: each backtrack cuts
    # the step by at most 10x, and the first step <= ulp(1) ends the solve
    stage = _ScriptedStage(itertools.repeat(2.0))
    v, cur, args = _descend(stage, np.zeros(1), 1.0, "args", 3, 1.0, "unused")
    steps = stage.steps()
    assert len(steps) < MAX_HALVINGS + 1
    assert math.ulp(1.0) < steps[-1] <= 10.0 * math.ulp(1.0)
    assert np.array_equal(v, [0.0]) and cur == 1.0 and args == "args"


def test_descend_returns_accepted_step():
    # |v|^2 from v = 1 along -2: step 1 lands on -1, whose value 1 <= 1 is accepted
    stage = _QuadStage()
    v, cur, _ = _descend(stage, np.ones(1), 1.0, None, 1, 1.0, "unused")
    assert len(stage.trials) == 1
    assert np.array_equal(v, [-1.0])
    assert cur == 1.0


def test_descend_backtracks_to_the_line_minimizer_of_a_quadratic():
    # A = diag(1, 3) from v = (1, 1): g = (1, 3), and along -g the value is
    # 2 - 10 s + 14 s^2, minimized at s = 10/28.  The first trial (s = 1,
    # value 6) is rejected; halving would try s = 0.5.
    a = np.array([1.0, 3.0])
    stage, v0 = _QuadStage(a), np.ones(2)
    v, cur, _ = _descend(stage, v0, 2.0, None, 1, 1.0, "unused")
    g = a * v0
    s_min = float(g @ g) / float(g @ (a * g))
    assert len(stage.trials) == 2
    assert np.allclose(stage.trials[1], v0 - s_min * g, rtol=0.0, atol=1e-14)
    assert np.array_equal(v, stage.trials[1])
    assert cur == pytest.approx(2.0 - 10.0 * s_min + 14.0 * s_min**2, rel=1e-14)


def test_descend_backtracking_stays_in_a_tenth_to_a_half_of_the_step():
    # from cur = 0 with |g|^2 = 1: a trial 1e6 too high fits a step of 5e-7,
    # clamped to 0.1 s; a trial a denormal too high fits s/2
    stage = _ScriptedStage([1e6, 5e-324, 0.0])
    v, cur, _ = _descend(stage, np.zeros(1), 0.0, None, 1, 1.0, "unused")
    steps = stage.steps()
    assert steps[:2] == [1.0, 0.1]
    assert steps[2] == pytest.approx(0.05, rel=1e-12)
    assert cur == 0.0 and np.array_equal(v, stage.trials[2])


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_descend_halves_after_a_wall_or_nan_trial(bad):
    # a finite rejection sets up the quadratic model (step 1 -> 0.1); a wall
    # or NaN trial after it is not fitted: the next step is exactly half
    stage = _ScriptedStage([1e6, bad, 0.0])
    _descend(stage, np.zeros(1), 0.0, None, 1, 1.0, "unused")
    assert stage.steps() == [1.0, 0.1, 0.05]


def test_descend_does_not_try_a_step_below_the_rounding_floor():
    # |g|^2 = 1e-40 is below ulp(cur = 0.5e-20): no trial is evaluated
    stage = _QuadStage(1e-20)
    v, cur, args = _descend(stage, np.ones(1), 0.5e-20, "args", 1, 1.0, "unused")
    assert stage.trials == []
    assert np.array_equal(v, [1.0]) and cur == 0.5e-20 and args == "args"


def test_descend_takes_one_gradient_when_it_starts_at_the_rounding_floor():
    stage = _QuadStage(1e-20)
    _descend(stage, np.ones(1), 0.5e-20, None, 5, 1.0, "unused")
    assert stage.grads == 1 and stage.trials == []


def test_descend_evaluates_and_accepts_a_no_op_step_above_the_floor():
    # value a/2 (v^2 - 1), zero at v = 1; step * g = 1e-20 underflows against
    # v = 1, so the trial is v itself, but 1e-20 is far above ulp(0)
    class Stage(_QuadStage):
        def value(self, v):
            self.trials.append(v)
            return 0.5 * float(v @ (self.a * v)) - 0.5e-20, "trial args"

    stage = Stage(1e-20)
    v0 = np.ones(1)
    v, cur, args = _descend(stage, v0, 0.0, "args", 1, 1.0, "unused")
    assert len(stage.trials) == 1 and np.array_equal(stage.trials[0], v0)
    assert np.array_equal(v, v0) and cur == 0.0 and args == "trial args"


def test_descend_evaluates_a_trial_one_ulp_away():
    # a = (-eps, 0) from v = (1, 1): the trial moves the first entry up by one ulp
    eps = np.spacing(1.0)
    stage = _QuadStage(np.array([-eps, 0.0]))
    v, cur, _ = _descend(stage, np.ones(2), -0.5 * eps, None, 1, 1.0, "unused")
    assert len(stage.trials) == 1
    assert np.array_equal(v, [np.nextafter(1.0, 2.0), 1.0])
    assert np.array_equal(v, stage.trials[0]) and cur < -0.5 * eps


def test_descend_rejects_a_non_finite_first_gradient():
    stage = _QuadStage(np.array([math.nan]))
    with pytest.raises(NonFiniteEvaluation, match="bad gradient"):
        _descend(stage, np.ones(1), 0.0, None, 3, 1.0, "bad gradient")
    assert stage.grads == 1 and stage.trials == []


def test_y_solve_without_halving_is_fixed_step_descent():
    # F = 0.5 y'Dy with an inactive penalty.  Every first trial descends, and
    # so would a doubled step (2 * 0.1 * 3.05 < 2): a step memory that ever
    # started above step_y would leave the fixed-step sequence.
    d = np.array([1.0, 3.0])
    counts = {"val": 0, "gy": 0}
    f = field(1, 2, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(2))
    F = counting_field(field(1, 2, lambda x, y: 0.5 * float(y @ (d * y)),
                             lambda x, y: np.zeros(1), lambda x, y: d * y), counts)
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    sched = ScheduleState(theta=0.05, sigma1=1.0)
    cfg = SolverConfig(T_y=40, step_y=0.1, schedule=sched, aux_f=QP)
    y0 = np.array([1.0, -2.0])
    inner = solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, y0)
    assert counts == {"val": cfg.T_y + 1, "gy": cfg.T_y}  # one trial per step
    y = y0.copy()
    for _ in range(cfg.T_y):
        y = y - cfg.step_y * (d * y + sched.theta * y)
    assert np.array_equal(inner.y, y)


def test_late_stage_sin_y_solve_evaluations_per_gradient():
    # A1 profile 2000 stages in: the inverse barrier is stiff enough that
    # restarting every search at step_y costs ~15 F evaluations per gradient
    bench = make_sin_problem(2, 2.0, 2.0)
    cfg = SolverConfig(schedule=ScheduleState(sigma2=StaticShift(2.0, (1 / 1.01) ** 0.6)),
                       aux_f=parse_aux("inverse", modified=True))
    sched = cfg.schedule
    for _ in range(2000):
        sched = schedule_step(sched)
    counts = {"val": 0, "gy": 0}
    prob = replace(bench.problem, F=counting_field(bench.problem.F, counts))
    x, y0 = bench.reference.x_star, bench.reference.y_star
    _, f_star, _ = solve_regularized_ll(prob, x, sched, cfg, z0=y0)
    solve_penalized_inner(prob, x, f_star, sched, cfg, y0)
    # the solve ends at the rounding floor: 19 evaluations, against 29 when
    # no-op steps were skipped and 46 when each one paid
    assert counts["gy"] <= cfg.T_y
    assert counts["val"] / cfg.T_y <= 1.5


def test_a9_step_y_solve_stops_at_the_rounding_floor():
    # the A9 point (sin n=1000, x = 8, y0 = 0): after 5 accepted steps the
    # next trial's predicted decrease is under one ulp of the stage value, and
    # the solve ends; trying on to T_y took 24 gradients and 51 F evaluations
    from bvfsm.cli import build_solver_config
    from bvfsm.problems import parse_problem

    bench = parse_problem("sin:n=1000,a=2,c=2,m=1")
    cfg = build_solver_config({}, bench)
    counts = {"val": 0, "gy": 0}
    prob = replace(bench.problem, F=counting_field(bench.problem.F, counts))
    x, y0 = np.full(1, 8.0), np.zeros(1000)
    _, f_star, _ = solve_regularized_ll(prob, x, cfg.schedule, cfg, z0=y0)
    solve_penalized_inner(prob, x, f_star, cfg.schedule, cfg, y0)
    assert counts["gy"] <= 6 and counts["val"] <= 17  # the start value included


def test_late_stage_constrained_sin_evaluations_per_gradient():
    # A3 profile in its last stage, near the solution (y* sits on the band's
    # wall, so the iterate starts 0.05 inside): interpolated backtracking
    # takes at most 1.52 f evaluations per z-step and 2.32 F evaluations per
    # y-step; the bounds fail step halving's 2.26 and 2.84
    from bvfsm import make_constrained_sin_problem

    bench = make_constrained_sin_problem(2, 2.0, 1.0)
    decay = 1 / 1.01
    cfg = SolverConfig(schedule=ScheduleState(sigma2=StaticShift(2.0, decay**0.6),
                                              sigma2_h=StaticShift(0.02, decay**0.5)),
                       aux_f=parse_aux("quadratic"),
                       aux_h=parse_aux("inverse", modified=True),
                       aux_B=parse_aux("inverse"))
    sched = cfg.schedule
    for _ in range(2000):
        sched = schedule_step(sched)
    x, y0 = bench.reference.x_star, bench.reference.y_star + 0.05
    z_counts = {"val": 0, "gy": 0}
    prob = replace(bench.problem, f=counting_field(bench.problem.f, z_counts))
    _, f_star, _ = solve_regularized_ll(prob, x, sched, cfg, z0=y0)
    y_counts = {"val": 0, "gy": 0}
    prob = replace(bench.problem, F=counting_field(bench.problem.F, y_counts))
    solve_penalized_inner(prob, x, f_star, sched, cfg, y0)
    assert z_counts["gy"] <= cfg.T_z and y_counts["gy"] <= cfg.T_y
    assert z_counts["val"] / cfg.T_z <= 1.8
    assert y_counts["val"] / cfg.T_y <= 2.6


# ---------------------------------------------------------------------------
# UL gradients: trivial regimes
# ---------------------------------------------------------------------------


def test_ul_gradient_zero_penalty_region():
    # argument f - f* < 0 with a penalty: indirect term vanishes
    prob = shifted_quadratic_problem(
        [1.0], F_fn=lambda x, y: (x[0] - 1.0) ** 2 + float(y @ y),
        F_gx=lambda x, y: np.array([2.0 * (x[0] - 1.0)]),
        F_gy=lambda x, y: 2.0 * y)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = SolverConfig(schedule=sched, aux_f=QP)
    inner = InnerState(z=np.array([1.0 / 1.1]), f_star_approx=0.3, y=np.array([1.0]))
    # f(x, y=b) = 0 < 0.3 -> quadratic penalty derivative is 0
    g = ul_gradient_for(prob, np.array([0.5]), inner, sched, cfg)
    assert np.allclose(g, [2.0 * (0.5 - 1.0)])


def test_ul_gradient_f_independent_of_x():
    prob = shifted_quadratic_problem(
        [0.0], F_fn=lambda x, y: x[0] ** 2 + float(y @ y),
        F_gx=lambda x, y: np.array([2.0 * x[0]]),
        F_gy=lambda x, y: 2.0 * y)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = SolverConfig(schedule=sched, aux_f=QP)
    inner = InnerState(z=np.zeros(1), f_star_approx=0.0, y=np.array([2.0]))
    g = ul_gradient_for(prob, np.array([3.0]), inner, sched, cfg)
    assert np.allclose(g, [6.0])  # G = 0 since df/dx = 0 at both y and z


def test_ul_gradient_inactive_ul_constraint():
    # H(x, y) = x - 10 under a quadratic penalty at x << 10 contributes nothing
    base = shifted_quadratic_problem(
        [1.0], F_fn=lambda x, y: (x[0] - 1.0) ** 2 + float(y @ y),
        F_gx=lambda x, y: np.array([2.0 * (x[0] - 1.0)]),
        F_gy=lambda x, y: 2.0 * y)
    H = field(1, 1, lambda x, y: x[0] - 10.0,
              lambda x, y: np.ones(1), lambda x, y: np.zeros(1), name="cap")
    prob = BilevelProblem(m=1, n=1, F=base.F, f=base.f, ul_constraints=(H,))
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = SolverConfig(schedule=sched, aux_f=QP, aux_H=QP)
    inner = InnerState(z=np.array([0.4]), f_star_approx=0.05, y=np.array([0.8]),
                       shifts_H=np.zeros(1), shifts_h=np.zeros(0))
    x = np.array([0.2])
    pruned = BilevelProblem(m=1, n=1, F=base.F, f=base.f)
    assert np.array_equal(
        ul_gradient_for(prob, x, inner, sched, cfg),
        ul_gradient_for(pruned, x, inner, sched, cfg),
    )


def test_pessimistic_ul_gradient_trivial_regimes():
    prob = shifted_quadratic_problem(
        [0.0], F_fn=lambda x, y: x[0] ** 2 - float(y @ y),
        F_gx=lambda x, y: np.array([2.0 * x[0]]),
        F_gy=lambda x, y: -2.0 * y, mode=Mode.PESSIMISTIC)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = SolverConfig(schedule=sched, aux_f=QP)
    inner = InnerState(z=np.zeros(1), f_star_approx=0.0, y=np.array([1.0]))
    g = ul_gradient_for(prob, np.array([2.0]), inner, sched, cfg)
    assert np.allclose(g, [4.0])


# ---------------------------------------------------------------------------
# gradient fidelity against finite differences of the penalized value function
# ---------------------------------------------------------------------------


def _toy_problem(pessimistic=False):
    """F = (x-1)^2 +- y^2, f = (y-x)^2; 1-D smooth toy."""
    sF = -1.0 if pessimistic else 1.0
    F = field(1, 1,
              lambda x, y: (x[0] - 1.0) ** 2 + sF * y[0] ** 2,
              lambda x, y: np.array([2.0 * (x[0] - 1.0)]),
              lambda x, y: np.array([sF * 2.0 * y[0]]))
    f = field(1, 1,
              lambda x, y: (y[0] - x[0]) ** 2,
              lambda x, y: np.array([-2.0 * (y[0] - x[0])]),
              lambda x, y: np.array([2.0 * (y[0] - x[0])]))
    return BilevelProblem(m=1, n=1, F=F, f=f,
                          mode=Mode.PESSIMISTIC if pessimistic else Mode.OPTIMISTIC)


def _accurate_cfg(sched, aux_f, **kw):
    # budgets sized for ~1e-10 inner accuracy on the 1-D toys
    return SolverConfig(T_z=3000, step_z=0.2, T_y=6000, step_y=0.05,
                        schedule=sched, aux_f=aux_f, **kw)


@pytest.mark.parametrize("pessimistic", [False, True])
def test_gradient_fidelity_smooth_toy(pessimistic):
    prob = _toy_problem(pessimistic)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = _accurate_cfg(sched, QP)

    def phi(xv):
        return penalized_value(prob, np.array([xv]), sched, QP, np.zeros(1),
                               pessimistic=pessimistic)

    worst = 0.0
    for xv in np.linspace(-1.5, 2.5, 21):
        x = np.array([xv])
        inner = solve_inner(prob, x, sched, cfg, z0=np.zeros(1))
        g = ul_gradient_for(prob, x, inner, sched, cfg)
        num = fd_of_phi(phi, xv, eps=1e-5)
        denom = max(abs(num), 1e-8)
        worst = max(worst, abs(g[0] - num) / denom)
    assert worst <= 1e-3, f"worst rel err {worst:.2e}"


def test_gradient_fidelity_modified_barrier_static_shift():
    prob = _toy_problem()
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1, sigma2=StaticShift(0.5))
    cfg = _accurate_cfg(sched, INV_MOD)

    def phi(xv):
        return penalized_value(prob, np.array([xv]), sched, INV_MOD, np.zeros(1),
                               shift_f=0.5)

    worst = 0.0
    for xv in np.linspace(-1.0, 2.0, 21):
        x = np.array([xv])
        inner = solve_inner(prob, x, sched, cfg, z0=np.zeros(1))
        assert inner.shift_f == pytest.approx(0.5)  # no safeguard pad when feasible
        g = ul_gradient_for(prob, x, inner, sched, cfg)
        num = fd_of_phi(phi, xv, eps=1e-5)
        worst = max(worst, abs(g[0] - num) / max(abs(num), 1e-8))
    assert worst <= 1e-3, f"worst rel err {worst:.2e}"


@pytest.mark.parametrize("mode", [Mode.OPTIMISTIC, Mode.PESSIMISTIC],
                         ids=["optimistic", "pessimistic"])
def test_gradient_fidelity_constrained_interior(mode):
    # constrained sin instance at n=1, probed strictly inside the band; the
    # pessimistic variant checks the sign of the constraint and LL-barrier
    # terms of the chain rule on fewer probes of the same interval
    from dataclasses import replace

    from bvfsm import make_constrained_sin_problem

    bench = make_constrained_sin_problem(1, 2.0, 1.0)
    prob = replace(bench.problem, mode=mode)
    pessimistic = mode is Mode.PESSIMISTIC
    invb = AuxiliaryFunction(InverseBarrier())
    inv_mod = AuxiliaryFunction(InverseBarrier(), modified=True)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1,
                          sigma2=StaticShift(0.5), sigma2_h=StaticShift(0.3))
    cfg = _accurate_cfg(sched, inv_mod, aux_h=inv_mod, aux_B=invb)

    def phi(xv):
        return penalized_value(prob, np.array([xv]), sched, inv_mod,
                               np.array([0.4 - xv]),  # interior start
                               shift_f=0.5, aux_h=inv_mod, shifts_h=np.array([0.3]),
                               kind_B=invb.kind, pessimistic=pessimistic)

    worst = 0.0
    for xv in np.linspace(-0.3, 0.3, 5 if pessimistic else 21):
        x = np.array([xv])
        y_feas = np.array([0.4 - xv])
        inner = solve_inner(prob, x, sched, cfg, z0=y_feas, y0=y_feas)
        g = ul_gradient_for(prob, x, inner, sched, cfg)
        num = fd_of_phi(phi, xv, eps=1e-5)
        worst = max(worst, abs(g[0] - num) / max(abs(num), 1e-8))
    assert worst <= 1e-3, f"worst rel err {worst:.2e}"


# ---------------------------------------------------------------------------
# outer loop behavior
# ---------------------------------------------------------------------------


def test_solve_k_zero_returns_initial_record_only():
    prob = _toy_problem()
    cfg = SolverConfig(K=0, schedule=ScheduleState(), aux_f=QP)
    tr = solve(prob, cfg, [1.3], [0.0])
    assert len(tr.records) == 1
    assert np.allclose(tr.records[0].x, [1.3])


def test_solve_projects_every_iterate_into_box():
    base = _toy_problem()
    prob = BilevelProblem(m=1, n=1, F=base.F, f=base.f,
                          ul_set=FeasibleSet.box([0.0], [0.6]))
    cfg = SolverConfig(K=40, T_z=50, T_y=25, schedule=ScheduleState(), aux_f=QP)
    tr = solve(prob, cfg, [5.0], [0.0])
    for rec in tr.records:
        assert 0.0 <= rec.x[0] <= 0.6


def test_solve_schedule_snapshot_strictly_decreasing():
    prob = _toy_problem()
    cfg = SolverConfig(K=10, T_z=10, T_y=10, schedule=ScheduleState(decay=0.9), aux_f=QP)
    tr = solve(prob, cfg, [0.5], [0.0])
    mus = [r.mu for r in tr.records[1:] if r.l >= 1]  # per-stage records only
    assert all(b < a for a, b in zip(mus, mus[1:]))
    times = [r.wall_time_s for r in tr.records]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_solve_zero_penalty_regime_reduces_to_direct_gradient():
    # f's minimizer coincides with F's pull: penalty argument stays <= 0 and
    # the UL gradient equals dF/dx at every recorded step
    b = np.array([1.2])
    f = field(1, 1,
              lambda x, y: 0.5 * float((y - b) @ (y - b)),
              lambda x, y: np.zeros(1),
              lambda x, y: y - b)
    F = field(1, 1,
              lambda x, y: (x[0] - 3.0) ** 2 + float((y - b) @ (y - b)),
              lambda x, y: np.array([2.0 * (x[0] - 3.0)]),
              lambda x, y: 2.0 * (y - b))
    prob = BilevelProblem(m=1, n=1, F=F, f=f)
    cfg = SolverConfig(K=30, T_z=200, step_z=0.3, T_y=200, step_y=0.3,
                       schedule=ScheduleState(mu=0.05, theta=1e-8, sigma1=0.05),
                       aux_f=QP)
    tr = solve(prob, cfg, [0.0], b.copy())
    stage_recs = [r for r in tr.records if r.l >= 1]
    xs = [tr.records[0].x[0]] + [r.x[0] for r in stage_recs]
    for x_prev, rec in zip(xs, stage_recs):
        assert rec.ul_grad_norm == pytest.approx(abs(2.0 * (x_prev - 3.0)), rel=1e-9)


def _negated(f):
    """The field -f, oracle by oracle."""
    return field(f.m, f.n, lambda x, y: -f.fn(x, y),
                 lambda x, y: -np.asarray(f.grad_x(x, y), dtype=float),
                 lambda x, y: -np.asarray(f.grad_y(x, y), dtype=float))


def test_pessimistic_matches_optimistic_on_negated_F_bitwise():
    pess = _toy_problem(pessimistic=True)
    opt_neg = BilevelProblem(m=1, n=1, F=_negated(pess.F), f=pess.f)
    sched = ScheduleState(mu=0.3, theta=0.3, sigma1=0.3)
    cfg = SolverConfig(T_z=50, T_y=25, schedule=sched, aux_f=QP)
    x = np.array([0.7])
    z0 = np.zeros(1)
    inner_p = solve_inner(pess, x, sched, cfg, z0=z0)
    inner_o = solve_inner(opt_neg, x, sched, cfg, z0=z0)
    assert np.array_equal(inner_p.y, inner_o.y)
    assert inner_p.f_star_approx == inner_o.f_star_approx
    g_p = ul_gradient_for(pess, x, inner_p, sched, cfg)
    g_o = ul_gradient_for(opt_neg, x, inner_o, sched, cfg)
    # pessimistic descent step equals the negated-update optimistic step
    assert np.array_equal(x - cfg.alpha * g_p, x + cfg.alpha * g_o)


def test_solve_recovers_from_ul_step_into_barrier_wall(monkeypatch):
    # A long UL step (alpha=0.5) on the constrained sin problem, with plain
    # inverse barriers on h and B, lands some stages outside the LL wall; the
    # solver retries them from the previous x with halved moves.
    import bvfsm.solver as solver_mod
    from bvfsm import make_constrained_sin_problem

    bench = make_constrained_sin_problem(1, 2.0, 1.0)
    inv = AuxiliaryFunction(InverseBarrier())
    cfg = SolverConfig(K=60, alpha=0.5, aux_f=QP, aux_h=inv, aux_B=inv)
    calls = 0
    real_solve_inner = solver_mod.solve_inner

    def counting_solve_inner(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_solve_inner(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_inner", counting_solve_inner)
    tr = solve(bench.problem, cfg, bench.x0, bench.y0, reference=bench.reference)
    assert calls > cfg.K  # some stages needed retries
    assert len(tr.records) == cfg.K + 2  # every stage completed, plus the polish
    final = tr.final
    assert np.all(np.isfinite(final.x)) and math.isfinite(final.F_value)


def test_solve_wraps_non_finite_evaluation_during_ul_retry(monkeypatch):
    # The second stage meets a wall, and its first retry meets a non-finite
    # value: the solve stops with SolveError and the partial trace, just as a
    # non-finite value at the first attempt does.
    import bvfsm.solver as solver_mod
    from bvfsm import BarrierWall, SolveError

    real_solve_inner = solver_mod.solve_inner
    outcomes = [None, BarrierWall("stage started outside a wall"),
                NonFiniteEvaluation("retry value non-finite")]

    def stub(*args, **kwargs):
        exc = outcomes.pop(0)
        if exc is not None:
            raise exc
        return real_solve_inner(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_inner", stub)
    cfg = SolverConfig(K=5, T_z=3, T_y=3, aux_f=QP)
    with pytest.raises(SolveError, match="retry value non-finite") as exc:
        solve(_toy_problem(), cfg, [0.5], [0.0])
    assert (exc.value.k, exc.value.l) == (1, 0)
    assert [(r.k, r.l) for r in exc.value.trace.records] == [(0, 0), (0, 1)]
    assert not outcomes


def test_constrained_sin_from_far_start_restores_without_warnings(recwarn):
    # From x0 = 8, y0 = 0 every band x + y_i in [0, 1] is far outside its
    # wall.  The z-solve steps back inside along the walled normals, and the
    # solve meets A3's bar with no overflow on the way.
    from bvfsm import make_constrained_sin_problem
    from bvfsm.cli import build_solver_config

    bench = make_constrained_sin_problem(2, 2.0, 1.0)
    cfg = build_solver_config({}, bench)
    assert cfg.K == 2000
    tr = solve(bench.problem, cfg, [8.0], np.zeros(2), reference=bench.reference)
    assert abs(tr.final.x[0] + 2.0 / 3.0) < 0.1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_start_point(bad, recwarn):
    from bvfsm import NonFiniteEvaluation, make_constrained_sin_problem

    bench = make_constrained_sin_problem(2, 2.0, 1.0)
    cfg = SolverConfig(K=2, aux_f=QP)
    with pytest.raises(NonFiniteEvaluation, match="non-finite entries"):
        solve(bench.problem, cfg, bench.x0, [bad, 0.5])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solve_timeout_carries_partial_trace():
    from bvfsm import SolveTimeout

    prob = _toy_problem()
    cfg = SolverConfig(K=10_000, T_z=200, T_y=200, schedule=ScheduleState(),
                       aux_f=QP, wall_clock_cap_s=0.05)
    with pytest.raises(SolveTimeout) as exc:
        solve(prob, cfg, [0.5], [0.0])
    assert len(exc.value.trace.records) >= 1


def test_solver_config_validation():
    from bvfsm import InvalidParameter

    with pytest.raises(InvalidParameter):
        SolverConfig(T_y=0)
    with pytest.raises(InvalidParameter):
        SolverConfig(aux_B=AuxiliaryFunction(QuadraticPenalty()))
    with pytest.raises(InvalidParameter):
        SolverConfig(aux_B=AuxiliaryFunction(TruncatedLogBarrier(1.0), modified=True))


# ---------------------------------------------------------------------------
# finiteness checks
# ---------------------------------------------------------------------------


def _bad_gradient_problem(bad, where, constrained=False):
    """f = 0.5|y|^2 and F = 0.5|y|^2 on n = 2, with one gradient replaced by ``bad``."""
    def grad(name, good):
        return (lambda x, y: np.full_like(good(x, y), bad)) if name == where else good

    f = field(1, 2, lambda x, y: 0.5 * float(y @ y),
              grad("f.gx", lambda x, y: np.zeros(1)), grad("f.gy", lambda x, y: y.copy()))
    F = field(1, 2, lambda x, y: 0.5 * float(y @ y),
              grad("F.gx", lambda x, y: np.zeros(1)), grad("F.gy", lambda x, y: y.copy()))
    hs = ()
    if constrained:  # y @ y <= 100: inactive near the start point
        hs = (field(1, 2, lambda x, y: float(y @ y) - 100.0,
                    lambda x, y: np.zeros(1), lambda x, y: 2.0 * y),)
    return BilevelProblem(m=1, n=2, F=F, f=f, ll_constraints=hs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("constrained", [False, True], ids=["plain", "constrained"])
def test_z_solve_rejects_non_finite_gradient(bad, constrained):
    from bvfsm import NonFiniteEvaluation

    prob = _bad_gradient_problem(bad, "f.gy", constrained)
    cfg = SolverConfig(T_z=3)
    with pytest.raises(NonFiniteEvaluation, match="z-solve"):
        solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, np.ones(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_y_solve_rejects_non_finite_gradient(bad):
    from bvfsm import NonFiniteEvaluation

    prob = _bad_gradient_problem(bad, "F.gy")
    sched = ScheduleState()
    cfg = SolverConfig(T_y=3, schedule=sched, aux_f=QP)
    with pytest.raises(NonFiniteEvaluation, match="y-solve"):
        solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, np.ones(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_rejects_non_finite_ul_gradient(bad):
    from bvfsm import SolveError

    prob = _bad_gradient_problem(bad, "F.gx")
    cfg = SolverConfig(K=2, T_z=3, T_y=3, aux_f=QP)
    with pytest.raises(SolveError, match="UL gradient non-finite"):
        solve(prob, cfg, np.zeros(1), np.ones(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_baseline_check_rejects_non_finite_gradient(bad):
    from bvfsm import NonFiniteEvaluation, ll_descent

    prob = _bad_gradient_problem(bad, "f.gy")
    with pytest.raises(NonFiniteEvaluation, match="LL gradient at step 0"):
        ll_descent(prob, np.zeros(1), np.ones(2), steps=3, step_size=0.1)


def _nan_valued(field_):
    return replace(field_, fn=lambda x, y: math.nan)


def test_z_solve_nan_start_value_is_not_a_wall():
    from bvfsm import NonFiniteEvaluation, SolveError, make_constrained_sin_problem

    bench = make_constrained_sin_problem(1)
    prob = replace(bench.problem, f=_nan_valued(bench.problem.f))
    cfg = SolverConfig(K=1, T_z=3, T_y=3)
    with pytest.raises(NonFiniteEvaluation):
        solve_regularized_ll(prob, bench.x0, cfg.schedule, cfg, bench.y0)
    with pytest.raises(SolveError, match="non-finite"):
        solve(prob, cfg, bench.x0, bench.y0)


def test_y_solve_nan_start_value_is_not_a_wall():
    from bvfsm import NonFiniteEvaluation, make_constrained_sin_problem

    bench = make_constrained_sin_problem(1)
    prob = replace(bench.problem, F=_nan_valued(bench.problem.F))
    cfg = SolverConfig(T_z=3, T_y=3)
    z, f_star, _ = solve_regularized_ll(prob, bench.x0, cfg.schedule, cfg, bench.y0)
    with pytest.raises(NonFiniteEvaluation, match="stage start"):
        solve_penalized_inner(prob, bench.x0, f_star, cfg.schedule, cfg, z)
