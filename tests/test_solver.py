import collections
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from bvfsm import (
    AuxiliaryFunction,
    BaselineConfig,
    BilevelProblem,
    FeasibleSet,
    InverseBarrier,
    Mode,
    NonFiniteEvaluation,
    QuadraticPenalty,
    ScalarField,
    ScheduleState,
    SolverConfig,
    TruncatedLogBarrier,
    make_constrained_sin_problem,
    make_sin_problem,
    parse_aux,
    solve,
    solve_inner,
    solve_penalized_inner,
    solve_regularized_ll,
    ul_gradient_for,
)
from bvfsm import solver as solver_module
from bvfsm.auxfun import BarrierWall, schedule_step
from bvfsm.cli import build_solver_config
from bvfsm.problems import SIN_SOLVER_PROFILE
from bvfsm.solver import MAX_HALVINGS, InnerState, _descend, _Stage

from oracles import fixed_step_descent, grid_min, toy_problem, tracking_problem, worst_fd_error

QP = AuxiliaryFunction(QuadraticPenalty())
INV_MOD = AuxiliaryFunction(InverseBarrier(), modified=True)


def field(m, n, fn, gx, gy, name=""):
    return ScalarField(m=m, n=n, fn=fn, grad_x=gx, grad_y=gy, name=name)


def counting(fld, calls):
    """``fld`` with each oracle call tallied in the Counter ``calls`` under (name, kind)."""
    def counted(fn, kind):
        def wrapped(x, y):
            calls[fld.name, kind] += 1
            return fn(x, y)
        return wrapped

    return replace(fld, fn=counted(fld.fn, "val"), grad_x=counted(fld.grad_x, "gx"),
                   grad_y=counted(fld.grad_y, "gy"))


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
    z, f_star, _, _ = solve_regularized_ll(prob.problem if hasattr(prob, "problem") else prob,
                                     np.zeros(1), cfg.schedule, cfg)
    assert np.allclose(z, [1.5, -0.5], atol=1e-6)
    assert f_star == pytest.approx(0.0, abs=1e-6)


def test_z_solve_regularized_closed_form():
    b = np.array([2.0, -1.0])
    prob = shifted_quadratic_problem(b)
    mu = 0.5
    cfg = SolverConfig(T_z=4000, step_z=0.2, schedule=ScheduleState(mu=mu))
    z, f_star, _, _ = solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg)
    assert np.allclose(z, b / (1 + mu), atol=1e-8)
    expect = 0.5 * float((z - b) @ (z - b)) + 0.5 * mu * float(z @ z)
    assert f_star == pytest.approx(expect, abs=1e-12)


def _two_bands():
    """f = F = |y|^2 / 2 on n = 2 under the LL bands y_i <= 1."""
    def band(i):
        return field(1, 2, lambda x, y: float(y[i]) - 1.0, lambda x, y: np.zeros(1),
                     lambda x, y: np.eye(2)[i])

    f = field(1, 2, lambda x, y: 0.5 * float(y @ y), lambda x, y: np.zeros(1), lambda x, y: y)
    return BilevelProblem(m=1, n=2, F=f, f=f, ll_constraints=(band(0), band(1)))


def test_z_solve_restoration_steps_past_every_walled_constraint():
    # Both bands y_i <= 1 start 2 past their walls.  Stepping along both
    # normals at once clears them in 21 moves of 0.1, within the budget of
    # 4 * T_z + MAX_HALVINGS = 34 moves.  Stepping along only the constraints
    # value() reached before its first wall would clear them one after the
    # other, in 42 moves, and give up.
    prob = _two_bands()
    cfg = SolverConfig(T_z=1, step_z=0.1, aux_B=AuxiliaryFunction(InverseBarrier()))
    z, f_star, args, _ = solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, np.full(2, 3.0))
    assert math.isfinite(f_star)
    assert len(args) == 2 and all(w < 0.0 for w in args)
    assert np.array_equal(args, [h(np.zeros(1), z) for h in prob.ll_constraints])


def test_z_solve_start_that_restoration_cannot_bring_inside_is_a_wall():
    # With moves of 0.01 the bands need 201 moves, past the budget of 34: the
    # z-solve still starts at a wall, which the outer loop may retry.
    # sin-constrained meets this at n = 50.
    prob = _two_bands()
    cfg = SolverConfig(T_z=1, step_z=0.01, aux_B=AuxiliaryFunction(InverseBarrier()))
    with pytest.raises(BarrierWall, match="^z-solve starts at a barrier wall$"):
        solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, np.full(2, 3.0))


def test_z_solve_restoration_stops_when_no_constraint_is_walled():
    # f is +inf everywhere, so the value is inf at a start inside the band:
    # no wall, and no normal to step along.  The first pass of the loop sees
    # that, after one h call for the start value and one for the wall test,
    # and reports the value, not a wall (230 futile passes made 461 calls).
    bench = make_constrained_sin_problem(1, 2.0, 1.0)
    calls = collections.Counter()
    (h,) = bench.problem.ll_constraints
    f = replace(bench.problem.f, fn=lambda x, y: math.inf)
    prob = replace(bench.problem, f=f, ll_constraints=(counting(h, calls),))
    cfg = build_solver_config({}, bench)
    with pytest.raises(NonFiniteEvaluation, match="^z-solve value non-finite$"):
        solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, np.full(1, 0.5))
    assert calls == {("band[0]", "val"): 2}


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
    z, f_star, _, _ = solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, z0=np.zeros(1))
    v_grid, y_grid = grid_min(lambda y: math.sin(y[0] - 2.0) + 0.05 * y[0] ** 2,
                              -20.0, 20.0, 2001, rounds=1)
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
    y, _, _, _ = solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, np.array([1.0, 1.0]))
    assert np.allclose(y, [0.0, 0.0], atol=1e-3)


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
    y, _, _, _ = solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, np.zeros(2))
    assert np.allclose(y, b, atol=1e-3)


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
    v, cur, *_ = _descend(stage, np.ones(2), 0.0, None, 3, 0.01, "unused")
    assert len(stage.trials) == MAX_HALVINGS + 1  # one step's trials, then pinned
    assert np.array_equal(v, np.ones(2)) and cur == 0.0


def test_descend_stops_at_the_rounding_floor():
    # from cur = 1 with |g|^2 = 1, every trial rejected: each backtrack cuts
    # the step by at most 10x, and the first step <= ulp(1) ends the solve
    stage = _ScriptedStage(itertools.repeat(2.0))
    v, cur, args, *_ = _descend(stage, np.zeros(1), 1.0, "args", 3, 1.0, "unused")
    steps = stage.steps()
    assert len(steps) < MAX_HALVINGS + 1
    assert math.ulp(1.0) < steps[-1] <= 10.0 * math.ulp(1.0)
    assert np.array_equal(v, [0.0]) and cur == 1.0 and args == "args"


def test_descend_returns_accepted_step():
    # |v|^2 from v = 1 along -2: step 1 lands on -1, whose value 1 <= 1 is accepted
    stage = _QuadStage()
    v, cur, *_ = _descend(stage, np.ones(1), 1.0, None, 1, 1.0, "unused")
    assert len(stage.trials) == 1
    assert np.array_equal(v, [-1.0])
    assert cur == 1.0


def test_descend_backtracks_to_the_line_minimizer_of_a_quadratic():
    # A = diag(1, 3) from v = (1, 1): g = (1, 3), and along -g the value is
    # 2 - 10 s + 14 s^2, minimized at s = 10/28.  The first trial (s = 1,
    # value 6) is rejected; halving would try s = 0.5.
    a = np.array([1.0, 3.0])
    stage, v0 = _QuadStage(a), np.ones(2)
    v, cur, *_ = _descend(stage, v0, 2.0, None, 1, 1.0, "unused")
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
    v, cur, *_ = _descend(stage, np.zeros(1), 0.0, None, 1, 1.0, "unused")
    steps = stage.steps()
    assert steps[:2] == [1.0, 0.1]
    assert steps[2] == pytest.approx(0.05, rel=1e-12)
    assert cur == 0.0 and np.array_equal(v, stage.trials[2])


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_descend_halves_after_a_wall_or_nan_trial(bad):
    # a finite rejection sets up the quadratic model (step 1 -> 0.1); a wall
    # or NaN trial after it that names no penalty argument, as the stand-in's
    # do not, is not fitted: the next step is exactly half
    stage = _ScriptedStage([1e6, bad, 0.0])
    _descend(stage, np.zeros(1), 0.0, None, 1, 1.0, "unused")
    assert stage.steps() == [1.0, 0.1, 0.05]


def _barrier_line_stage(a, sigma, kind, trials=None, nan_past_wall=False):
    """The stage -a v + P(v - 1): a linear objective against a wall at v = 1.

    Each point its value is taken at is appended to ``trials``.  With
    ``nan_past_wall`` the linear part is NaN beyond the wall.
    """
    def lead_fn(x, y):
        if trials is not None:
            trials.append(float(y[0]))
        return math.nan if nan_past_wall and y[0] > 1.0 else -a * float(y[0])

    lead = field(1, 1, lead_fn, None, lambda x, y: np.full(1, -a))
    c = field(1, 1, lambda x, y: float(y[0]) - 1.0, None, lambda x, y: np.ones(1))
    return _Stage(np.zeros(1), False, lead, 0.0, sigma, ((c, 0.0, 0.0, kind.rho, kind.drho),),
                  False)


def test_descend_backtracks_from_a_crossed_wall_to_the_barrier_models_minimizer():
    # -4v - 1/(v - 1) from v = 0: g = -3, and the first trial (step 0.5)
    # lands on v = 1.5, past the wall.  The line and the walled argument are
    # both linear, so the model is exact and its minimizer, v = 1 - 1/2, is
    # the next trial; halving would have accepted v = 0.75.
    trials = []
    stage = _barrier_line_stage(4.0, 1.0, InverseBarrier(), trials)
    v, cur, args, *_ = _descend(stage, np.zeros(1), *stage.value(np.zeros(1)), 1, 0.5, "y-solve")
    assert trials[1] == 1.5 and len(trials) == 3
    assert v[0] == trials[2] == pytest.approx(0.5, abs=1e-10)
    assert cur == pytest.approx(-4.0 * 0.5 + 2.0, abs=1e-9) and args == [v[0] - 1.0]


def test_descend_halves_a_nan_trial_whose_last_argument_crossed_its_wall():
    # as above, but the objective is NaN past the wall: the trial at v = 1.5
    # is NaN, not a wall, though its penalty argument crossed one.  It is
    # halved to exactly 0.25 (v = 0.75), not fitted by the barrier model,
    # whose step would be 1/6 (v = 0.5).
    trials = []
    stage = _barrier_line_stage(4.0, 1.0, InverseBarrier(), trials, nan_past_wall=True)
    v, *_ = _descend(stage, np.zeros(1), *stage.value(np.zeros(1)), 1, 0.5, "y-solve")
    assert math.isnan(stage.value(np.full(1, 1.5))[0])
    assert trials[:3] == [0.0, 1.5, 0.75] and v[0] == 0.75


@pytest.mark.parametrize("kind", [InverseBarrier(), TruncatedLogBarrier(0.5)],
                         ids=["inverse", "truncated-log"])
def test_wall_step_is_inside_the_linearized_wall_where_the_model_is_stationary(kind):
    # for any crossing, the step lands strictly between the start and the
    # linearized wall, at the w where P'(w) = P'(w0) + |g|^2 / b
    rng = np.random.default_rng(7)
    stage = _barrier_line_stage(1.0, 1.0, kind)
    for _ in range(200):
        w0, wt = -10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(-3, 3)
        gg, step = 10.0 ** rng.uniform(-4, 4), 10.0 ** rng.uniform(-4, 1)
        stage.sigma = 10.0 ** rng.uniform(-9, 0)
        got = stage.wall_step([w0], [wt], gg, step)
        b = (wt - w0) / step
        w = w0 + b * got
        assert 0.0 < got and w0 < w < 0.0
        target = kind.drho(w0, stage.sigma) + gg / b
        lo, hi = w - abs(w0) * 2.0 ** -39, min(w + abs(w0) * 2.0 ** -39, -1e-300)
        assert kind.drho(lo, stage.sigma) <= target <= kind.drho(hi, stage.sigma)


def test_descend_does_not_try_a_step_below_the_rounding_floor():
    # |g|^2 = 1e-40 is below ulp(cur = 0.5e-20): no trial is evaluated
    stage = _QuadStage(1e-20)
    v, cur, args, *_ = _descend(stage, np.ones(1), 0.5e-20, "args", 1, 1.0, "unused")
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
    v, cur, args, *_ = _descend(stage, v0, 0.0, "args", 1, 1.0, "unused")
    assert len(stage.trials) == 1 and np.array_equal(stage.trials[0], v0)
    assert np.array_equal(v, v0) and cur == 0.0 and args == "trial args"


def test_descend_evaluates_a_trial_one_ulp_away():
    # a = (-eps, 0) from v = (1, 1): the trial moves the first entry up by one ulp
    eps = np.spacing(1.0)
    stage = _QuadStage(np.array([-eps, 0.0]))
    v, cur, *_ = _descend(stage, np.ones(2), -0.5 * eps, None, 1, 1.0, "unused")
    assert len(stage.trials) == 1
    assert np.array_equal(v, [np.nextafter(1.0, 2.0), 1.0])
    assert np.array_equal(v, stage.trials[0]) and cur < -0.5 * eps


def test_descend_rejects_a_non_finite_first_gradient():
    stage = _QuadStage(np.array([math.nan]))
    with pytest.raises(NonFiniteEvaluation, match="bad gradient"):
        _descend(stage, np.ones(1), 0.0, None, 3, 1.0, "bad gradient")
    assert stage.grads == 1 and stage.trials == []


def test_descend_reports_the_first_step_it_accepted():
    # from cur = 0 with |g|^2 = 1: step 1 is rejected and clamped to 0.1,
    # which is accepted; the next step doubles to 0.2 and is accepted too
    stage = _ScriptedStage([1e6, 0.0, 0.0])
    _, _, _, first, _ = _descend(stage, np.zeros(1), 0.0, None, 2, 1.0, "unused")
    assert stage.steps()[:2] == [1.0, 0.1] and first == 0.1
    # a solve that accepts no trial reports None
    assert _descend(_QuadStage(walled=True), np.ones(1), 0.0, None, 1, 0.01, "unused")[3] is None


def test_descend_first_trial_at_the_rounding_floor_falls_back():
    # a/2 |v|^2 from v = 1 (cur = 1, |g|^2 = 4): a first trial of 1e-300 is
    # under the floor.  Alone it ends the solve untried; with a fallback of
    # 0.5 the solve tries that step instead, and lands on the minimizer.
    stage = _QuadStage()
    v, cur, _, first, _ = _descend(stage, np.ones(1), 1.0, None, 1, 1e-300, "unused")
    assert stage.trials == [] and v[0] == 1.0 and first is None
    v, cur, _, first, _ = _descend(stage, np.ones(1), 1.0, None, 1, 1e-300, "unused", 0.5)
    assert len(stage.trials) == 1 and v[0] == 0.0 and cur == 0.0 and first == 0.5
    # above the floor the fallback is not taken: the first trial is step0
    stage = _QuadStage()
    _, _, _, first, _ = _descend(stage, np.ones(1), 1.0, None, 1, 0.25, "unused", 0.5)
    assert first == 0.25 and stage.trials[0][0] == 0.5


def test_descend_reports_the_trial_its_second_gradient_sets():
    # A = diag(1, 3) from v = (1, 1): g = (1, 3), |g|^2 = 10, and the secant
    # curvature along -g is kappa = g'Ag / |g|^2 = 2.8.  A first step of 0.1
    # is accepted and doubles to 0.2 < 1/kappa; one of 0.3 is accepted too,
    # and 0.6 is capped at 1/kappa = 10/28.  The reported trial is that
    # growth rule's, min(2 s1, 1/kappa), bit for bit.
    a, v0 = np.array([1.0, 3.0]), np.ones(2)
    g0 = a * v0
    gg0 = float(np.vdot(g0, g0))
    for s1, capped in ((0.1, False), (0.3, True)):
        _, _, _, first, second = _descend(_QuadStage(a), v0, 2.0, None, 2, s1, "unused")
        g1 = a * (v0 - s1 * g0)
        inv_kappa = s1 * (gg0 / abs(gg0 - float(np.vdot(g1, g0))))
        assert first == s1 and second == min(2.0 * s1, inv_kappa)
        assert (second == inv_kappa < 2.0 * s1) if capped else (second == 2.0 * s1 < inv_kappa)
    assert math.isclose(inv_kappa, 10.0 / 28.0, rel_tol=1e-12)
    # a solve that takes no second gradient reports None
    assert _descend(_QuadStage(a), v0, 2.0, None, 1, 0.3, "unused")[4] is None


def test_y_solve_without_backtracks_doubles_up_to_the_secant_curvature():
    # F = 0.5 y'Dy with an inactive penalty: the stage objective is 0.5 y'Ay
    # with A = D + theta I.  On a quadratic the secant curvature along the
    # last step is the Rayleigh quotient of A along the gradient it took, so
    # each step is min(2 * last step, |g_p|^2 / g_p'A g_p).  A's condition
    # number is under 2, so every first trial descends.
    d = np.array([1.0, 1.5])
    trials = []
    f = field(1, 2, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(2))

    def F_fn(x, y):
        trials.append(y)
        return 0.5 * float(y @ (d * y))

    F = field(1, 2, F_fn, lambda x, y: np.zeros(1), lambda x, y: d * y)
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    sched = ScheduleState(theta=0.05, sigma1=1.0)
    cfg = SolverConfig(T_y=10, step_y=0.1, schedule=sched, aux_f=QP)
    y0 = np.array([1.0, -2.0])
    y_end, _, _, _ = solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, y0)
    a = d + sched.theta
    y, step, g_prev, want, steps = y0.copy(), cfg.step_y, None, [], []
    for _ in range(cfg.T_y):
        g = a * y
        if g_prev is not None:
            step = min(2.0 * step, float(g_prev @ g_prev) / float(g_prev @ (a * g_prev)))
        y = y - step * g
        g_prev = g
        want.append(y)
        steps.append(step)
    # one trial per step: the start value, then every trial accepted
    assert len(trials) == cfg.T_y + 1
    assert np.allclose(trials[1:], want, rtol=1e-9, atol=0.0)
    assert np.allclose(y_end, want[-1], rtol=1e-9, atol=0.0)
    # three doublings from step_y, then the curvature cap binds
    assert steps[:3] == [0.1, 0.2, 0.4] and steps[3] < 0.8


def test_late_stage_sin_y_solve_evaluations_per_gradient():
    # A1 profile 2000 stages in, where the inverse barrier is stiff.  The
    # y-solve ends at the rounding floor after 11 gradients and 14 F
    # evaluations (the start value included): 13 trials for 11 gradients,
    # 1.18 per gradient.  T_y caps the steps, not the gradients, so the exact
    # counts are pinned rather than a ratio to T_y.
    bench = make_sin_problem(2, 2.0, 2.0)
    cfg = SolverConfig(schedule=ScheduleState(sigma2=2.0, sigma2_pow=0.6),
                       aux_f=parse_aux("inverse", modified=True))
    sched = cfg.schedule
    for _ in range(2000):
        sched = schedule_step(sched)
    calls = collections.Counter()
    prob = replace(bench.problem, F=counting(bench.problem.F, calls))
    x, y0 = bench.reference.x_star, bench.reference.y_star
    _, f_star, _, _ = solve_regularized_ll(prob, x, sched, cfg, z0=y0)
    solve_penalized_inner(prob, x, f_star, sched, cfg, y0)
    assert calls == {("sin-ul", "val"): 14, ("sin-ul", "gy"): 11}


def test_a9_step_y_solve_stops_at_the_rounding_floor():
    # the A9 point (sin n=1000, x = 8, y0 = 0): the first trial crosses the
    # wall of f - f*, and the barrier model's step lands inside it at once;
    # after 4 accepted steps the next trial's predicted decrease is under
    # one ulp of the stage value, and the solve ends.  Halving back from the
    # wall took 6 gradients and 15 F evaluations, and trying on to T_y took
    # 24 and 51.
    from bvfsm.cli import build_solver_config
    from bvfsm.problems import parse_problem

    bench = parse_problem("sin:n=1000,a=2,c=2,m=1")
    cfg = build_solver_config({}, bench)
    calls = collections.Counter()
    prob = replace(bench.problem, F=counting(bench.problem.F, calls))
    x, y0 = np.full(1, 8.0), np.zeros(1000)
    _, f_star, _, _ = solve_regularized_ll(prob, x, cfg.schedule, cfg, z0=y0)
    solve_penalized_inner(prob, x, f_star, cfg.schedule, cfg, y0)
    # the start value included
    assert calls["sin-ul", "gy"] <= 5 and calls["sin-ul", "val"] <= 7


def test_late_stage_constrained_sin_evaluations_per_gradient():
    # A3 profile in its last stage, near the solution (y* sits on the band's
    # wall, so the iterate starts 0.05 inside).  With the start value
    # counted, the z-solve takes 11 gradients and 16 f evaluations (1.45
    # trials per gradient) and the y-solve 6 gradients and 13 F evaluations
    # (2.2 trials per gradient).  A trial past the band's wall backtracks to
    # the barrier model's minimizer; halving took 13 and 24, and 7 and 29.
    # T_z and T_y cap the steps, not the gradients, so the exact counts are
    # pinned rather than a ratio to them.
    from bvfsm import make_constrained_sin_problem

    bench = make_constrained_sin_problem(2, 2.0, 1.0)
    cfg = SolverConfig(schedule=ScheduleState(sigma2=0.02, sigma2_pow=0.5),
                       aux_f=parse_aux("quadratic"),
                       aux_h=parse_aux("inverse", modified=True),
                       aux_B=parse_aux("inverse"))
    sched = cfg.schedule
    for _ in range(2000):
        sched = schedule_step(sched)
    x, y0 = bench.reference.x_star, bench.reference.y_star + 0.05
    calls = collections.Counter()
    prob = replace(bench.problem, f=counting(bench.problem.f, calls))
    _, f_star, _, _ = solve_regularized_ll(prob, x, sched, cfg, z0=y0)
    prob = replace(bench.problem, F=counting(bench.problem.F, calls))
    solve_penalized_inner(prob, x, f_star, sched, cfg, y0)
    assert calls == {("sin-ll", "val"): 16, ("sin-ll", "gy"): 11,  # the z-solve
                     ("sin-ul", "val"): 13, ("sin-ul", "gy"): 6}  # the y-solve


# ---------------------------------------------------------------------------
# UL gradients: trivial regimes
# ---------------------------------------------------------------------------


def _state_at(prob, x, sched, cfg, z, f_star, y):
    """The InnerState the solves would leave at iterates z and y, the y-stage built at y."""
    raw = [c(x, y) for c in (prob.f, *prob.ul_constraints, *prob.ll_constraints)]
    stage = _Stage.penalized(prob, x, sched, cfg, f_star, raw)
    _, args_y = stage.value(y, raw)
    return InnerState(z, f_star, y, [h(x, z) for h in prob.ll_constraints], args_y, stage, None, None)


def test_ul_gradient_zero_penalty_region():
    # argument f - f* < 0 with a penalty: indirect term vanishes
    prob = shifted_quadratic_problem(
        [1.0], F_fn=lambda x, y: (x[0] - 1.0) ** 2 + float(y @ y),
        F_gx=lambda x, y: np.array([2.0 * (x[0] - 1.0)]),
        F_gy=lambda x, y: 2.0 * y)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = SolverConfig(schedule=sched, aux_f=QP)
    x = np.array([0.5])
    inner = _state_at(prob, x, sched, cfg, np.array([1.0 / 1.1]), 0.3, np.array([1.0]))
    # f(x, y=b) = 0 < 0.3 -> quadratic penalty derivative is 0
    g = ul_gradient_for(prob, x, inner, sched, cfg)
    assert np.allclose(g, [2.0 * (0.5 - 1.0)])


def test_ul_gradient_f_independent_of_x():
    prob = shifted_quadratic_problem(
        [0.0], F_fn=lambda x, y: x[0] ** 2 + float(y @ y),
        F_gx=lambda x, y: np.array([2.0 * x[0]]),
        F_gy=lambda x, y: 2.0 * y)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = SolverConfig(schedule=sched, aux_f=QP)
    x = np.array([3.0])
    inner = _state_at(prob, x, sched, cfg, np.zeros(1), 0.0, np.array([2.0]))
    g = ul_gradient_for(prob, x, inner, sched, cfg)
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
    x, z, y = np.array([0.2]), np.array([0.4]), np.array([0.8])
    pruned = BilevelProblem(m=1, n=1, F=base.F, f=base.f)
    assert np.array_equal(
        ul_gradient_for(prob, x, _state_at(prob, x, sched, cfg, z, 0.05, y), sched, cfg),
        ul_gradient_for(pruned, x, _state_at(pruned, x, sched, cfg, z, 0.05, y), sched, cfg),
    )


def test_pessimistic_ul_gradient_trivial_regimes():
    prob = shifted_quadratic_problem(
        [0.0], F_fn=lambda x, y: x[0] ** 2 - float(y @ y),
        F_gx=lambda x, y: np.array([2.0 * x[0]]),
        F_gy=lambda x, y: -2.0 * y, mode=Mode.PESSIMISTIC)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1)
    cfg = SolverConfig(schedule=sched, aux_f=QP)
    x = np.array([2.0])
    inner = _state_at(prob, x, sched, cfg, np.zeros(1), 0.0, np.array([1.0]))
    g = ul_gradient_for(prob, x, inner, sched, cfg)
    assert np.allclose(g, [4.0])


# ---------------------------------------------------------------------------
# gradient fidelity against finite differences of the penalized value function
# ---------------------------------------------------------------------------


def _accurate_cfg(sched, aux_f, **kw):
    # budgets sized for ~1e-10 inner accuracy on the 1-D toys
    return SolverConfig(T_z=3000, step_z=0.2, T_y=6000, step_y=0.05,
                        schedule=sched, aux_f=aux_f, **kw)


def test_gradient_fidelity_modified_barrier_static_shift():
    prob = toy_problem()
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1, sigma2=0.5)
    cfg = _accurate_cfg(sched, INV_MOD)

    def gradient(x):
        inner = solve_inner(prob, x, sched, cfg, z0=np.zeros(1))
        shift_f = inner.stage.terms[0][2]
        assert shift_f == pytest.approx(0.5)  # no safeguard pad when feasible
        return ul_gradient_for(prob, x, inner, sched, cfg)

    worst = worst_fd_error(prob, cfg, np.linspace(-1.0, 2.0, 21), gradient)
    assert worst <= 1e-3, f"worst rel err {worst:.2e}"


@pytest.mark.parametrize("mode", [Mode.PESSIMISTIC], ids=["pessimistic"])
def test_gradient_fidelity_constrained_interior(mode):
    # constrained sin instance at n=1, probed strictly inside the band on 5
    # points of A5's interval: A5 runs the optimistic case, this one checks
    # the sign of the constraint and LL-barrier terms of the chain rule
    from bvfsm import make_constrained_sin_problem

    bench = make_constrained_sin_problem(1, 2.0, 1.0)
    prob = replace(bench.problem, mode=mode)
    invb = AuxiliaryFunction(InverseBarrier())
    inv_mod = AuxiliaryFunction(InverseBarrier(), modified=True)
    sched = ScheduleState(mu=0.1, theta=0.1, sigma1=0.1, sigma2=0.3)
    cfg = _accurate_cfg(sched, inv_mod, aux_h=inv_mod, aux_B=invb)
    worst = worst_fd_error(prob, cfg, np.linspace(-0.3, 0.3, 5), lambda x: ul_gradient_for(
        prob, x, solve_inner(prob, x, sched, cfg, z0=0.4 - x, y0=0.4 - x), sched, cfg))
    assert worst <= 1e-3, f"worst rel err {worst:.2e}"


# ---------------------------------------------------------------------------
# outer loop behavior
# ---------------------------------------------------------------------------


def test_solve_k_zero_returns_initial_record_only():
    prob = toy_problem()
    cfg = SolverConfig(K=0, schedule=ScheduleState(), aux_f=QP)
    tr = solve(prob, cfg, [1.3], [0.0])
    assert len(tr.records) == 1
    assert np.allclose(tr.records[0].x, [1.3])


def test_solve_projects_every_iterate_into_box():
    base = toy_problem()
    prob = BilevelProblem(m=1, n=1, F=base.F, f=base.f,
                          ul_set=FeasibleSet.box([0.0], [0.6]))
    cfg = SolverConfig(K=40, T_z=50, T_y=25, schedule=ScheduleState(), aux_f=QP)
    tr = solve(prob, cfg, [5.0], [0.0])
    for rec in tr.records:
        assert 0.0 <= rec.x[0] <= 0.6


def test_solve_schedule_snapshot_strictly_decreasing():
    prob = toy_problem()
    cfg = SolverConfig(K=10, T_z=10, T_y=10, schedule=ScheduleState(decay=0.9), aux_f=QP)
    tr = solve(prob, cfg, [0.5], [0.0])
    mus = [r.mu for r in tr.records[1:] if r.l >= 1]  # per-stage records only
    assert all(b < a for a, b in zip(mus, mus[1:]))
    times = [r.wall_time_s for r in tr.records]
    assert all(b >= a for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("spec", ["sin:n=2", "sin-constrained:n=2,a=2,c=1",
                                  "sin-pessimistic:n=2"])
def test_L_steps_per_stage_are_L_stages_when_the_schedule_is_held(spec):
    # at decay = 1 every stage has the same schedule, so (K, L) and (K*L, 1)
    # take the same UL steps: every record agrees bit for bit but its label
    from bvfsm.problems import parse_problem

    bench = parse_problem(spec)

    def records(K, L):
        cfg = build_solver_config({"bvfsm": {"K": K, "L": L, "schedule": {"decay": 1}}}, bench)
        return solve(bench.problem, cfg, bench.x0, bench.y0, reference=bench.reference).records

    staged, flat = records(15, 2), records(30, 1)
    # the initial record, 30 UL steps and, optimistic only, the polish
    assert len(staged) == len(flat) == (31 if spec.startswith("sin-pessimistic") else 32)
    for a, b in zip(staged, flat):
        assert (a.x.tobytes(), a.y.tobytes(), a.F_value) == (b.x.tobytes(), b.y.tobytes(),
                                                             b.F_value)


def test_L_steps_per_stage_share_the_stage_schedule():
    from bvfsm.problems import parse_problem

    bench = parse_problem("sin:n=2")
    cfg = build_solver_config({"bvfsm": {"K": 30, "L": 2}}, bench)
    recs = solve(bench.problem, cfg, bench.x0, bench.y0, reference=bench.reference).records
    assert [(r.k, r.l) for r in recs] == \
        [(0, 0)] + [(k, l) for k in range(30) for l in (1, 2)] + [(30, 0)]
    sched = cfg.schedule
    for k in range(30):  # mu is held within a stage and decays across stages
        assert recs[1 + 2 * k].mu == recs[2 + 2 * k].mu == sched.mu
        sched = schedule_step(sched)
    assert recs[1].mu == recs[2].mu == 1.0 > recs[3].mu
    assert recs[-1].mu == sched.mu  # the polish runs at the schedule after K stages


# Oracle calls per field and kind in the K = 30 solves of the sin-opt and
# sin-con golden traces (tests/test_traces.py), the record's two calls per
# stage included.  A change to the loops that adds or drops a call fails here
# by name, even where it keeps every bit of the trace.  Each z-solve after
# the first starts at the step the last one measured, not at step_z: the
# z-solves took 13 more f evaluations and gradients on sin-opt (446 and 384)
# and 29 more of each on sin-con (352 and 291, each band 320 and 291).  Each
# y-solve after the first starts at twice the first step its predecessor
# accepted, no longer capped at step_y: with the cap, the early y-solves
# restarted at step_y and doubled their way back up, and sin-opt took 301 F
# evaluations for 239 gradients (f: 433 and 371), sin-con 195 for 134 (f: 323
# and 262, each band 291 and 262).
SOLVE_ORACLE_CALLS = {
    "sin-opt": {
        ("sin-ul", "val"): 182, ("sin-ul", "gx"): 30, ("sin-ul", "gy"): 98,
        ("sin-ll", "val"): 314, ("sin-ll", "gx"): 60, ("sin-ll", "gy"): 230,
    },
    "sin-con": {
        ("sin-ul", "val"): 180, ("sin-ul", "gx"): 30, ("sin-ul", "gy"): 106,
        ("sin-ll", "val"): 308, ("sin-ll", "gy"): 234,
        ("band[0]", "val"): 276, ("band[0]", "gx"): 30, ("band[0]", "gy"): 234,
        ("band[1]", "val"): 276, ("band[1]", "gx"): 30, ("band[1]", "gy"): 234,
    },
}


@pytest.mark.parametrize("name", sorted(SOLVE_ORACLE_CALLS))
def test_golden_solve_oracle_calls_are_pinned(name):
    bench = {"sin-opt": make_sin_problem(2),
             "sin-con": make_constrained_sin_problem(2, 2.0, 1.0)}[name]
    calls = collections.Counter()
    p = bench.problem
    prob = replace(p, F=counting(p.F, calls), f=counting(p.f, calls),
                   ll_constraints=tuple(counting(h, calls) for h in p.ll_constraints))
    cfg = build_solver_config({"bvfsm": {"K": 30}}, bench)
    solve(prob, cfg, bench.x0, bench.y0, reference=bench.reference)
    assert dict(calls) == SOLVE_ORACLE_CALLS[name]


@pytest.mark.parametrize("name", sorted(SOLVE_ORACLE_CALLS))
def test_golden_solve_inner_solves_end_at_the_rounding_floor(name, monkeypatch):
    # Every z-solve (the polish's too) and y-solve of the K = 30 golden solves
    # ends at its rounding floor: after fewer gradients than its cap T_z or
    # T_y, and with at most MAX_HALVINGS trials after the last one (a pinned
    # iterate takes one more).
    ends = []
    descend = solver_module._descend

    class Probe:
        def __init__(self, stage):
            self.stage, self.grads, self.trials = stage, 0, 0

        def value(self, v):
            self.trials += 1
            return self.stage.value(v)

        def gradient(self, v, args):
            self.grads, self.trials = self.grads + 1, 0
            return self.stage.gradient(v, args)

    def probed(stage, v, cur, args, steps, step0, message, *fallback):
        probe = Probe(stage)
        out = descend(probe, v, cur, args, steps, step0, message, *fallback)
        ends.append((message.endswith("z-solve"), steps, probe.grads, probe.trials))
        return out

    monkeypatch.setattr(solver_module, "_descend", probed)
    bench = {"sin-opt": make_sin_problem(2),
             "sin-con": make_constrained_sin_problem(2, 2.0, 1.0)}[name]
    cfg = build_solver_config({"bvfsm": {"K": 30}}, bench)
    solve(bench.problem, cfg, bench.x0, bench.y0, reference=bench.reference)
    assert sorted(z for z, *_ in ends) == [False] * 30 + [True] * 31
    for z_solve, steps, grads, trials in ends:
        assert steps == (cfg.T_z if z_solve else cfg.T_y)
        assert grads < steps and trials <= MAX_HALVINGS


# ---------------------------------------------------------------------------
# the y-solve's first trial across stages
# ---------------------------------------------------------------------------


class _GradientCount:
    """``stage`` with its gradient calls counted in ``grads``."""

    def __init__(self, stage):
        self.stage, self.grads = stage, 0
        self.value, self.wall_step = stage.value, stage.wall_step

    def gradient(self, v, args):
        self.grads += 1
        return self.stage.gradient(v, args)


def inner_solve_starts(monkeypatch, solve_name, remembered):
    """A list that gets, for each ``solve_name`` run, (first trial, fallback,
    the step :func:`_descend` returned at index ``remembered``, its gradient
    calls)."""
    starts, descend = [], solver_module._descend

    def recorded(stage, v, cur, args, steps, step0, name, *fallback):
        counted = _GradientCount(stage)
        out = descend(counted, v, cur, args, steps, step0, name, *fallback)
        if name == solve_name:
            starts.append((step0, *fallback, out[remembered], counted.grads))
        return out

    monkeypatch.setattr(solver_module, "_descend", recorded)
    return starts


def y_solve_starts(monkeypatch):
    """For each y-solve: (first trial, fallback, first step accepted, gradient calls)."""
    return inner_solve_starts(monkeypatch, "y-solve", 3)


def z_solve_starts(monkeypatch):
    """For each z-solve: (first trial, fallback, the second step's first
    trial, gradient calls)."""
    return inner_solve_starts(monkeypatch, "z-solve", 4)


def sin_con_y_solve_starts(monkeypatch, step_y):
    """The y-solve starts of a K = 3 sin-con solve with ``step_y``; each
    later first trial is twice the first step its predecessor accepted, and
    every solve falls back to step_y."""
    starts = y_solve_starts(monkeypatch)
    bench = make_constrained_sin_problem(2, 2.0, 1.0)
    cfg = build_solver_config({"bvfsm": {"K": 3, "step_y": step_y}}, bench)
    solve(bench.problem, cfg, bench.x0, bench.y0)
    assert len(starts) == 3 and starts[0][:2] == (step_y, step_y)
    for (_, _, first, _), (step0, fallback, _, _) in zip(starts, starts[1:]):
        assert step0 == 2.0 * first and fallback == step_y
    return starts


def test_each_later_y_solve_starts_at_twice_the_first_step_the_last_one_accepted(monkeypatch):
    # with step_y = 0.5 the first y-solve backtracks to 0.05, so the second
    # starts at 0.1, below step_y
    assert sin_con_y_solve_starts(monkeypatch, 0.5)[1][0] == 0.1


def test_a_later_y_solve_may_start_above_step_y(monkeypatch):
    # with step_y = 0.01 the first y-solve accepts 0.01, and the second
    # starts at 0.02: step_y is no cap
    assert sin_con_y_solve_starts(monkeypatch, 0.01)[1][0] == 0.02


@pytest.mark.parametrize("c", [0.5, 4.0, 50.0])
def test_the_y_step_memory_stays_within_twice_the_longest_descent_step(c, monkeypatch):
    # F = (x - 3)^2 + c/2 |y - x|^2 and f = 0: every y-stage is a quadratic
    # of curvature c + theta, whose minimizer moves with x.  A step longer
    # than 2/c would raise it, so no y-solve accepts one, and no remembered
    # first trial exceeds 4/c over 300 stages, though nearly all exceed
    # step_y = 0.01.
    F = field(1, 2, lambda x, y: float((x[0] - 3.0) ** 2) + 0.5 * c * float((y - x) @ (y - x)),
              lambda x, y: np.array([2.0 * (x[0] - 3.0) - c * float(np.sum(y - x))]),
              lambda x, y: c * (y - x))
    f = field(1, 2, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(2))
    starts = y_solve_starts(monkeypatch)
    solve(BilevelProblem(m=1, n=2, F=F, f=f), SolverConfig(K=300, step_y=0.01), np.zeros(1))
    remembered = [step0 for step0, *_ in starts[1:]]
    assert len(remembered) == 299 and max(remembered) <= 4.0 / c
    assert sum(step0 > 0.01 for step0 in remembered) >= 290


def test_y_solve_whose_remembered_trial_is_at_the_rounding_floor_tries_step_y():
    # a first trial of 1e-300 is under the floor of F = 0.5|y|^2 at y = (1, 1):
    # the y-solve tries step_y instead, moves y and reports that step
    f = field(1, 2, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(2))
    F = field(1, 2, lambda x, y: 0.5 * float(y @ y), lambda x, y: np.zeros(1), lambda x, y: y)
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    sched = ScheduleState(mu=1e-10, theta=1e-12, sigma1=1.0)
    cfg = SolverConfig(T_y=1, step_y=0.5, schedule=sched, aux_f=QP)
    y0 = np.ones(2)
    y, _, _, step1 = solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, y0, 1e-300)
    assert step1 == cfg.step_y
    assert np.array_equal(y, y0 - cfg.step_y * (1.0 + sched.theta) * y0)


def test_single_step_callers_start_the_y_solve_at_step_y(monkeypatch):
    # a `bvfsm time` step, A9's, has no last stage: its first trial is
    # step_y, and it has no solved stages to predict its start from
    starts, calls = y_solve_starts(monkeypatch), y_solve_predictions(monkeypatch)
    from bvfsm import cli
    from bvfsm.problems import parse_problem

    bench = parse_problem("sin:n=2")
    method = cli._resolve_method(bench, "bvfsm", {"bvfsm": {"step_y": 0.5}})
    cli._step(bench.problem, method, bench.x0, bench.y0)
    assert [s[:2] for s in starts] == [(0.5, 0.5)]
    assert [y_pred for _, y_pred, _ in calls] == [None]


def test_single_step_callers_start_the_z_solve_at_step_z(monkeypatch):
    from bvfsm import cli
    from bvfsm.problems import parse_problem

    starts = z_solve_starts(monkeypatch)
    bench = parse_problem("sin:n=2")
    cli._step(bench.problem, cli._resolve_method(bench, "bvfsm", {}), bench.x0, bench.y0)
    step_z = build_solver_config({}, bench).step_z
    assert [s[:2] for s in starts] == [(step_z, step_z)]


# ---------------------------------------------------------------------------
# the z-solve's first trial across stages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SOLVE_ORACLE_CALLS))
def test_each_later_z_solve_starts_at_the_step_the_last_one_measured(name, monkeypatch):
    # The first z-solve tries step_z.  Each later one, the polish's too,
    # starts at the trial its last solved predecessor's second gradient set,
    # min(2 s1, 1/kappa1), and falls back to step_z at the rounding floor.
    starts = z_solve_starts(monkeypatch)
    bench = {"sin-opt": make_sin_problem(2),
             "sin-con": make_constrained_sin_problem(2, 2.0, 1.0)}[name]
    cfg = build_solver_config({"bvfsm": {"K": 5}}, bench)
    solve(bench.problem, cfg, bench.x0, bench.y0)
    assert len(starts) == 6 and starts[0][:2] == (cfg.step_z, cfg.step_z)
    remembered = cfg.step_z
    for (_, _, second, _), (step0, fallback, _, _) in zip(starts, starts[1:]):
        remembered = remembered if second is None else second
        assert step0 == remembered and fallback == cfg.step_z
    assert all(step0 != cfg.step_z for step0, *_ in starts[1:])


def test_z_solve_whose_remembered_trial_is_at_the_rounding_floor_tries_step_z():
    # f = 0.5 |y - b|^2 from z = 0: a first trial of 1e-300 is under the
    # floor, so the z-solve tries step_z instead; with T_z = 1 it takes no
    # second gradient, and reports no trial for the next z-solve
    prob = shifted_quadratic_problem([1.0, 2.0])
    cfg = SolverConfig(T_z=1, step_z=0.5, schedule=ScheduleState(mu=1e-12))
    z, _, _, step2 = solve_regularized_ll(prob, np.zeros(1), cfg.schedule, cfg, np.zeros(2), 1e-300)
    assert np.array_equal(z, 0.5 * np.array([1.0, 2.0]))
    assert step2 is None


@pytest.mark.parametrize("name", sorted(SOLVE_ORACLE_CALLS))
def test_golden_y_solves_start_at_twice_their_predecessors_first_step(name, monkeypatch):
    # In the K = 30 golden solves the first y-solve tries step_y, and each
    # later one twice the first step its last solved predecessor accepted:
    # early stages accept steps longer than step_y, and no cap holds them.
    starts = y_solve_starts(monkeypatch)
    bench = {"sin-opt": make_sin_problem(2),
             "sin-con": make_constrained_sin_problem(2, 2.0, 1.0)}[name]
    cfg = build_solver_config({"bvfsm": {"K": 30}}, bench)
    solve(bench.problem, cfg, bench.x0, bench.y0)
    assert len(starts) == 30 and starts[0][:2] == (cfg.step_y, cfg.step_y)
    remembered = cfg.step_y
    for (_, _, first, _), (step0, fallback, _, _) in zip(starts, starts[1:]):
        remembered = remembered if first is None else 2.0 * first
        assert step0 == remembered and fallback == cfg.step_y
    assert max(step0 for step0, *_ in starts) > cfg.step_y


def bench_solve_calls(monkeypatch, bench, K, layer, lead):
    """The ``lead`` field's calls ("F" or "f") in the ``layer`` solves of a
    K-stage solve (the polish is a z-solve), start values included."""
    calls = collections.Counter()
    inner = getattr(solver_module, layer)

    def counted(problem, *args, **kwargs):
        fld = counting(getattr(problem, lead), calls)
        return inner(replace(problem, **{lead: fld}), *args, **kwargs)

    monkeypatch.setattr(solver_module, layer, counted)
    solve(bench.problem, build_solver_config({"bvfsm": {"K": K}}, bench), bench.x0, bench.y0)
    return calls


def test_sin_con_bench_solve_y_solve_calls_are_pinned(monkeypatch):
    # The benchmark's sin-con solve (K = 2000), counted in the y-solve only,
    # the start values and the predictions' values included.  Every y-solve
    # starting at step_y took 16,956 F evaluations for 8,933 gradients: late
    # stages accept steps of 1e-6 and less, so most first trials were
    # rejected.  With the step memory and before the secant prediction it
    # took 10,143 for 8,166, and before the z-step memory 8,563 for 5,104:
    # a z-solve that starts at another step ends at another f*.  With the
    # memory capped at step_y it took 8,586 for 5,121.
    counts = bench_solve_calls(monkeypatch, make_constrained_sin_problem(2, 2.0, 1.0), 2000,
                               "solve_penalized_inner", "F")
    assert counts == {("sin-ul", "val"): 8163, ("sin-ul", "gy"): 4241}


def test_sin_opt_bench_solve_y_solve_calls_are_pinned(monkeypatch):
    # The benchmark's sin-opt solve (K = 3000), counted as above.  Before the
    # secant prediction it took 19,773 F evaluations for 17,635 gradients,
    # and before the z-step memory 15,310 for 10,552.  With the memory capped
    # at step_y = 0.01 it took 15,304 for 10,545: 6,275 of those gradients
    # fell in the first 1,000 stages, whose y-solves restarted at 0.01 and
    # doubled their way back up to steps of about 0.3.
    counts = bench_solve_calls(monkeypatch, make_sin_problem(2), 3000, "solve_penalized_inner", "F")
    assert counts == {("sin-ul", "val"): 12045, ("sin-ul", "gy"): 6161}


def test_sin_con_bench_solve_z_solve_calls_are_pinned(monkeypatch):
    # The benchmark's sin-con solve, counted in the z-solves and the polish,
    # start values included.  Every z-solve starting at step_z = 0.01 took
    # 10,379 f evaluations for 9,057 gradients, and 893 of the 2,001
    # rejected their first trial.  Started at the step the last z-solve
    # measured, none does: 6,619 for 6,601, until the uncapped y-step memory
    # moved the UL iterates the z-solves run at.
    counts = bench_solve_calls(monkeypatch, make_constrained_sin_problem(2, 2.0, 1.0), 2000,
                               "solve_regularized_ll", "f")
    assert counts == {("sin-ll", "val"): 6615, ("sin-ll", "gy"): 6598}


def test_sin_opt_bench_solve_z_solve_calls_are_pinned(monkeypatch):
    # The benchmark's sin-opt solve, counted as above.  Every z-solve starting
    # at step_z = 0.5 = 1/L took 9,665 f evaluations for 9,661 gradients:
    # where the local curvature is about 1, not L = 2, a late z-solve halved
    # |g| with its first step and took a second to reach the minimizer.
    # Started at the step the last z-solve measured they took 6,785 for 6,768,
    # until the uncapped y-step memory moved the UL iterates they run at.
    counts = bench_solve_calls(monkeypatch, make_sin_problem(2), 3000, "solve_regularized_ll", "f")
    assert counts == {("sin-ll", "val"): 6789, ("sin-ll", "gy"): 6770}


@pytest.mark.parametrize("name, K", [("sin-opt", 3000), ("sin-con", 2000)])
def test_no_inner_solve_of_a_bench_solve_reaches_its_cap(name, K, monkeypatch):
    # The benchmark's solves: every z-solve (the polish's too) and every
    # y-solve ends at its rounding floor before its cap, after at most 10
    # and 15 gradients against T_z = T_y = 50, so none returns an iterate
    # cut off unconverged for the chain rule to read as converged.
    ys, zs = y_solve_starts(monkeypatch), z_solve_starts(monkeypatch)
    bench = {"sin-opt": make_sin_problem(2),
             "sin-con": make_constrained_sin_problem(2, 2.0, 1.0)}[name]
    cfg = build_solver_config({"bvfsm": {"K": K}}, bench)
    solve(bench.problem, cfg, bench.x0, bench.y0)
    assert len(zs) == K + 1 and len(ys) == K
    assert max(grads for *_, grads in zs) < cfg.T_z
    assert max(grads for *_, grads in ys) < cfg.T_y


def test_the_ul_constraint_golden_cuts_off_its_first_y_solve_at_the_cap(monkeypatch):
    # The one known cut-off inner solve of the golden, bench and sweep
    # solves: the first y-solve of the ul-constraint golden case takes all
    # T_y steps and returns at the cap, and nothing reports it.  Pinned at
    # exactly one, so it stays visible until a solve reports how each inner
    # solve ended.
    from test_traces import _config

    ys, zs = y_solve_starts(monkeypatch), z_solve_starts(monkeypatch)
    bench, cfg = _config("ul-constraint")
    solve(bench.problem, cfg, bench.x0, bench.y0)
    assert [i for i, (*_, grads) in enumerate(ys) if grads == cfg.T_y] == [0]
    assert max(grads for *_, grads in zs) < cfg.T_z


# ---------------------------------------------------------------------------
# the y-solve's start across stages: the secant prediction
# ---------------------------------------------------------------------------


def descend_starts(monkeypatch):
    """A list that gets, for each y-solve run, its start point and the stage value there."""
    starts, descend = [], solver_module._descend

    def recorded(stage, v, cur, args, *rest):
        if rest[2] == "y-solve":
            starts.append((v.copy(), cur))
        return descend(stage, v, cur, args, *rest)

    monkeypatch.setattr(solver_module, "_descend", recorded)
    return starts


def _walled_quadratic_problem():
    """F = 0.5 |y|^2, +inf at y_0 < -5; f = 0."""
    f = field(1, 2, lambda x, y: 0.0, lambda x, y: np.zeros(1), lambda x, y: np.zeros(2))
    F = field(1, 2, lambda x, y: math.inf if y[0] < -5.0 else 0.5 * float(y @ y),
              lambda x, y: np.zeros(1), lambda x, y: y)
    return BilevelProblem(m=1, n=2, F=F, f=f)


@pytest.mark.parametrize("y_pred, taken", [
    ([0.5, 0.5], True),  # lower than at y0
    ([1.0, 1.0], True),  # equal: <= takes it
    ([2.0, 2.0], False),  # higher
    ([-10.0, 0.0], False),  # F = +inf, a wall
    ([math.nan, 0.0], False),  # NaN
])
def test_y_solve_starts_from_the_prediction_only_where_the_stage_is_no_higher(
        monkeypatch, y_pred, taken):
    starts = descend_starts(monkeypatch)
    prob = _walled_quadratic_problem()
    sched = ScheduleState(mu=1e-10, theta=1e-12, sigma1=1.0)
    cfg = SolverConfig(T_y=1, step_y=0.5, schedule=sched, aux_f=QP)
    y0, y_pred = np.ones(2), np.array(y_pred)
    solve_penalized_inner(prob, np.zeros(1), 0.0, sched, cfg, y0, None, y_pred)
    (start, cur), = starts
    assert np.array_equal(start, y_pred if taken else y0, equal_nan=True)
    assert math.isfinite(cur)


def test_a_prediction_leaves_the_frozen_stage_as_it_is():
    # The stage is frozen at y0, where f = 2 lies above f*, so f's shift is
    # padded by that violation; a prediction at F's minimizer in y, where f
    # is lower, is taken, and it must not move that pad or any other term.
    bench = make_sin_problem(2)
    cfg = build_solver_config({"bvfsm": {"K": 30}}, bench)
    prob, sched, x = bench.problem, cfg.schedule, np.array([0.5])
    for _ in range(300):  # theta = 0.05, so F's pull outweighs theta's
        sched = schedule_step(sched)
    f_star = solve_regularized_ll(prob, x, sched, cfg, np.zeros(2))[1]
    y0 = np.full(2, np.pi / 2 + 2.0 - 0.5)
    assert prob.f(x, y0) > f_star
    plain = solve_penalized_inner(prob, x, f_star, sched, cfg, y0)[2]
    y_pred = np.full(2, 4.0)
    predicted = solve_penalized_inner(prob, x, f_star, sched, cfg, y0, None, y_pred)[2]
    assert prob.f(x, y_pred) < prob.f(x, y0)
    assert predicted.value(y_pred)[0] <= plain.value(y0)[0]
    assert predicted.terms == plain.terms
    assert predicted.terms[0][2] == sched.sigma2 + (prob.f(x, y0) - f_star)


def y_solve_predictions(monkeypatch):
    """A list that gets, for each y-solve run, (y0, y_pred, y it returned)."""
    calls, y_solve = [], solver_module.solve_penalized_inner

    def recorded(problem, x, f_star, sched, cfg, y0, step0=None, y_pred=None):
        out = y_solve(problem, x, f_star, sched, cfg, y0, step0, y_pred)
        calls.append((y0, y_pred, out[0]))
        return out

    monkeypatch.setattr(solver_module, "solve_penalized_inner", recorded)
    return calls


def test_each_y_solve_from_the_third_on_gets_the_secant_prediction(monkeypatch):
    # Two solved stages make a secant: the first two y-solves get none, and
    # the polish, a z-solve, starts from the last solved y.
    calls = y_solve_predictions(monkeypatch)
    ll_starts, z_solve = [], solver_module.solve_regularized_ll

    def recorded_ll(problem, x, sched, cfg, z0=None, step0=None):
        ll_starts.append(z0)
        return z_solve(problem, x, sched, cfg, z0, step0)

    monkeypatch.setattr(solver_module, "solve_regularized_ll", recorded_ll)
    bench = make_sin_problem(2)
    cfg = build_solver_config({"bvfsm": {"K": 5}}, bench)
    trace = solve(bench.problem, cfg, bench.x0, bench.y0)
    assert len(calls) == 5 and calls[0][1] is None and calls[1][1] is None
    for (_, _, y_a), (_, _, y_b), (y0, y_pred, _) in zip(calls, calls[1:], calls[2:]):
        assert y0 is y_b and np.array_equal(y_pred, 2.0 * y_b - y_a)
    assert ll_starts[-1] is calls[-1][2]
    assert np.array_equal(trace.records[-2].y, calls[-1][2])


def test_constrained_sin_n5_from_x0_minus_3_converges():
    # The second case of the robustness sweep: a late-stage UL-gradient
    # spike left this run at rel_x 0.319 with the y-step memory alone.
    from bvfsm.problems import parse_problem

    bench = parse_problem("sin-constrained:n=5")
    trace = solve(bench.problem, build_solver_config({}, bench), -3.0, 0.0,
                  reference=bench.reference)
    assert trace.final.rel_err_x < 0.01, f"rel_x {trace.final.rel_err_x:.3g}"


@pytest.mark.parametrize("n", [5, 10, 20])
def test_constrained_sin_from_x0_8_converges(n):
    # The sweep's far start.  With T_y = 25 the stiff late y-solves at
    # n = 10 and 20 were cut off unconverged and the solve ended at
    # rel_x 0.147 and 0.057 with no error; n = 5 is the case a z-step
    # memory sent to rel_x 0.303 at that cap.
    from bvfsm.problems import parse_problem

    bench = parse_problem(f"sin-constrained:n={n}")
    trace = solve(bench.problem, build_solver_config({}, bench), 8.0, 0.0,
                  reference=bench.reference)
    assert trace.final.rel_err_x < 0.01, f"rel_x {trace.final.rel_err_x:.3g}"


@pytest.mark.parametrize("n", [2, 50])
@pytest.mark.parametrize("mu", [1e-3, 1e-9])
def test_z_solve_from_random_starts_ends_where_a_long_small_step_descent_does(n, mu):
    # The step grows up to the secant curvature and not past it, so from
    # cold starts the z-solve (default T_z) ends within 1e-6 of a 3,000-step
    # descent of step 0.1 from the same start, whether its first step is
    # the default step_z or the sin profiles' 1/L.  A step that only doubled
    # would land some of these 200 starts in a farther LL basin.
    bench = make_sin_problem(n)
    gy = bench.problem.f.grad_y
    rng = np.random.default_rng([n, round(-math.log10(mu))])
    for _ in range(50):
        x, y0 = rng.uniform(-10.0, 10.0, 1), rng.uniform(-10.0, 10.0, n)
        want = fixed_step_descent(lambda y: gy(x, y) + mu * y, y0, 3000, 0.1)
        for step_z in (SolverConfig().step_z, SIN_SOLVER_PROFILE["step_z"]):
            cfg = SolverConfig(step_z=step_z, schedule=ScheduleState(mu=mu))
            z = solve_regularized_ll(bench.problem, x, cfg.schedule, cfg, y0)[0]
            assert np.max(np.abs(z - want)) <= 1e-6, step_z


@pytest.mark.parametrize("prob,x,y0", [
    pytest.param(make_sin_problem(2).problem, np.array([8.0]), np.full(2, 8.0), id="sin-n2"),
    pytest.param(make_sin_problem(1000).problem, np.array([8.0]), np.zeros(1000), id="sin-n1000"),
    pytest.param(tracking_problem(m=2, n=3, seed=3)[0], np.array([0.8, -0.5]),
                 np.array([0.4, -1.1, 0.7]), id="tracking"),
])
def test_z_solve_ends_where_a_long_fixed_step_descent_does(prob, x, y0):
    # the z-solve is not a fixed-step loop: it ends where a 3,000-step
    # descent of step 0.1 on f + mu/2 |y|^2 from the same start ends, and
    # its f* is the objective there, bit for bit
    cfg = SolverConfig(T_z=50)
    sched = schedule_step(schedule_step(cfg.schedule))
    mu = sched.mu
    z = fixed_step_descent(lambda y: prob.f.gy(x, y) + mu * y, y0, 3000, 0.1)
    got, f_star, _, _ = solve_regularized_ll(prob, x, sched, cfg, y0)
    assert np.max(np.abs(got - z)) <= 1e-6
    assert f_star == prob.f(x, got) + 0.5 * mu * float(got @ got)


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
    pess = toy_problem(pessimistic=True)
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
        solve(toy_problem(), cfg, [0.5], [0.0])
    assert (exc.value.k, exc.value.l) == (1, 0)
    assert [(r.k, r.l) for r in exc.value.trace.records] == [(0, 0), (0, 1)]
    assert not outcomes


def test_ul_retry_halves_the_step_from_where_the_last_stage_was_solved(monkeypatch):
    # Stage 1 meets a wall at x1 and is solved at its first retry, s1 halfway
    # from x0; stage 2 meets a wall at x2 too.  Its retry halves the UL step
    # from s1, where stage 1 was solved, not from x1, where no stage was.
    import bvfsm.solver as solver_mod
    from bvfsm import BarrierWall

    real_solve_inner, tried = solver_mod.solve_inner, []

    def stub(problem, x, *args, **kwargs):
        tried.append(x.copy())
        if len(tried) in (2, 4):  # the first attempts of stages 1 and 2
            raise BarrierWall("stage started outside a wall")
        return real_solve_inner(problem, x, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "solve_inner", stub)
    solve(toy_problem(), SolverConfig(K=3, T_z=3, T_y=3, aux_f=QP), [0.5], [0.0])
    x0, x1, s1, x2, s2 = tried[:5]
    assert not np.array_equal(x1, s1)
    assert np.array_equal(s1, x0 + 0.5 * (x1 - x0))
    assert np.array_equal(s2, s1 + 0.5 * (x2 - s1))


@pytest.mark.parametrize("error", [BarrierWall("z-solve starts at a barrier wall"),
                                   NonFiniteEvaluation("z-solve value non-finite")],
                         ids=["wall", "non-finite"])
def test_failed_polish_keeps_the_last_stage_record(monkeypatch, error):
    # the polish is the z-solve after the K stages; when it fails, the trace
    # ends at the last stage's record, the same as without the polish
    bench = make_sin_problem(2)
    cfg = build_solver_config({"bvfsm": {"K": 3}}, bench)
    full = solve(bench.problem, cfg, bench.x0, bench.y0).records
    z_solve, calls = solver_module.solve_regularized_ll, []

    def failing_polish(*args, **kwargs):
        calls.append(args)
        if len(calls) > cfg.K:
            raise error
        return z_solve(*args, **kwargs)

    monkeypatch.setattr(solver_module, "solve_regularized_ll", failing_polish)
    records = solve(bench.problem, cfg, bench.x0, bench.y0).records
    assert len(calls) == cfg.K + 1
    assert [(r.k, r.l) for r in records] == [(0, 0), (0, 1), (1, 1), (2, 1)]
    assert [(r.k, r.l) for r in full[-2:]] == [(2, 1), (3, 0)]
    for r, want in zip(records, full[:-1]):
        assert np.array_equal(r.x, want.x) and np.array_equal(r.y, want.y)


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
    from bvfsm import InvalidParameter, make_constrained_sin_problem

    bench = make_constrained_sin_problem(2, 2.0, 1.0)
    cfg = SolverConfig(K=2, aux_f=QP)
    with pytest.raises(InvalidParameter, match="y0 has non-finite entries"):
        solve(bench.problem, cfg, bench.x0, [bad, 0.5])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("x0, y0, message", [
    ([8.0, 3.0], [0.0, 0.0], "x0 must have dimension 1"),
    ([[8.0]], [0.0, 0.0], "x0 must have dimension 1"),
    ([8.0], [0.0], "y0 must have dimension 2"),
], ids=["x0-long", "x0-2d", "y0-short"])
def test_solve_rejects_start_point_of_wrong_dimension(x0, y0, message):
    # sin n=2 has m=1: a 2-entry x0 is a config error, not two UL variables
    from bvfsm import InvalidParameter

    bench = make_sin_problem(2, 2.0, 2.0)
    with pytest.raises(InvalidParameter, match=message):
        solve(bench.problem, SolverConfig(K=2, T_z=3, T_y=3), x0, y0,
              reference=bench.reference)


def test_solve_timeout_carries_partial_trace():
    from bvfsm import SolveTimeout

    prob = toy_problem()
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


def test_solve_rejects_overflowing_ul_step():
    # a finite UL gradient of 1e308 times alpha = 10 overflows x to -inf; the
    # solve stops with its partial trace instead of a bare NonFiniteEvaluation
    from bvfsm import SolveError

    prob = _bad_gradient_problem(1e308, "F.gx")
    cfg = SolverConfig(K=3, T_z=3, T_y=3, alpha=10.0, aux_f=QP)
    with np.errstate(over="ignore"), pytest.raises(SolveError, match="UL iterate non-finite") \
            as exc:
        solve(prob, cfg, np.zeros(1), np.ones(2))
    assert (exc.value.k, exc.value.l) == (0, 0)
    assert [r.x.tolist() for r in exc.value.trace.records] == [[0.0]]


NON_FINITE_FIELDS = [
    (cls, key, bad)
    for cls, keys in [(SolverConfig, ("alpha", "step_z", "step_y")),
                      (ScheduleState, ("mu", "theta", "sigma1")),
                      (BaselineConfig, ("ll_step", "alpha", "hvp_eps"))]
    for key in keys for bad in (math.nan, math.inf)
] + [(SolverConfig, "wall_clock_cap_s", math.nan)]


@pytest.mark.parametrize("cls, key, bad", NON_FINITE_FIELDS,
                         ids=[f"{c.__name__}.{k}={b}" for c, k, b in NON_FINITE_FIELDS])
def test_non_finite_step_or_schedule_parameter_is_rejected(cls, key, bad):
    # a NaN passed the old "min(...) <= 0" checks and ran a solve that never moved
    from bvfsm import InvalidParameter

    with pytest.raises(InvalidParameter, match="finite|NaN"):
        cls(**{key: bad})


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
    z, f_star, _, _ = solve_regularized_ll(prob, bench.x0, cfg.schedule, cfg, bench.y0)
    with pytest.raises(NonFiniteEvaluation, match="^y-solve value non-finite$"):
        solve_penalized_inner(prob, bench.x0, f_star, cfg.schedule, cfg, z)


def test_y_solve_that_accepts_a_minus_inf_trial_raises():
    # F = -y falls to -inf past y = 1.5 while its gradient stays -1.  From
    # y = z = 0 the first step of 2 lands there, and -inf <= 0 is accepted:
    # the y-solve ends at a non-finite value, which raises, and the solve
    # stops instead of recording F = -inf.
    from bvfsm import SolveError

    f = field(1, 1, lambda x, y: 0.5 * float(y @ y), lambda x, y: np.zeros(1),
              lambda x, y: y.copy())
    F = field(1, 1, lambda x, y: -float(y[0]) if y[0] <= 1.5 else -math.inf,
              lambda x, y: np.zeros(1), lambda x, y: -np.ones(1))
    prob = BilevelProblem(m=1, n=1, F=F, f=f)
    cfg = SolverConfig(K=1, step_y=2.0, aux_f=QP)
    with pytest.raises(NonFiniteEvaluation, match="^y-solve value non-finite$"):
        solve_inner(prob, np.zeros(1), cfg.schedule, cfg, z0=np.zeros(1))
    with pytest.raises(SolveError, match="^y-solve value non-finite"):
        solve(prob, cfg, np.zeros(1), np.zeros(1))
