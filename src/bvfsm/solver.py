"""Value-function-based sequential minimization solver for bi-level problems.

Each outer stage freezes the current penalty/barrier parameters, approximates
the regularized LL value function by a short gradient descent (the z-solve),
then descends (or ascends, pessimistic mode) a penalized single-level
objective in y, and finally takes one projected gradient step in x.  Both
inner objectives are one stage object, ``_Stage``, with P and P' bound once:
its value returns the penalty arguments it computed, so each gradient and
the chain rule's multipliers come from the accepted trial, and f* is the
z-solve's last accepted value.  The UL gradient comes from one signed chain
rule, :func:`ul_gradient_for`: the penalty terms enter with the sign of the
inner problem, so optimistic, pessimistic and constrained problems share a
single formula.  Modified-barrier shifts are decided here only, by
:func:`_frozen_shifts`: frozen per stage and padded just enough to keep the
incoming iterate strictly inside the wall.  The y-solve and the constrained
z-solve share one guarded loop, :func:`_descend`: a step that would increase
the frozen stage objective backtracks to the minimizer of the quadratic
through the current value, its slope -|g|^2 and the rejected trial, kept
within a tenth to a half of the step; a wall or NaN trial halves it.  At
most ``MAX_HALVINGS`` backtracks follow each start from ``min(step, 2 * last
accepted step)`` of the same inner solve.  The solve ends at the rounding
floor, before any trial whose predicted decrease ``step * |g|^2`` is at most
one ulp of the current value: only rounding could decide it.  The
unconstrained z-solve has no wall to guard: it takes fixed steps in
:func:`bvfsm.core.plain_descent`, the loop the baselines' LL descent runs too.
Each wall rule is one loop: a constrained z-solve that starts outside a wall
steps along every walled constraint's normal until it is back inside, and a
stage that still meets a wall retries the previous UL step with halved moves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .auxfun import (
    AuxiliaryFunction,
    BarrierWall,
    ScheduleState,
    TruncatedLogBarrier,
    schedule_step,
)
from .core import (
    BilevelProblem,
    InvalidParameter,
    Mode,
    NonFiniteEvaluation,
    all_finite,
    as_vector,
    plain_descent,
    project,
)


MAX_HALVINGS = 30  # backtracks (interpolated or halved) before a guarded step counts as pinned


class SolveTimeout(RuntimeError):
    """Wall-clock budget exceeded; carries the partial trace."""

    def __init__(self, message: str, trace: "SolveTrace"):
        super().__init__(message)
        self.trace = trace


class SolveError(RuntimeError):
    """Inner-solve failure wrapped with (k, l) context and the partial trace."""

    def __init__(self, message: str, k: int, l: int, trace: "SolveTrace"):
        super().__init__(f"{message} (stage k={k}, ul step l={l})")
        self.k = k
        self.l = l
        self.trace = trace


def _default_aux_f() -> AuxiliaryFunction:
    return AuxiliaryFunction(TruncatedLogBarrier(1.0), modified=True)


def _default_aux_B() -> AuxiliaryFunction:
    return AuxiliaryFunction(TruncatedLogBarrier(1.0), modified=False)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budgets, step sizes, schedule seed and auxiliary functions.

    Defaults follow the reference benchmark settings: alpha = step_z = step_y
    = 0.01, T_z = 50, T_y = 25, L = 1, geometric schedule decay 1/1.01.
    """

    K: int = 3000
    L: int = 1
    T_z: int = 50
    T_y: int = 25
    alpha: float = 0.01
    step_z: float = 0.01
    step_y: float = 0.01
    schedule: ScheduleState = field(default_factory=ScheduleState)
    aux_f: AuxiliaryFunction = field(default_factory=_default_aux_f)
    aux_H: AuxiliaryFunction = field(default_factory=_default_aux_f)
    aux_h: AuxiliaryFunction = field(default_factory=_default_aux_f)
    aux_B: AuxiliaryFunction = field(default_factory=_default_aux_B)
    wall_clock_cap_s: float | None = None

    def __post_init__(self):
        if self.K < 0:
            raise InvalidParameter("K must be >= 0")
        if min(self.L, self.T_z, self.T_y) < 1:
            raise InvalidParameter("L, T_z, T_y must be >= 1")
        if min(self.alpha, self.step_z, self.step_y) <= 0:
            raise InvalidParameter("step sizes must be positive")
        if not (self.aux_B.is_barrier and not self.aux_B.modified):
            raise InvalidParameter("aux_B must be a standard (unmodified) barrier")


@dataclass
class InnerState:
    """Outputs of one stage's inner solves, with the stage-frozen shifts."""

    z: np.ndarray
    f_star_approx: float
    y: np.ndarray
    shift_f: float = 0.0
    shifts_H: np.ndarray | None = None
    shifts_h: np.ndarray | None = None
    # penalty arguments at y and z; None (built by hand): the chain rule evaluates them
    args_y: list | None = None
    args_z: list | None = None


@dataclass(frozen=True)
class TraceRecord:
    k: int
    l: int
    x: np.ndarray
    F_value: float
    f_value: float
    ul_grad_norm: float
    rel_err_x: float
    rel_err_F: float
    wall_time_s: float
    mu: float
    theta: float
    sigma1: float
    y: np.ndarray | None = None


@dataclass
class SolveTrace:
    """Per-(k, l) records, strictly ordered, wall time non-decreasing."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(self, rec: TraceRecord):
        self.records.append(rec)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


@dataclass(frozen=True)
class Reference:
    """A known solution used to fill rel_err columns in the trace."""

    x_star: np.ndarray
    y_star: np.ndarray | None = None
    F_star: float | None = None


# ---------------------------------------------------------------------------
# the stage-frozen inner problems
# ---------------------------------------------------------------------------


def _frozen_shifts(raw, n_H: int, f_star: float, sched, cfg) -> tuple:
    """Stage-frozen modified-barrier shifts (shift_f, shifts_H, shifts_h).

    ``raw`` holds f, each H and each h at the stage's incoming iterate.  The
    value-function term takes sigma2 padded by the incoming violation f - f*:
    the stage starts a full sigma2 inside its wall, so outer x-moves never
    strand the iterate outside.  A constraint takes sigma2_H or sigma2_h, else
    sigma2, padded by its own violation.  Unmodified terms are not shifted.
    """
    def constraint_shifts(c0, aux, rule):
        if not aux.modified:
            return np.zeros(len(c0))
        base = (rule or sched.sigma2).value
        return np.array([base + max(0.0, c) for c in c0])

    shift_f = sched.sigma2.value + max(0.0, raw[0] - f_star) if cfg.aux_f.modified else 0.0
    return (shift_f, constraint_shifts(raw[1:1 + n_H], cfg.aux_H, sched.sigma2_H),
            constraint_shifts(raw[1 + n_H:], cfg.aux_h, sched.sigma2_h))


class _Stage:
    """One stage-frozen inner objective at a fixed UL point ``x``:

        value(v) = s * lead(x, v) + reg/2 |v|^2 + sum_t P_t(c_t(x, v) - base_t - shift_t)

    The y-stage: F with the inner sign s (-1 in pessimistic mode), theta, and
    the terms f - f* - shift_f, each H and each h.  The z-stage: f, mu, and
    each h under aux_B.  P and P' are bound once per stage.  ``gradient`` and
    ``multipliers`` take back the penalty arguments ``value`` computed, so an
    accepted trial is never evaluated again.  Sums keep the order of the
    written-out formulas, bit for bit.  The hot paths call a field's ``fn``
    and ``grad_y`` with ScalarField's own conversions, one call frame less.
    """

    __slots__ = ("x", "negate", "lead", "reg", "half_reg", "sigma", "terms", "vf")

    def __init__(self, x, negate, lead, reg, sigma, terms, vf):
        self.x, self.negate, self.lead, self.sigma = x, negate, lead, sigma
        self.reg, self.half_reg = reg, 0.5 * reg
        self.terms = terms  # (field c, base, shift, P, P') per term
        self.vf = vf  # the first term is f - f* - shift_f, whose gradient precedes reg * v

    @classmethod
    def penalized(cls, problem, x, sched, cfg, f_star, shift_f, shifts_H, shifts_h):
        def terms(fields, aux, shifts):
            shifts = np.zeros(len(fields)) if shifts is None else shifts
            return [(c, 0.0, sh, aux.kind.rho, aux.kind.drho) for c, sh in zip(fields, shifts)]

        kf = cfg.aux_f.kind
        return cls(x, problem.mode is Mode.PESSIMISTIC, problem.F, sched.theta, sched.sigma1,
                   ((problem.f, f_star, shift_f, kf.rho, kf.drho),
                    *terms(problem.ul_constraints, cfg.aux_H, shifts_H),
                    *terms(problem.ll_constraints, cfg.aux_h, shifts_h)), True)

    @classmethod
    def regularized_ll(cls, problem, x, sched, cfg):
        kB = cfg.aux_B.kind
        return cls(x, False, problem.f, sched.mu, sched.sigma1,
                   tuple((h, 0.0, 0.0, kB.rho, kB.drho) for h in problem.ll_constraints), False)

    def value(self, v, raw=None):
        """(objective, penalty arguments) at ``v``; ``inf`` at a barrier wall.

        The sum stops at the first wall, and so do the arguments.  ``raw``
        holds the term fields already evaluated at ``v``.
        """
        x, s = self.x, self.sigma
        total = float(self.lead.fn(x, v))
        if self.negate:
            total = -total
        total += self.half_reg * float(v.dot(v))
        args = []
        for c, base, shift, P, _ in self.terms:
            w = (float(c.fn(x, v)) if raw is None else raw[len(args)]) - base - shift
            args.append(w)
            total += P(w, s)
            if total == math.inf:
                return math.inf, args
        return total, args

    def multipliers(self, v, args=None):
        """P' of every term at ``v``; evaluates the fields when ``args`` is None."""
        if args is None:
            x = self.x
            args = [c(x, v) - base - shift for c, base, shift, _, _ in self.terms]
        s = self.sigma
        return [dP(w, s) for (_, _, _, _, dP), w in zip(self.terms, args)]

    def gradient(self, v, args):
        """Gradient in v at ``v``, from the complete penalty arguments there."""
        x, s, terms = self.x, self.sigma, self.terms
        g = np.asarray(self.lead.grad_y(x, v), dtype=float)
        if self.negate:
            g = -g
        head = 0
        if self.vf:
            c, _, _, _, dP = terms[0]
            g = g + dP(args[0], s) * np.asarray(c.grad_y(x, v), dtype=float)
            head = 1
        g = g + self.reg * v  # a fresh array from here on: add in place
        for j in range(head, len(terms)):
            c, _, _, _, dP = terms[j]
            g += dP(args[j], s) * np.asarray(c.grad_y(x, v), dtype=float)
        return g


# ---------------------------------------------------------------------------
# inner solves
# ---------------------------------------------------------------------------


def _descend(stage: _Stage, v: np.ndarray, cur: float, args: list, steps: int,
             step0: float, message: str) -> tuple[np.ndarray, float, list]:
    """``steps`` guarded gradient steps on a stage-frozen objective.

    ``cur`` and ``args`` are the stage value and penalty arguments at ``v``.
    Each step takes the gradient ``g`` at ``v`` and |g|^2 with it; a finite
    |g|^2 proves ``g`` finite (see :func:`bvfsm.core.all_finite`), else a
    non-finite ``g`` raises NonFiniteEvaluation with ``message``.  It tries
    steps ``s`` along ``g``, starting from ``min(step0, 2 * last accepted
    step)``, until the objective does not exceed ``cur``; a wall (``inf``) or
    NaN trial never does.  A finite rejected trial is followed by the
    minimizer of the quadratic with phi(0) = cur, phi'(0) = -|g|^2 and
    phi(s) = trial, clamped to [0.1 s, 0.5 s] (safeguarded quadratic
    backtracking, Nocedal & Wright section 3.5).  A wall or NaN trial halves
    the step.  The solve ends at the rounding floor: a trial whose predicted
    decrease ``s |g|^2`` is at most one ulp of ``cur`` could only be decided
    by rounding, so it is not tried.  After ``MAX_HALVINGS`` failed
    backtracks the iterate is pinned, and the solve ends too.  Returns
    ``(v, cur, args)`` at the last accepted point.
    """
    value, step = stage.value, step0
    for _ in range(steps):
        g = stage.gradient(v, args)
        gg = float(np.vdot(g, g))  # |g|^2 = -phi'(0), without an overflow warning
        if not (math.isfinite(gg) or np.isfinite(g).all()):
            raise NonFiniteEvaluation(message)
        for _ in range(MAX_HALVINGS + 1):
            if gg * step <= math.ulp(cur):  # the rounding floor
                return v, cur, args
            v_new = v - step * g
            trial, trial_args = value(v_new)
            if trial <= cur:
                v, cur, args = v_new, trial, trial_args
                break
            if trial < math.inf:  # finite: minimize the quadratic through the trial
                fit = gg * step * step / (2.0 * (trial - cur + gg * step))
                step = max(0.1 * step, min(0.5 * step, fit))  # a NaN fit (inf/inf) halves
            else:  # a wall or NaN
                step *= 0.5
        else:
            break  # pinned for this stage
        step = min(step0, 2.0 * step)
    return v, cur, args


def solve_regularized_ll(
    problem: BilevelProblem,
    x: np.ndarray,
    sched: ScheduleState,
    cfg: SolverConfig,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, float, list]:
    """T_z gradient steps on f(x, .) + mu/2 |y|^2 (+ LL-constraint barriers).

    Returns (z, f_star_approx, args): f_star_approx is the objective at the
    returned z, barrier terms included, and args are the barrier arguments
    h(x, z) behind it (empty without LL constraints).
    """
    f, hs, mu = problem.f, problem.ll_constraints, sched.mu
    z = np.zeros(problem.n) if z0 is None else np.array(z0, dtype=float)

    if not hs:
        # No wall to guard: fixed steps, and no value call until the end.  A
        # guarded loop would add one value call per step, and sin-opt takes
        # 150,050 z-steps per solve.
        z = plain_descent(f.grad_y, x, z, cfg.T_z, cfg.step_z, mu, " during z-solve")
        f_star = f(x, z) + 0.5 * mu * float(z @ z)
        if not math.isfinite(f_star):
            raise NonFiniteEvaluation("regularized LL value non-finite")
        return z, f_star, []

    stage = _Stage.regularized_ll(problem, x, sched, cfg)
    cur, args = stage.value(z)
    # Restoration: outer x-steps routinely strand a wall-hugging warm start
    # just outside a wall.  Step along the normal of every walled constraint
    # at once (value() stops at the first wall, so each h is evaluated) until
    # the point is back inside; a NaN value is not a wall and leaves too.
    for _ in range(4 * cfg.T_z + MAX_HALVINGS):
        if cur != math.inf:
            break
        z = z - cfg.step_z * sum(h.gy(x, z) for h in hs if h(x, z) >= 0.0)
        cur, args = stage.value(z)
    if cur == math.inf:
        raise BarrierWall("initial point infeasible for LL constraint barriers")
    if not math.isfinite(cur):
        raise NonFiniteEvaluation("regularized LL value non-finite")
    z, cur, args = _descend(stage, z, cur, args, cfg.T_z, cfg.step_z,
                            "LL gradient non-finite during z-solve")
    if not math.isfinite(cur):
        raise NonFiniteEvaluation("regularized LL value non-finite")
    return z, cur, args


def solve_penalized_inner(
    problem: BilevelProblem,
    x: np.ndarray,
    f_star_approx: float,
    sched: ScheduleState,
    cfg: SolverConfig,
    y0: np.ndarray,
) -> InnerState:
    """T_y guarded gradient steps on the stage-frozen penalized objective.

    Optimistic mode minimizes F + P-terms + theta/2 |y|^2; pessimistic mode
    ascends F - P-terms - theta/2 |y|^2 (implemented as descent on the
    negated objective).  Shifts for modified barriers are frozen per stage
    from one evaluation of f, each H and each h at y0, which also gives the
    start value.  Returns the full InnerState (z is filled in by the caller).
    """
    y = np.array(y0, dtype=float)
    raw = [c(x, y) for c in (problem.f, *problem.ul_constraints, *problem.ll_constraints)]
    shifts = _frozen_shifts(raw, len(problem.ul_constraints), f_star_approx, sched, cfg)
    stage = _Stage.penalized(problem, x, sched, cfg, f_star_approx, *shifts)

    cur, args = stage.value(y, raw)
    if cur == math.inf:  # a wall; NaN is not one
        raise BarrierWall("stage started outside a constraint barrier wall")
    if not math.isfinite(cur):
        raise NonFiniteEvaluation("inner objective non-finite at stage start")
    y, _, args = _descend(stage, y, cur, args, cfg.T_y, cfg.step_y,
                          "inner gradient non-finite during y-solve")
    return InnerState(np.empty(0), f_star_approx, y, *shifts, args_y=args)


def solve_inner(
    problem: BilevelProblem,
    x: np.ndarray,
    sched: ScheduleState,
    cfg: SolverConfig,
    z0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
) -> InnerState:
    """Run both inner solves for one (k, l) step and bundle the results."""
    z, f_star, args_z = solve_regularized_ll(problem, x, sched, cfg, z0)
    start = np.array(z if y0 is None else y0, dtype=float)
    inner = solve_penalized_inner(problem, x, f_star, sched, cfg, start)
    inner.z, inner.args_z = z, args_z
    return inner


# ---------------------------------------------------------------------------
# UL gradients (value-function chain rule)
# ---------------------------------------------------------------------------


def ul_gradient_for(
    problem: BilevelProblem,
    x: np.ndarray,
    inner: InnerState,
    sched: ScheduleState,
    cfg: SolverConfig,
) -> np.ndarray:
    """Signed value-function chain rule, the UL gradient for every problem.

        g = dF/dx(y) + s * [ lam_f * (df/dx(y) - df*/dx)
                             + sum_H lam_H * dH/dx(y) + sum_h lam_h * dh/dx(y) ]
        df*/dx = df/dx(z) + sum_h rho_B'(h(z)) * dh/dx(z)

    Each multiplier is P' of its stage-frozen penalty argument at y and z,
    taken from the inner solves' last evaluations when ``inner`` carries
    them, else evaluated there.  ``s`` is the inner sign: -1 in pessimistic
    mode, where the inner problem ascends F - P, else +1.  Terms are
    evaluated only for nonzero multipliers, and the sign is exact, so the
    optimistic gradient is bitwise the unsigned formula.
    """
    stage = _Stage.penalized(problem, x, sched, cfg, inner.f_star_approx,
                             inner.shift_f, inner.shifts_H, inner.shifts_h)
    y, z = inner.y, inner.z
    lams = stage.multipliers(y, inner.args_y)
    if stage.negate:
        lams = [-lam for lam in lams]
    g = problem.F.gx(x, y)
    if lams[0] != 0.0:
        dfstar_dx = problem.f.gx(x, z)
        ll = _Stage.regularized_ll(problem, x, sched, cfg)
        for (h, *_), lam_B in zip(ll.terms, ll.multipliers(z, inner.args_z)):
            dfstar_dx = dfstar_dx + lam_B * h.gx(x, z)
        g = g + lams[0] * (problem.f.gx(x, y) - dfstar_dx)
    for (c, *_), lam in zip(stage.terms[1:], lams[1:]):
        if lam != 0.0:
            g = g + lam * c.gx(x, y)
    return g


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


def _errors(problem, x, y, reference: Reference | None) -> tuple[float, float, float, float]:
    F_val, f_val = problem.F(x, y), problem.f(x, y)
    rel_x = rel_F = float("nan")
    if reference is not None:
        nx = np.linalg.norm(reference.x_star)
        rel_x = float(np.linalg.norm(x - reference.x_star)) / (nx if nx > 0 else 1.0)
        if reference.F_star is not None:
            den = abs(reference.F_star)
            rel_F = abs(F_val - reference.F_star) / (den if den > 0 else 1.0)
    return F_val, f_val, rel_x, rel_F


def solve(
    problem: BilevelProblem,
    cfg: SolverConfig,
    x0,
    y0=None,
    reference: Reference | None = None,
) -> SolveTrace:
    """Run K stages of L projected UL steps with schedule-aware inner solves.

    Warm starts persist z and y across (k, l) steps and across stages.  A
    stage that meets a barrier wall retries the previous UL step with its
    move halved, up to ``MAX_HALVINGS`` times.  Returns the full trace; raises
    SolveTimeout past cfg.wall_clock_cap_s and SolveError on any other inner
    failure, both carrying the partial trace.
    """
    t0 = time.perf_counter()
    x = project(problem.ul_set, np.atleast_1d(np.asarray(x0, dtype=float)))
    y_init = np.zeros(problem.n) if y0 is None else as_vector(y0)
    if y_init.shape[0] != problem.n:
        raise InvalidParameter(f"y0 must have dimension {problem.n}")
    sched = cfg.schedule
    trace = SolveTrace()

    def record(k, l, y, grad_norm=float("nan")):
        F_val, f_val, rel_x, rel_F = _errors(problem, x, y, reference)
        trace.append(TraceRecord(k, l, x.copy(), F_val, f_val, grad_norm, rel_x, rel_F,
                                 time.perf_counter() - t0, sched.mu, sched.theta,
                                 sched.sigma1, y=y.copy()))

    record(0, 0, y_init)

    z_warm: np.ndarray | None = y_init.copy()
    y_warm: np.ndarray | None = None  # first stage: y starts from the z result

    for k in range(cfg.K):
        for l in range(cfg.L):
            if cfg.wall_clock_cap_s is not None and time.perf_counter() - t0 > cfg.wall_clock_cap_s:
                raise SolveTimeout(
                    f"wall clock cap {cfg.wall_clock_cap_s}s exceeded at k={k}", trace
                )
            # Attempt 0 is the step to x; attempt i retries the previous UL
            # step with its move halved i times, while a stage meets a wall.
            x_prev = trace.records[-2].x if len(trace.records) > 1 else None
            for i in range(MAX_HALVINGS + 1):
                x_try = x if i == 0 else x_prev + 0.5 ** i * (x - x_prev)
                try:
                    inner = solve_inner(problem, x_try, sched, cfg, z0=z_warm, y0=y_warm)
                    grad = ul_gradient_for(problem, x_try, inner, sched, cfg)
                    break
                except (BarrierWall, NonFiniteEvaluation) as exc:
                    if not isinstance(exc, BarrierWall) or x_prev is None or i == MAX_HALVINGS:
                        raise SolveError(str(exc), k, l, trace) from exc
            x = x_try
            if not all_finite(grad):
                raise SolveError("UL gradient non-finite", k, l, trace)
            x = project(problem.ul_set, x - cfg.alpha * grad)
            z_warm, y_warm = inner.z, inner.y

            record(k, l + 1, inner.y, float(np.linalg.norm(grad)))
        sched = schedule_step(sched)

    # Feasibility polish: penalty/barrier iterates end a vanishing distance on
    # the relaxed side of LL optimality, so finish with a plain LL descent
    # from y.  Optimistic mode only: a pessimistic iterate encodes the
    # worst-case selection, which an unguided descent would abandon.
    if cfg.K > 0 and problem.mode is Mode.OPTIMISTIC and y_warm is not None:
        try:
            record(cfg.K, 0, solve_regularized_ll(problem, x, sched, cfg, z0=y_warm)[0])
        except (BarrierWall, NonFiniteEvaluation):
            pass  # keep the raw final record
    return trace
