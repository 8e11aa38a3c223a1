"""Value-function-based sequential minimization solver for bi-level problems.

Each outer stage freezes the current penalty/barrier parameters, approximates
the regularized LL value function by a guarded gradient descent (the z-solve),
then descends (or ascends, pessimistic mode) a penalized single-level
objective in y, and finally takes one projected gradient step in x.  Both
inner objectives are one stage object, ``_Stage``, with P and P' bound once:
its value returns the penalty arguments it computed, so each gradient and
the chain rule's multipliers come from the accepted trial, and f* is the
z-solve's last accepted value.  The chain rule reads the y-solve's stage
from the InnerState that only :func:`solve_inner` builds.
The UL gradient comes from one signed chain rule, :func:`ul_gradient_for`:
the penalty terms enter with the sign of the inner problem, so optimistic,
pessimistic and constrained problems share a single formula.
Modified-barrier shifts are decided here only, by the one rule that
:meth:`_Stage.penalized` states.  The y-solve and the z-solve share
one guarded loop, :func:`_descend`, which checks both solves' start and end
values and names the solve in every error.  A step that would increase the
frozen stage objective backtracks to the minimizer of a model of its line,
kept within a tenth to a half of the step: after a finite trial, the
quadratic through the current value, its slope -|g|^2 and the trial; after
a trial past a barrier wall, a model that keeps that barrier exact on its
argument, taken linear along the line (:meth:`_Stage.wall_step`).  A NaN
trial, or an infinite one with no walled argument, halves the step.  At most
``MAX_HALVINGS`` backtracks follow each start.  Within a solve, each start
after the first is twice the last accepted step, capped at the inverse
secant curvature along it.  A z-solve's first start is ``step_z``; where a
y-solve starts, and with what first trial, is the rule :func:`solve`
states.  A solve ends at the rounding floor, before any trial whose
predicted decrease ``step * |g|^2`` is at most one ulp of the current
value: only rounding could decide it.
``T_z`` and ``T_y`` only cap the number of steps.  Each wall rule is one
loop: a z-solve that starts outside a wall steps along every walled
constraint's normal until it is back inside, and a stage that still meets a
wall retries the previous UL step with halved moves.
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
    project,
)


MAX_HALVINGS = 30  # backtracks (interpolated or halved) before a guarded step counts as pinned
WALL_BISECTIONS = 40  # halvings of the interval that holds a wall model's minimizer


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
    ``step_z`` is the first trial step of every z-solve, and ``step_y`` the
    y-solve's, within the rule :func:`solve` states.  ``T_z`` and ``T_y``
    cap the number of steps of an inner solve.
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
        if not all(0.0 < v < math.inf for v in (self.alpha, self.step_z, self.step_y)):
            raise InvalidParameter("step sizes must be positive and finite")
        if self.wall_clock_cap_s is not None and math.isnan(self.wall_clock_cap_s):
            raise InvalidParameter("wall_clock_cap_s must not be NaN")
        if not (self.aux_B.is_barrier and not self.aux_B.modified):
            raise InvalidParameter("aux_B must be a standard (unmodified) barrier")


@dataclass(frozen=True)
class InnerState:
    """One stage's inner solves, built by :func:`solve_inner` only: with z, f*
    and y, the penalty arguments at each, the y-solve's stage itself and the
    first step the y-solve accepted (None if it accepted none), which
    :func:`solve` remembers."""

    z: np.ndarray
    f_star_approx: float
    y: np.ndarray
    args_z: list
    args_y: list
    stage: _Stage = field(repr=False)
    step_y1: float | None


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
    y: np.ndarray


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


class _Stage:
    """One stage-frozen inner objective at a fixed UL point ``x``:

        value(v) = s * lead(x, v) + reg/2 |v|^2 + sum_t P_t(c_t(x, v) - base_t - shift_t)

    The y-stage: F with the inner sign s (-1 in pessimistic mode), theta, and
    the terms f - f* - shift_f, each H and each h.  The z-stage: f, mu, and
    each h under aux_B.  P and P' are bound once per stage, and the terms
    hold the stage-frozen shifts.  ``gradient`` and ``multipliers`` take the
    penalty arguments ``value`` computed, so an accepted trial is never
    evaluated again.  Sums keep the order of the written-out formulas, bit
    for bit.  The hot paths call a field's ``fn`` and ``grad_y`` with
    ScalarField's own conversions, one call frame less.
    """

    __slots__ = ("x", "negate", "lead", "reg", "half_reg", "sigma", "terms", "vf")

    def __init__(self, x, negate, lead, reg, sigma, terms, vf):
        self.x, self.negate, self.lead, self.sigma = x, negate, lead, sigma
        self.reg, self.half_reg = reg, 0.5 * reg
        self.terms = terms  # (field c, base, shift, P, P') per term
        self.vf = vf  # the first term is f - f* - shift_f, whose gradient precedes reg * v

    @classmethod
    def penalized(cls, problem, x, sched, cfg, f_star, raw):
        """The y-stage, its shifts frozen from ``raw``: f, each H and each h at
        the incoming y.

        A modified term's shift, whether on f, an H or an h, is the schedule's
        ``sigma2``, padded by the incoming violation ``max(0, raw - base)``, so
        the stage starts inside its wall and outer x-moves never strand the
        iterate outside.  An unmodified term is not shifted.
        """
        sigma2 = sched.sigma2
        specs = [(problem.f, f_star, cfg.aux_f)]
        specs += [(H, 0.0, cfg.aux_H) for H in problem.ul_constraints]
        specs += [(h, 0.0, cfg.aux_h) for h in problem.ll_constraints]
        terms = tuple((c, base, sigma2 + max(0.0, w0 - base) if aux.modified else 0.0,
                       aux.kind.rho, aux.kind.drho)
                      for (c, base, aux), w0 in zip(specs, raw))
        return cls(x, problem.mode is Mode.PESSIMISTIC, problem.F, sched.theta, sched.sigma1,
                   terms, True)

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

    def wall_step(self, args, trial_args, gg, step):
        """The minimizer of a model of the line whose trial at ``step`` met a wall.

        The last of ``trial_args`` is the walled term's argument, at or past
        its wall at 0, and ``args`` holds the arguments at the current point.
        The model takes that argument linear along the line, w(s) = w0 + b s
        through both values, keeps the term's barrier P exact, and takes the
        rest of the objective linear, with the slope that makes the model's
        slope at 0 the true one, -|g|^2 (``gg``).  With P convex the model
        is stationary at the one w in (w0, 0) where P'(w) = P'(w0) + gg / b.
        Bisection brackets that w, and the step to the middle of the last
        bracket is returned, strictly inside the linearized wall.  Keeping
        the singularity in a barrier's line-search model goes back to Murray
        and Wright (SIAM J. Optim. 4, 1994).
        """
        j = len(trial_args) - 1
        w0, dP, s = args[j], self.terms[j][4], self.sigma
        b = (trial_args[j] - w0) / step
        target = dP(w0, s) + gg / b
        lo, hi = w0, 0.0
        for _ in range(WALL_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if dP(mid, s) < target:
                lo = mid
            else:
                hi = mid
        return (0.5 * (lo + hi) - w0) / b

    def multipliers(self, args):
        """P' of every term at the complete penalty arguments ``args``."""
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
             step0: float, name: str,
             fallback: float | None = None) -> tuple[np.ndarray, float, list, float | None]:
    """At most ``steps`` guarded gradient steps on a stage-frozen objective.

    ``cur`` and ``args`` are the stage value and penalty arguments at ``v``,
    and every error raised names the solve, ``name``.  A start at a wall
    (``cur`` = +inf) raises BarrierWall, and a NaN start NonFiniteEvaluation.
    Each step takes the gradient ``g`` at ``v`` and |g|^2 with it; a finite
    |g|^2 proves ``g`` finite (see :func:`bvfsm.core.all_finite`), else a
    non-finite ``g`` raises NonFiniteEvaluation.  It tries steps ``s``
    along ``g`` until the objective does not exceed ``cur``; a wall (``inf``)
    or NaN trial never does.  The first step starts from ``step0``, or from
    ``fallback`` when one is given and ``step0``'s trial is at the rounding
    floor (the y-solve's, as :func:`solve` states).  Each later one starts
    from twice the last accepted step ``s_p``, but at most 1/kappa, where
    kappa = |g_p.g_p - g.g_p| / (s_p |g_p|^2) is the secant curvature along
    that step and g_p the gradient it was taken along: the step grows up to
    the local curvature, not past it into a farther basin.
    A finite rejected trial is followed by the minimizer of the quadratic
    with phi(0) = cur, phi'(0) = -|g|^2 and phi(s) = trial, clamped to
    [0.1 s, 0.5 s] (safeguarded quadratic backtracking, Nocedal & Wright
    section 3.5).  A wall trial (+inf) whose last penalty argument went from
    inside its wall (< 0) to a finite point at or past it is followed by
    :meth:`_Stage.wall_step`, clamped the same way; any other wall trial,
    and a NaN trial whatever its arguments, halves the step.  The solve ends at the rounding floor: a trial
    whose predicted decrease ``s |g|^2`` is at most one ulp of ``cur`` could
    only be decided by rounding, so it is not tried.  After ``MAX_HALVINGS``
    failed backtracks the iterate is pinned, and the solve ends too.  An
    accepted trial can be -inf, so an end value that is not finite raises
    NonFiniteEvaluation.  Returns ``(v, cur, args, first)``: the last
    accepted point, and the first step accepted (None if none was).
    """
    if cur == math.inf:  # a wall; NaN is not one
        raise BarrierWall(f"{name} starts at a barrier wall")
    if math.isnan(cur):
        raise NonFiniteEvaluation(f"{name} value non-finite")
    value, gradient, step = stage.value, stage.gradient, step0
    vdot, isfinite, ulp = np.vdot, math.isfinite, math.ulp  # bound once: n = 2 steps are dispatch
    g_prev = first = None
    for _ in range(steps):
        g = gradient(v, args)
        gg = float(vdot(g, g))  # |g|^2 = -phi'(0), without an overflow warning
        if not (isfinite(gg) or np.isfinite(g).all()):
            raise NonFiniteEvaluation(f"{name} gradient non-finite")
        if g_prev is not None:  # twice the last step, at most 1/kappa
            d = abs(gg_prev - float(vdot(g, g_prev)))
            step *= 2.0 if 2.0 * d <= gg_prev else gg_prev / d
        elif fallback is not None and gg * step <= ulp(cur):  # a first trial at the floor
            step = fallback
        for _ in range(MAX_HALVINGS + 1):
            if gg * step <= ulp(cur):  # the rounding floor
                break
            v_new = v - step * g
            trial, trial_args = value(v_new)
            if trial <= cur:
                if g_prev is None:
                    first = step
                v, cur, args, g_prev, gg_prev = v_new, trial, trial_args, g, gg
                break
            if trial < math.inf:  # finite: minimize the quadratic through the trial
                fit = gg * step * step / (2.0 * (trial - cur + gg * step))
            elif (trial == math.inf and trial_args
                  and args[len(trial_args) - 1] < 0.0 <= trial_args[-1] < math.inf):
                fit = stage.wall_step(args, trial_args, gg, step)  # a wall the trial crossed
            else:  # NaN, or a wall no argument crossed: halve
                fit = 0.5 * step
            step = max(0.1 * step, min(0.5 * step, fit))  # a NaN fit (inf/inf) halves too
        if g_prev is not g:  # no trial accepted: at the rounding floor, or pinned
            break
    if not isfinite(cur):
        raise NonFiniteEvaluation(f"{name} value non-finite")
    return v, cur, args, first


def solve_regularized_ll(
    problem: BilevelProblem,
    x: np.ndarray,
    sched: ScheduleState,
    cfg: SolverConfig,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, float, list]:
    """At most T_z guarded steps on f(x, .) + mu/2 |y|^2 (+ LL-constraint barriers).

    The steps are :func:`_descend`'s, from ``z0`` (zeros when None) with a
    first trial of ``step_z``.  Returns (z, f_star_approx, args):
    f_star_approx is the objective at the returned z, barrier terms
    included, and args are the barrier arguments h(x, z) behind it (empty
    without LL constraints).
    """
    hs = problem.ll_constraints
    z = np.zeros(problem.n) if z0 is None else np.array(z0, dtype=float)
    stage = _Stage.regularized_ll(problem, x, sched, cfg)
    cur, args = stage.value(z)
    # Restoration: outer x-steps routinely strand a wall-hugging warm start
    # just outside a wall.  Step along the normal of every walled constraint
    # at once (value() stops at the first wall, so each h is evaluated) until
    # the point is back inside; a NaN value is not a wall and leaves too.
    for _ in range(4 * cfg.T_z + MAX_HALVINGS):
        if cur != math.inf:
            break
        normals = [h.gy(x, z) for h in hs if h(x, z) >= 0.0]
        if not normals:  # no wall: f is +inf there, or the sum overflowed
            raise NonFiniteEvaluation("z-solve value non-finite")
        z = z - cfg.step_z * sum(normals)
        cur, args = stage.value(z)
    return _descend(stage, z, cur, args, cfg.T_z, cfg.step_z, "z-solve")[:3]


def solve_penalized_inner(
    problem: BilevelProblem,
    x: np.ndarray,
    f_star_approx: float,
    sched: ScheduleState,
    cfg: SolverConfig,
    y0: np.ndarray,
    step0: float | None = None,
    y_pred: np.ndarray | None = None,
) -> tuple[np.ndarray, list, _Stage, float | None]:
    """At most T_y guarded gradient steps on the stage-frozen penalized objective.

    Optimistic mode minimizes F + P-terms + theta/2 |y|^2; pessimistic mode
    ascends F - P-terms - theta/2 |y|^2 (implemented as descent on the
    negated objective).  One evaluation of f, each H and each h at y0 gives
    the stage its frozen shifts (see :meth:`_Stage.penalized`) and the start
    value.  ``step0`` (``step_y`` when None) and a prediction ``y_pred`` are
    the start of :func:`solve`'s rule.  ``y_pred`` is evaluated on that same
    stage, and the descent starts there when its value is ``<=`` the value at
    y0, so never at a wall or at NaN.
    Returns (y, args, stage, step1): args are the penalty arguments at y,
    stage is the objective, its terms holding the frozen shifts, and step1
    is the first step accepted (None if none was).
    """
    y = np.array(y0, dtype=float)
    raw = [c(x, y) for c in (problem.f, *problem.ul_constraints, *problem.ll_constraints)]
    stage = _Stage.penalized(problem, x, sched, cfg, f_star_approx, raw)
    cur, args = stage.value(y, raw)
    if y_pred is not None:  # a wall (+inf) or NaN is never <= a finite start
        pred, pred_args = stage.value(y_pred)
        if pred <= cur:
            y, cur, args = y_pred, pred, pred_args
    y, _, args, step1 = _descend(stage, y, cur, args, cfg.T_y,
                                 cfg.step_y if step0 is None else step0, "y-solve", cfg.step_y)
    return y, args, stage, step1


def solve_inner(
    problem: BilevelProblem,
    x: np.ndarray,
    sched: ScheduleState,
    cfg: SolverConfig,
    z0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
    step_y: float | None = None,
    y_pred: np.ndarray | None = None,
) -> InnerState:
    """Run both inner solves for one (k, l) step and bundle the results.

    ``step_y`` and ``y_pred`` are the y-solve's ``step0`` and ``y_pred``
    (see :func:`solve_penalized_inner`).
    """
    z, f_star, args_z = solve_regularized_ll(problem, x, sched, cfg, z0)
    y, args_y, stage, step1 = solve_penalized_inner(problem, x, f_star, sched, cfg,
                                                    z if y0 is None else y0, step_y, y_pred)
    return InnerState(z, f_star, y, args_z, args_y, stage, step1)


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
    read from the inner solves' last evaluations: the y-terms' from the
    y-solve's stage and ``inner.args_y``, rho_B' from ``inner.args_z``.
    ``s`` is the inner sign: -1 in pessimistic mode, where the inner problem
    ascends F - P, else +1.  Terms are evaluated only for nonzero
    multipliers, and the sign is exact, so the optimistic gradient is
    bitwise the unsigned formula.
    """
    stage, y, z = inner.stage, inner.y, inner.z
    lams = stage.multipliers(inner.args_y)
    if stage.negate:
        lams = [-lam for lam in lams]
    g = problem.F.gx(x, y)
    if lams[0] != 0.0:
        dfstar_dx = problem.f.gx(x, z)
        drho_B, s = cfg.aux_B.kind.drho, sched.sigma1
        for h, w in zip(problem.ll_constraints, inner.args_z):
            dfstar_dx = dfstar_dx + drho_B(w, s) * h.gx(x, z)
        g = g + lams[0] * (problem.f.gx(x, y) - dfstar_dx)
    for (c, *_), lam in zip(stage.terms[1:], lams[1:]):
        if lam != 0.0:
            g = g + lam * c.gx(x, y)
    return g


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


def _recorder(problem, reference: Reference | None, trace: SolveTrace, t0: float):
    """``record(k, l, x, y, grad_norm=nan, sched=None)``, the one trace record builder.

    Each call appends one TraceRecord of copies of ``x`` and ``y``, with F, f
    and the errors to ``reference`` at them, the wall time since ``t0`` and
    the schedule's mu, theta and sigma1 (NaN without a schedule, as for a
    baseline), and returns it.  The reference's scales |x*| and |F*| (1 where
    zero) are computed here, once per trace, not once per record.  Without a
    reference both errors are NaN.
    """
    F, f, nan = problem.F, problem.f, float("nan")
    x_star = F_star = None
    if reference is not None:
        x_star, F_star = reference.x_star, reference.F_star
        nx = float(np.linalg.norm(x_star))  # a Python float, so every error column is one
        x_scale = nx if nx > 0 else 1.0
        F_scale = None if F_star is None else (abs(F_star) if abs(F_star) > 0 else 1.0)

    def record(k, l, x, y, grad_norm=nan, sched=None) -> TraceRecord:
        F_val, f_val = F(x, y), f(x, y)
        rel_x = nan if x_star is None else float(np.linalg.norm(x - x_star)) / x_scale
        rel_F = nan if F_star is None else abs(F_val - F_star) / F_scale
        mu, theta, sigma1 = (nan,) * 3 if sched is None else (sched.mu, sched.theta, sched.sigma1)
        rec = TraceRecord(k, l, x.copy(), F_val, f_val, grad_norm, rel_x, rel_F,
                          time.perf_counter() - t0, mu, theta, sigma1, y.copy())
        trace.append(rec)
        return rec

    return record


def _start_vector(name: str, value, dim: int) -> np.ndarray:
    """One start point of ``dim`` entries: None gives zeros, a bare number fills every entry."""
    if value is None:
        return np.zeros(dim)
    try:
        v = np.asarray(value)
    except ValueError as exc:  # a ragged nested list
        raise InvalidParameter(f"{name} {value!r} is not a vector: {exc}") from exc
    if v.dtype.kind not in "iuf":
        raise InvalidParameter(f"{name} must be numeric, got {value!r}")
    v = v.astype(float, copy=False)
    if v.ndim == 0:
        v = np.full(dim, float(v))
    if v.shape != (dim,):
        raise InvalidParameter(f"{name} must have dimension {dim}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidParameter(f"{name} has non-finite entries: {v}")
    return v


def start_point(problem: BilevelProblem, x0, y0=None) -> tuple[np.ndarray, np.ndarray]:
    """The one reader of start points: x0 projected onto the UL set, and y0.

    None gives zeros and a bare number fills every entry; anything else must be
    a finite 1-D vector of the problem's dimension.  Every other value raises
    InvalidParameter naming ``x0`` or ``y0``.
    """
    x = _start_vector("x0", x0, problem.m)
    return project(problem.ul_set, x), _start_vector("y0", y0, problem.n)


def solve(
    problem: BilevelProblem,
    cfg: SolverConfig,
    x0,
    y0=None,
    reference: Reference | None = None,
) -> SolveTrace:
    """Run K stages of L projected UL steps with schedule-aware inner solves.

    Warm starts persist z and y across (k, l) steps and across stages.  The
    y-solve's start is stated here once.  Its first trial is ``step_y`` in the
    first stage, as in a single step.  In each later stage it is twice the
    first step that the last solved stage's y-solve accepted, capped at
    ``step_y``, so a stiff late stage does not backtrack down from ``step_y``
    again (the initial-step rule of Nocedal & Wright, section 3.5).  If that
    remembered trial is at the rounding floor, the y-solve tries ``step_y``
    instead, so the memory never ends a solve that ``step_y`` would continue.
    From the third stage on, a y-solve may also start elsewhere than the last
    stage's y: the secant prediction 2 y_k - y_(k-1) of the last two solved
    stages (the predictor step of continuation methods, Allgower & Georg,
    2003, ch. 2) is taken when the stage, frozen at the plain warm start as
    ever, is no higher there, so the prediction never sets a shift.  The
    polish starts from the last solved y.  A stage that meets a barrier wall
    retries the previous UL step with its move halved, up to
    ``MAX_HALVINGS`` times.  Returns the full trace; raises
    SolveTimeout past cfg.wall_clock_cap_s and SolveError on any other inner
    failure, both carrying the partial trace.
    """
    t0 = time.perf_counter()
    x, y_init = start_point(problem, x0, y0)
    sched = cfg.schedule
    trace = SolveTrace()
    record = _recorder(problem, reference, trace, t0)
    record(0, 0, x, y_init, sched=sched)

    z_warm = y_init
    y_warm: np.ndarray | None = None  # first stage: y starts from the z result
    y_pred = None  # the secant prediction 2 y_k - y_(k-1), once two stages are solved
    step_y = cfg.step_y  # the y-solve's first trial
    x_prev = None  # where the last stage was solved, the origin of the UL step to x

    for k in range(cfg.K):
        for l in range(cfg.L):
            if cfg.wall_clock_cap_s is not None and time.perf_counter() - t0 > cfg.wall_clock_cap_s:
                raise SolveTimeout(
                    f"wall clock cap {cfg.wall_clock_cap_s}s exceeded at k={k}", trace
                )
            # Attempt 0 is the step to x; attempt i retries the previous UL
            # step with its move halved i times, while a stage meets a wall.
            for i in range(MAX_HALVINGS + 1):
                x_try = x if i == 0 else x_prev + 0.5 ** i * (x - x_prev)
                try:
                    inner = solve_inner(problem, x_try, sched, cfg, z0=z_warm, y0=y_warm,
                                        step_y=step_y, y_pred=y_pred)
                    grad = ul_gradient_for(problem, x_try, inner, sched, cfg)
                    break
                except (BarrierWall, NonFiniteEvaluation) as exc:
                    if not isinstance(exc, BarrierWall) or x_prev is None or i == MAX_HALVINGS:
                        raise SolveError(str(exc), k, l, trace) from exc
            x = x_prev = x_try
            if not all_finite(grad):
                raise SolveError("UL gradient non-finite", k, l, trace)
            try:
                x = project(problem.ul_set, x - cfg.alpha * grad)
            except NonFiniteEvaluation as exc:
                raise SolveError("UL iterate non-finite", k, l, trace) from exc
            if y_warm is not None:
                y_pred = 2.0 * inner.y - y_warm
            z_warm, y_warm = inner.z, inner.y
            if inner.step_y1 is not None:  # twice the first step it accepted, at most step_y
                step_y = min(cfg.step_y, 2.0 * inner.step_y1)

            record(k, l + 1, x, inner.y, float(np.linalg.norm(grad)), sched)
        sched = schedule_step(sched)

    # Feasibility polish: penalty/barrier iterates end a vanishing distance on
    # the relaxed side of LL optimality, so finish with a z-solve from y.
    # Optimistic mode only: a pessimistic iterate encodes the worst-case
    # selection, which an unguided descent would abandon.
    if cfg.K > 0 and problem.mode is Mode.OPTIMISTIC:  # L >= 1, so y_warm is set
        try:
            record(cfg.K, 0, x, solve_regularized_ll(problem, x, sched, cfg, z0=y_warm)[0],
                   sched=sched)
        except (BarrierWall, NonFiniteEvaluation):
            pass  # keep the raw final record
    return trace
