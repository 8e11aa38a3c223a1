"""Value-function-based sequential minimization solver for bi-level problems.

Each outer stage freezes the current penalty/barrier parameters, approximates
the regularized LL value function by a short gradient descent (the z-solve),
then descends (or ascends, pessimistic mode) a penalized single-level
objective in y, and finally takes one projected gradient step in x.  The UL
gradient comes from one signed value-function chain rule,
:func:`ul_gradient_for`: the penalty terms enter with the sign of the inner
problem, so optimistic, pessimistic and constrained problems, and any mix of
them, share a single formula.  Modified-barrier shifts are frozen per stage
and padded just enough to keep the incoming iterate strictly inside the wall;
descent steps that would cross a wall or increase the frozen stage objective
are halved at most ``MAX_HALVINGS`` times.  Each backtracking search starts at
``min(step, 2 * last accepted step)`` of the same inner solve, so a stiff
barrier costs a few halvings once per stage instead of on every step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .auxfun import (
    AuxiliaryFunction,
    BarrierWall,
    DynamicShift,
    ScheduleState,
    StaticShift,
    TruncatedLogBarrier,
    _rho,
    _rho_deriv,
    schedule_step,
)
from .core import (
    BilevelProblem,
    InvalidParameter,
    Mode,
    NonFiniteEvaluation,
    project,
)


MAX_HALVINGS = 30  # step halvings before a guarded step counts as pinned


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
# stage-frozen shifts
# ---------------------------------------------------------------------------


def _stage_shift_f(problem, x, y_init, f_star, sched, aux_f: AuxiliaryFunction) -> float:
    """Frozen modified-barrier shift for the value-function term.

    Dynamic rule: f(x, y) + offset at the stage's incoming iterate.  Static
    rule: the scheduled sigma2 value, padded by the incoming constraint
    violation so the stage never starts on the wrong side of its own wall.
    """
    if not aux_f.modified:
        return 0.0
    if isinstance(sched.sigma2, DynamicShift):
        return problem.f(x, y_init) + sched.sigma2.offset
    # Scheduled shift plus the incoming violation: the stage always starts a
    # full sigma2 inside its wall, so outer x-moves can never strand the
    # iterate on the infeasible side.
    omega0 = problem.f(x, y_init) - f_star
    return sched.sigma2.value + max(0.0, omega0)

def _stage_shifts_constraints(fields, x, y_init, sched, aux: AuxiliaryFunction,
                              role: str) -> np.ndarray:
    """Frozen shifts for modified barriers on H or h constraint terms."""
    if not fields:
        return np.zeros(0)
    if not aux.modified:
        return np.zeros(len(fields))
    role_shift = getattr(sched, f"sigma2_{role}", None)
    if role_shift is not None:
        base = role_shift.value
    elif isinstance(sched.sigma2, StaticShift):
        base = sched.sigma2.value
    else:
        base = sched.sigma1
    return np.array([base + max(0.0, fld(x, y_init)) for fld in fields])


# ---------------------------------------------------------------------------
# inner solves
# ---------------------------------------------------------------------------


def _guarded_step(evaluate, v: np.ndarray, g: np.ndarray, step: float, cur: float):
    """Backtracking step from ``v`` along ``-g`` on a stage-frozen objective.

    ``evaluate`` returns a tuple whose first entry is the objective (``inf``
    at a barrier wall).  The search starts at ``step``; callers pass
    ``min(configured step, 2 * last accepted step)``, or the configured step
    on the first step of an inner solve.  The step is halved until the
    objective does not exceed ``cur``.  Returns ``(v_new, evaluate(v_new),
    step)`` with the accepted step length, or None when all ``MAX_HALVINGS``
    halvings fail and the iterate is pinned for the stage.
    """
    for _ in range(MAX_HALVINGS + 1):
        v_new = v - step * g
        result = evaluate(v_new)
        if result[0] <= cur:
            return v_new, result, step
        step *= 0.5
    return None


def solve_regularized_ll(
    problem: BilevelProblem,
    x: np.ndarray,
    sched: ScheduleState,
    cfg: SolverConfig,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """T_z gradient steps on f(x, .) + mu/2 |y|^2 (+ LL-constraint barriers).

    Returns (z, f_star_approx) with f_star_approx evaluated at the returned z,
    including the barrier terms in the constrained case.
    """
    f = problem.f
    hs = problem.ll_constraints
    mu = sched.mu
    sigma = sched.sigma1
    z = np.zeros(problem.n) if z0 is None else np.array(z0, dtype=float)

    if not hs:
        for _ in range(cfg.T_z):
            g = f.gy(x, z) + mu * z
            if not np.all(np.isfinite(g)):
                raise NonFiniteEvaluation("LL gradient non-finite during z-solve")
            z = z - cfg.step_z * g
        f_star = f(x, z) + 0.5 * mu * float(z @ z)
        if not math.isfinite(f_star):
            raise NonFiniteEvaluation("regularized LL value non-finite")
        return z, f_star

    kindB = cfg.aux_B.kind

    def value(zv):
        """(objective, None) for the barrier-augmented LL; inf at walls."""
        total = f(x, zv) + 0.5 * mu * float(zv @ zv)
        for h in hs:
            total += _rho(kindB, h(x, zv), sigma)
            if total == math.inf:
                break
        return total, None

    cur, _ = value(z)
    if not cur < math.inf:
        # restoration phase: descend the squared constraint violation until
        # the point re-enters the barrier domain (outer x-steps routinely
        # strand a wall-hugging warm start by a small margin)
        for _ in range(cfg.T_z * 4):
            viol = np.array([max(h(x, z), 0.0) for h in hs])
            if not np.any(viol > 0.0):
                break
            g = np.zeros_like(z)
            for v_j, h in zip(viol, hs):
                if v_j > 0.0:
                    g += 2.0 * v_j * h.gy(x, z)
            z = z - cfg.step_z * g
        # step slightly past the boundary toward the interior if still walled
        for _ in range(MAX_HALVINGS):
            cur = value(z)[0]
            if cur < math.inf:
                break
            g = np.zeros_like(z)
            for h in hs:
                if h(x, z) >= 0.0:
                    g += h.gy(x, z)
            z = z - cfg.step_z * g
        if not cur < math.inf:
            raise BarrierWall("initial point infeasible for LL constraint barriers")
    step = cfg.step_z
    for _ in range(cfg.T_z):
        g = f.gy(x, z) + mu * z
        for h in hs:
            g = g + _rho_deriv(kindB, h(x, z), sigma) * h.gy(x, z)
        if not np.all(np.isfinite(g)):
            raise NonFiniteEvaluation("LL gradient non-finite during z-solve")
        moved = _guarded_step(value, z, g, step, cur)
        if moved is None:
            break  # wall-pinned; z stays
        z, (cur, _), accepted = moved
        step = min(cfg.step_z, 2.0 * accepted)
    f_star = f(x, z) + 0.5 * mu * float(z @ z)
    for h in hs:
        f_star += _rho(kindB, h(x, z), sigma)
    if not math.isfinite(f_star):
        raise NonFiniteEvaluation("regularized LL value non-finite")
    return z, f_star


def _inner_sign(problem: BilevelProblem) -> float:
    return -1.0 if problem.mode is Mode.PESSIMISTIC else 1.0


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
    negated objective).  Shifts for modified barriers are frozen per stage.
    Returns the full InnerState (z is filled in by the caller).
    """
    F, f = problem.F, problem.f
    Hs, hs = problem.ul_constraints, problem.ll_constraints
    theta = sched.theta
    sgn = _inner_sign(problem)
    sigma = sched.sigma1
    kf, kH, kh = cfg.aux_f.kind, cfg.aux_H.kind, cfg.aux_h.kind

    y = np.array(y0, dtype=float)
    shift_f = _stage_shift_f(problem, x, y, f_star_approx, sched, cfg.aux_f)
    shifts_H = _stage_shifts_constraints(Hs, x, y, sched, cfg.aux_H, "H")
    shifts_h = _stage_shifts_constraints(hs, x, y, sched, cfg.aux_h, "h")

    def evaluate(yv):
        """(objective, f_value) for the stage-frozen problem; inf at walls."""
        fv = f(x, yv)
        total = sgn * F(x, yv) + 0.5 * theta * float(yv @ yv)
        total += _rho(kf, fv - f_star_approx - shift_f, sigma)
        if total == math.inf:
            return math.inf, fv
        for j, H in enumerate(Hs):
            total += _rho(kH, H(x, yv) - shifts_H[j], sigma)
            if total == math.inf:
                return math.inf, fv
        for j, h in enumerate(hs):
            total += _rho(kh, h(x, yv) - shifts_h[j], sigma)
            if total == math.inf:
                return math.inf, fv
        return total, fv

    cur, f_val = evaluate(y)
    if not cur < math.inf:
        raise BarrierWall("stage started outside a constraint barrier wall")
    if not math.isfinite(cur):
        raise NonFiniteEvaluation("inner objective non-finite at stage start")

    step = cfg.step_y
    for _ in range(cfg.T_y):
        lam_f = _rho_deriv(kf, f_val - f_star_approx - shift_f, sigma)
        g = sgn * F.gy(x, y) + lam_f * f.gy(x, y) + theta * y
        for j, H in enumerate(Hs):
            g = g + _rho_deriv(kH, H(x, y) - shifts_H[j], sigma) * H.gy(x, y)
        for j, h in enumerate(hs):
            g = g + _rho_deriv(kh, h(x, y) - shifts_h[j], sigma) * h.gy(x, y)
        if not np.all(np.isfinite(g)):
            raise NonFiniteEvaluation("inner gradient non-finite during y-solve")
        moved = _guarded_step(evaluate, y, g, step, cur)
        if moved is None:
            break  # step fully damped; y is pinned for this stage
        y, (cur, f_val), accepted = moved
        step = min(cfg.step_y, 2.0 * accepted)

    return InnerState(
        z=np.empty(0),
        f_star_approx=f_star_approx,
        y=y,
        shift_f=shift_f,
        shifts_H=shifts_H,
        shifts_h=shifts_h,
    )


def solve_inner(
    problem: BilevelProblem,
    x: np.ndarray,
    sched: ScheduleState,
    cfg: SolverConfig,
    z0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
) -> InnerState:
    """Run both inner solves for one (k, l) step and bundle the results."""
    z, f_star = solve_regularized_ll(problem, x, sched, cfg, z0)
    start = np.array(z if y0 is None else y0, dtype=float)
    inner = solve_penalized_inner(problem, x, f_star, sched, cfg, start)
    inner.z = z
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

    Each multiplier is P' of its stage-frozen penalty argument at the stage
    iterates y (penalized solve) and z (LL value solve).  ``s`` is the sign of
    the inner objective: -1 in pessimistic mode, where the inner problem
    ascends F - P, else +1.  Without constraints the sums are empty.  Terms
    are evaluated only for nonzero multipliers, and multiplying by s = +-1 is
    exact, so the optimistic gradient is bitwise the unsigned formula.
    """
    sgn = _inner_sign(problem)
    sigma = sched.sigma1
    y, z = inner.y, inner.z
    g = problem.F.gx(x, y)
    omega = problem.f(x, y) - inner.f_star_approx - inner.shift_f
    lam = sgn * _rho_deriv(cfg.aux_f.kind, omega, sigma)
    if lam != 0.0:
        dfstar_dx = problem.f.gx(x, z)
        for h in problem.ll_constraints:
            dfstar_dx = dfstar_dx + _rho_deriv(cfg.aux_B.kind, h(x, z), sigma) * h.gx(x, z)
        g = g + lam * (problem.f.gx(x, y) - dfstar_dx)
    for j, H in enumerate(problem.ul_constraints):
        lam_H = sgn * _rho_deriv(cfg.aux_H.kind, H(x, y) - inner.shifts_H[j], sigma)
        if lam_H != 0.0:
            g = g + lam_H * H.gx(x, y)
    for j, h in enumerate(problem.ll_constraints):
        lam_h = sgn * _rho_deriv(cfg.aux_h.kind, h(x, y) - inner.shifts_h[j], sigma)
        if lam_h != 0.0:
            g = g + lam_h * h.gx(x, y)
    return g


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


def _errors(problem, x, y, reference: Reference | None) -> tuple[float, float, float, float]:
    F_val = problem.F(x, y)
    f_val = problem.f(x, y)
    rel_x = float("nan")
    rel_F = float("nan")
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

    Warm starts persist z and y across (k, l) steps and across stages.  An
    infeasible constrained stage triggers UL step halving, mirroring the
    inner wall handling.  Returns the full trace; raises SolveTimeout past
    cfg.wall_clock_cap_s and SolveError on unrecoverable inner failures, both
    carrying the partial trace.
    """
    t0 = time.perf_counter()
    x = project(problem.ul_set, np.atleast_1d(np.asarray(x0, dtype=float)))
    y_init = np.zeros(problem.n) if y0 is None else np.atleast_1d(np.asarray(y0, dtype=float))
    if y_init.shape[0] != problem.n:
        raise InvalidParameter(f"y0 must have dimension {problem.n}")
    sched = cfg.schedule
    trace = SolveTrace()

    F_val, f_val, rel_x, rel_F = _errors(problem, x, y_init, reference)
    trace.append(
        TraceRecord(0, 0, x.copy(), F_val, f_val, float("nan"), rel_x, rel_F,
                    time.perf_counter() - t0, sched.mu, sched.theta, sched.sigma1,
                    y=y_init.copy())
    )

    z_warm: np.ndarray | None = y_init.copy()
    y_warm: np.ndarray | None = None  # first stage: y starts from the z result

    for k in range(cfg.K):
        for l in range(cfg.L):
            if cfg.wall_clock_cap_s is not None and time.perf_counter() - t0 > cfg.wall_clock_cap_s:
                raise SolveTimeout(
                    f"wall clock cap {cfg.wall_clock_cap_s}s exceeded at k={k}", trace
                )
            try:
                inner = solve_inner(problem, x, sched, cfg, z0=z_warm, y0=y_warm)
                grad = ul_gradient_for(problem, x, inner, sched, cfg)
            except BarrierWall as exc:
                # UL-level recovery: retry the previous step with halved moves.
                recovered = False
                if len(trace.records) >= 2:  # a UL step has been taken
                    x_prev = trace.records[-2].x
                    step = 0.5
                    for _ in range(MAX_HALVINGS):
                        x_try = x_prev + step * (x - x_prev)
                        try:
                            inner = solve_inner(problem, x_try, sched, cfg, z0=z_warm, y0=y_warm)
                            grad = ul_gradient_for(problem, x_try, inner, sched, cfg)
                            x = x_try
                            recovered = True
                            break
                        except BarrierWall:
                            step *= 0.5
                if not recovered:
                    raise SolveError(str(exc), k, l, trace) from exc
            except NonFiniteEvaluation as exc:
                raise SolveError(str(exc), k, l, trace) from exc
            if not np.all(np.isfinite(grad)):
                raise SolveError("UL gradient non-finite", k, l, trace)
            x = project(problem.ul_set, x - cfg.alpha * grad)
            z_warm, y_warm = inner.z, inner.y

            F_val, f_val, rel_x, rel_F = _errors(problem, x, inner.y, reference)
            trace.append(
                TraceRecord(k, l + 1, x.copy(), F_val, f_val,
                            float(np.linalg.norm(grad)), rel_x, rel_F,
                            time.perf_counter() - t0, sched.mu, sched.theta, sched.sigma1,
                            y=inner.y.copy())
            )
        sched = schedule_step(sched)

    # Feasibility polish: penalty/barrier iterates end a vanishing distance on
    # the relaxed side of LL optimality, so finish with a plain LL descent
    # from y.  Optimistic mode only: a pessimistic iterate encodes the
    # worst-case selection, which an unguided descent would abandon.
    if cfg.K > 0 and problem.mode is Mode.OPTIMISTIC and y_warm is not None:
        try:
            y_pol, _ = solve_regularized_ll(problem, x, sched, cfg, z0=y_warm)
            F_val, f_val, rel_x, rel_F = _errors(problem, x, y_pol, reference)
            trace.append(
                TraceRecord(cfg.K, 0, x.copy(), F_val, f_val, float("nan"),
                            rel_x, rel_F, time.perf_counter() - t0,
                            sched.mu, sched.theta, sched.sigma1, y=y_pol.copy())
            )
        except (BarrierWall, NonFiniteEvaluation):
            pass  # keep the raw final record
    return trace
