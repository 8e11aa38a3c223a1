"""Classical hypergradient estimators: RHG, TRHG, BDA, CG and Neumann.

Explicit (unrolled) estimators share one forward recorder and one reverse
pass (:func:`_unrolled`): RHG differentiates all T steps of LL gradient
descent, TRHG only the last I, and BDA all T of the blended map that mixes
the UL gradient into each step.  Implicit estimators solve the stationarity
system at y_T, where :func:`ll_descent`'s fixed steps end.  Every estimator
returns one :class:`Hypergradient`.  Second-order information is obtained matrix-free through
finite differences of the user's analytic gradients: Hessian-vector products
via :func:`bvfsm.core.hvp`, mixed d2f/dydx products via differences of
grad_x along y-perturbations (:func:`_mixed_vjp`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    BilevelProblem,
    InvalidParameter,
    NonFiniteEvaluation,
    _inline,
    all_finite,
    hvp,
)

# method name -> the BaselineConfig field its inline argument fills (None: it takes none)
METHODS = {"rhg": None, "trhg": "I", "bda": "aggregation", "cg": "Q", "neumann": "Q"}


@dataclass(frozen=True)
class BaselineConfig:
    """Shared knobs for the five estimators.

    ``T`` LL descent steps of size ``ll_step``, which also scales the Neumann
    series; ``Q`` linear-solve steps (CG iterations or Neumann terms); ``I``
    truncation window for TRHG; ``aggregation`` in (0, 1) for BDA;
    ``hvp_eps`` for finite differences.
    ``alpha`` and ``ul_steps`` are the UL step size and step count used by
    experiment drivers.
    """

    T: int = 100
    Q: int = 20
    I: int = 100
    aggregation: float = 0.5
    aggregation_decay: float = 1.0  # alpha_t = aggregation * decay^t; 1.0 = constant
    ll_step: float = 0.01
    alpha: float = 0.01
    hvp_eps: float = 1e-5
    ul_steps: int = 500

    def __post_init__(self):
        if self.T < 0:
            raise InvalidParameter("T must be >= 0")
        if self.Q < 1:
            raise InvalidParameter("Q must be >= 1")
        if not (0 <= self.I <= self.T):
            raise InvalidParameter("truncation window I must satisfy 0 <= I <= T")
        if not (0.0 < self.aggregation < 1.0):
            raise InvalidParameter("aggregation must lie in (0, 1)")
        if not (0.0 < self.aggregation_decay <= 1.0):
            raise InvalidParameter("aggregation_decay must lie in (0, 1]")
        if not all(0.0 < v < math.inf for v in (self.ll_step, self.alpha, self.hvp_eps)):
            raise InvalidParameter("steps and hvp_eps must be positive and finite")
        if self.ul_steps < 0:
            raise InvalidParameter("ul_steps must be >= 0")


class Hypergradient(NamedTuple):
    """What every estimator returns: the UL gradient, the LL point it was taken at, a flag."""

    grad_x: np.ndarray
    y_T: np.ndarray
    flag: str = ""  # "" | "cg-breakdown" | "diverging"


def _check(v, what):
    if not all_finite(v):
        raise NonFiniteEvaluation(f"non-finite {what}")
    return v


def ll_descent(problem: BilevelProblem, x, y0, steps: int, step_size: float) -> np.ndarray:
    """``steps`` fixed gradient steps ``y <- y - step_size * grad_y f(x, y)`` from ``y0``.

    The iterate is a private copy of ``y0``, updated in place and returned.
    Only it is written, never the gradient, so an array that ``grad_y``
    returns (its input, or one it caches) is left as it was.  Each step
    computes the same bits as ``y = y - step_size * grad_y(x, y)``.  A
    non-finite gradient raises NonFiniteEvaluation at its step, before the
    iterate moves, naming the step.  The test is :func:`all_finite`'s,
    written out: at n = 2 a step costs a few NumPy calls, so every name the
    loop uses is bound once.
    """
    grad_y, y = problem.f.grad_y, np.array(y0, dtype=float)
    asarray, vdot, isfinite, np_isfinite = np.asarray, np.vdot, math.isfinite, np.isfinite
    for t in range(steps):
        g = asarray(grad_y(x, y), dtype=float)
        if not (isfinite(vdot(g, g)) or np_isfinite(g).all()):
            raise NonFiniteEvaluation(f"non-finite LL gradient at step {t}")
        y -= step_size * g
    return y


def _mixed_vjp(gx, y, v, eps):
    """(d2/dy dx)^T v: central difference of the x-gradient closure gx along v."""
    d = eps * v
    return _check((gx(y + d) - gx(y - d)) / (2.0 * eps), "mixed second derivative")


def _ll_map(problem, x, cfg, t, bda):
    """Step t's y-gradient and x-gradient closures of the descended function.

    f's own, or with ``bda`` BDA's blend (1 - a_t) f + a_t F with
    a_t = aggregation * aggregation_decay^t.
    """
    f, F = problem.f, problem.F
    if not bda:
        return (lambda yv: f.gy(x, yv)), (lambda yv: f.gx(x, yv))
    a = cfg.aggregation * cfg.aggregation_decay**t
    return (lambda yv: (1.0 - a) * f.gy(x, yv) + a * F.gy(x, yv),
            lambda yv: (1.0 - a) * f.gx(x, yv) + a * F.gx(x, yv))


def _unrolled(problem, x, y0, cfg, window, bda=False) -> Hypergradient:
    """One forward recorder and one reverse pass for every unrolled estimator.

    The forward pass records T steps of y <- y - s * d_t(y), with d_t the LL
    gradient or, with ``bda``, the blended BDA map (see :func:`_ll_map`).  The
    reverse pass then differentiates the last ``window`` steps, assembling each
    step's vector-Jacobian product from finite-difference Hessian and mixed
    products.  RHG is window T, TRHG window I, BDA window T on the blend.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s, eps = cfg.ll_step, cfg.hvp_eps
    path = [np.array(y0, dtype=float)]
    for t in range(cfg.T):
        d = _check(_ll_map(problem, x, cfg, t, bda)[0](path[t]), f"LL gradient at step {t}")
        path.append(path[t] - s * d)
    y_T = path[-1]
    g_x = np.asarray(problem.F.gx(x, y_T), dtype=float).copy()
    p = np.asarray(problem.F.gy(x, y_T), dtype=float).copy()
    for t in range(cfg.T - 1, cfg.T - 1 - window, -1):
        gy, gx = _ll_map(problem, x, cfg, t, bda)
        hv = hvp(gy, path[t], p, eps)
        g_x -= s * _mixed_vjp(gx, path[t], p, eps)
        p = p - s * hv
    return Hypergradient(g_x, y_T)


def rhg_hypergradient(problem: BilevelProblem, x, y0, cfg: BaselineConfig) -> Hypergradient:
    """Reverse-mode unrolled hypergradient over the full T-step trajectory."""
    return _unrolled(problem, x, y0, cfg, cfg.T)


def trhg_hypergradient(problem: BilevelProblem, x, y0, cfg: BaselineConfig) -> Hypergradient:
    """Truncated reverse pass: only the last I steps are differentiated."""
    return _unrolled(problem, x, y0, cfg, cfg.I)


def bda_hypergradient(problem: BilevelProblem, x, y0, cfg: BaselineConfig) -> Hypergradient:
    """Aggregated descent: forward map mixes LL and UL gradients, reverse as RHG.

    With ``aggregation_decay < 1`` the UL weight fades over the inner steps,
    matching the vanishing-aggregation form of the original algorithm.
    """
    return _unrolled(problem, x, y0, cfg, cfg.T, bda=True)


def cg_hypergradient(problem: BilevelProblem, x, y_T, cfg: BaselineConfig) -> Hypergradient:
    """Implicit hypergradient with a Q-step conjugate-gradient linear solve.

    Solves (d2f/dydy) v = dF/dy at y_T matrix-free, then assembles
    dF/dx - (d2f/dydx)^T v.  Non-positive curvature stops the solve; the
    partial result is returned with flag "cg-breakdown".
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y_T = np.asarray(y_T, dtype=float)
    b = _check(np.asarray(problem.F.gy(x, y_T), dtype=float), "dF/dy")
    grad_fy, grad_fx = _ll_map(problem, x, cfg, 0, bda=False)

    v = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    tol = 1e-20 * rs  # |r| <= 1e-10 |b|: below that a finite-difference product is noise
    flag = ""
    for _ in range(cfg.Q):
        if rs == 0.0:
            break
        Ap = hvp(grad_fy, y_T, p, cfg.hvp_eps)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            flag = "cg-breakdown"
            break
        a = rs / pAp
        v = v + a * p
        r = r - a * Ap
        rs_new = float(r @ r)
        if rs_new <= tol:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    g = problem.F.gx(x, y_T) - _mixed_vjp(grad_fx, y_T, v, cfg.hvp_eps)
    return Hypergradient(_check(g, "CG hypergradient"), y_T, flag)


def neumann_hypergradient(problem: BilevelProblem, x, y_T, cfg: BaselineConfig) -> Hypergradient:
    """Implicit hypergradient with a Q-term Neumann series for the inverse Hessian.

    v = s * sum_q (I - s H)^q dF/dy with s = ll_step, via repeated Hessian
    products.  If the term norm grows for 5 consecutive terms the flag
    "diverging" is set and the partial sum is used.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y_T = np.asarray(y_T, dtype=float)
    s = cfg.ll_step
    grad_fy, grad_fx = _ll_map(problem, x, cfg, 0, bda=False)
    u = _check(np.asarray(problem.F.gy(x, y_T), dtype=float), "dF/dy")
    total = u.copy()
    flag = ""
    grow = 0
    prev = math.sqrt(u.dot(u))  # bitwise np.linalg.norm(u), without its dispatch
    for _ in range(cfg.Q - 1):
        u = u - s * hvp(grad_fy, y_T, u, cfg.hvp_eps)
        nrm = math.sqrt(u.dot(u))
        grow = grow + 1 if nrm > prev else 0
        prev = nrm
        total += u
        if grow >= 5:
            flag = "diverging"
            break
    v = s * total
    g = problem.F.gx(x, y_T) - _mixed_vjp(grad_fx, y_T, v, cfg.hvp_eps)
    return Hypergradient(_check(g, "Neumann hypergradient"), y_T, flag)


def hypergradient_step(problem: BilevelProblem, method: str, x, y, cfg: BaselineConfig):
    """One full UL-gradient computation of a named method: its estimator's Hypergradient.

    The implicit methods, cg and neumann, first take ``cfg.T`` LL descent
    steps from ``y``; the unrolled ones descend inside their estimator.
    """
    if method not in METHODS:
        raise InvalidParameter(f"unknown baseline method {method!r}")
    if method in ("cg", "neumann"):
        y = ll_descent(problem, x, y, cfg.T, cfg.ll_step)
    estimator = {"rhg": rhg_hypergradient, "trhg": trhg_hypergradient, "bda": bda_hypergradient,
                 "cg": cg_hypergradient, "neumann": neumann_hypergradient}[method]
    return estimator(problem, x, y, cfg)


def parse_method(spec: str, base: BaselineConfig | None = None) -> tuple[str, BaselineConfig]:
    """Parse "rhg", "trhg:I", "bda:agg", "cg:Q", "neumann:Q" into (name, config).

    An argument fills the field that METHODS names and takes its kind; without
    one a method keeps ``base``.  ``rhg`` takes none.
    """
    name, _, arg = str(spec).strip().lower().partition(":")
    if name not in METHODS:
        raise InvalidParameter(f"unknown baseline method {spec!r}")
    if arg and METHODS[name] is None:
        raise InvalidParameter(f"{name} takes no argument, got {spec!r}")
    return name, replace(base or BaselineConfig(), **_inline(BaselineConfig, METHODS[name], arg))
