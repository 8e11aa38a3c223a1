"""Classical hypergradient estimators: RHG, TRHG, BDA, CG and Neumann.

Explicit (unrolled) estimators differentiate through a T-step gradient
descent map on the LL problem; implicit estimators solve the stationarity
system at y_T.  Second-order information is obtained matrix-free through
finite differences of the user's analytic gradients: Hessian-vector products
via :func:`bvfsm.core.hvp`, mixed d2f/dydx products via differences of
grad_x along y-perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import BilevelProblem, InvalidParameter, NonFiniteEvaluation, hvp


@dataclass(frozen=True)
class BaselineConfig:
    """Shared knobs for the five estimators.

    ``T`` LL descent steps of size ``ll_step``; ``Q`` linear-solve steps
    (CG iterations or Neumann terms); ``I`` truncation window for TRHG;
    ``aggregation`` in (0, 1) for BDA; ``hvp_eps`` for finite differences.
    ``alpha`` is the UL step size used by experiment drivers.
    """

    T: int = 100
    Q: int = 20
    I: int = 100
    aggregation: float = 0.5
    aggregation_decay: float = 1.0  # alpha_t = aggregation * decay^t; 1.0 = constant
    ll_step: float = 0.01
    alpha: float = 0.01
    hvp_eps: float = 1e-5
    neumann_scale: float | None = None  # None -> ll_step

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
        if min(self.ll_step, self.alpha, self.hvp_eps) <= 0:
            raise InvalidParameter("steps and hvp_eps must be positive")


class Hypergradient(NamedTuple):
    grad_x: np.ndarray
    y_T: np.ndarray


class SolveFlag(NamedTuple):
    grad_x: np.ndarray
    flag: str  # "" | "cg-breakdown" | "diverging"


def _check(v, what):
    if not np.isfinite(v).all():
        raise NonFiniteEvaluation(f"non-finite {what}")
    return v


def ll_descent(problem: BilevelProblem, x, y0, steps: int, step_size: float,
               record: bool = False):
    """Plain T-step gradient descent on f(x, .); optionally records the path."""
    y = np.array(y0, dtype=float)
    path = [y.copy()] if record else None
    for t in range(steps):
        g = _check(problem.f.gy(x, y), f"LL gradient at step {t}")
        y = y - step_size * g
        if record:
            path.append(y.copy())
    return (y, path) if record else y


def _mixed_vjp(problem, x, y, v, eps):
    """(d2 f / dy dx)^T v: finite difference of grad_x f along the y-direction v."""
    gp = problem.f.gx(x, y + eps * v)
    gm = problem.f.gx(x, y - eps * v)
    return _check((gp - gm) / (2.0 * eps), "mixed second derivative")


def _bda_weight(cfg: BaselineConfig, t: int) -> float:
    return cfg.aggregation * cfg.aggregation_decay**t


def _unrolled_reverse(problem, x, path, cfg, window, bda=False):
    """Reverse pass over the last ``window`` steps of a recorded LL descent.

    The forward map is y_{t+1} = y_t - s * d(x, y_t) with d the LL gradient
    (or the BDA aggregate); its vector-Jacobian products are assembled from
    finite-difference Hessian products.
    """
    s = cfg.ll_step
    y_T = path[-1]
    g_x = np.asarray(problem.F.gx(x, y_T), dtype=float).copy()
    p = np.asarray(problem.F.gy(x, y_T), dtype=float).copy()
    T = len(path) - 1
    for t in range(T - 1, T - 1 - window, -1):
        y_t = path[t]
        if bda:
            agg = _bda_weight(cfg, t)

            def dgrad(yv, x=x, agg=agg):
                return (1.0 - agg) * problem.f.gy(x, yv) + agg * problem.F.gy(x, yv)

            hv = hvp(dgrad, y_t, p, cfg.hvp_eps)
            gfp = (1.0 - agg) * problem.f.gx(x, y_t + cfg.hvp_eps * p) \
                + agg * problem.F.gx(x, y_t + cfg.hvp_eps * p)
            gfm = (1.0 - agg) * problem.f.gx(x, y_t - cfg.hvp_eps * p) \
                + agg * problem.F.gx(x, y_t - cfg.hvp_eps * p)
            mixed = _check((gfp - gfm) / (2.0 * cfg.hvp_eps), "BDA mixed derivative")
        else:
            hv = hvp(lambda yv, x=x: problem.f.gy(x, yv), y_t, p, cfg.hvp_eps)
            mixed = _mixed_vjp(problem, x, y_t, p, cfg.hvp_eps)
        g_x -= s * mixed
        p = p - s * hv
    return g_x


def rhg_hypergradient(problem: BilevelProblem, x, y0, cfg: BaselineConfig) -> Hypergradient:
    """Reverse-mode unrolled hypergradient over the full T-step trajectory."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y_T, path = ll_descent(problem, x, y0, cfg.T, cfg.ll_step, record=True)
    g = _unrolled_reverse(problem, x, path, cfg, window=cfg.T)
    return Hypergradient(g, y_T)


def trhg_hypergradient(problem: BilevelProblem, x, y0, cfg: BaselineConfig) -> Hypergradient:
    """Truncated reverse pass: only the last I steps are differentiated."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y_T, path = ll_descent(problem, x, y0, cfg.T, cfg.ll_step, record=True)
    g = _unrolled_reverse(problem, x, path, cfg, window=cfg.I)
    return Hypergradient(g, y_T)


def bda_hypergradient(problem: BilevelProblem, x, y0, cfg: BaselineConfig) -> Hypergradient:
    """Aggregated descent: forward map mixes LL and UL gradients, reverse as RHG.

    With ``aggregation_decay < 1`` the UL weight fades over the inner steps,
    matching the vanishing-aggregation form of the original algorithm.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.array(y0, dtype=float)
    path = [y.copy()]
    for t in range(cfg.T):
        agg = _bda_weight(cfg, t)
        d = (1.0 - agg) * problem.f.gy(x, y) + agg * problem.F.gy(x, y)
        _check(d, f"BDA aggregate gradient at step {t}")
        y = y - cfg.ll_step * d
        path.append(y.copy())
    g = _unrolled_reverse(problem, x, path, cfg, window=cfg.T, bda=True)
    return Hypergradient(g, path[-1])


def cg_hypergradient(problem: BilevelProblem, x, y_T, cfg: BaselineConfig) -> SolveFlag:
    """Implicit hypergradient with a Q-step conjugate-gradient linear solve.

    Solves (d2f/dydy) v = dF/dy at y_T matrix-free, then assembles
    dF/dx - (d2f/dydx)^T v.  Non-positive curvature stops the solve; the
    partial result is returned with flag "cg-breakdown".
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y_T = np.asarray(y_T, dtype=float)
    b = _check(np.asarray(problem.F.gy(x, y_T), dtype=float), "dF/dy")
    grad_fy = lambda yv: problem.f.gy(x, yv)

    v = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
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
        if rs_new < 1e-32:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    g = problem.F.gx(x, y_T) - _mixed_vjp(problem, x, y_T, v, cfg.hvp_eps)
    return SolveFlag(_check(g, "CG hypergradient"), flag)


def neumann_hypergradient(problem: BilevelProblem, x, y_T, cfg: BaselineConfig) -> SolveFlag:
    """Implicit hypergradient with a Q-term Neumann series for the inverse Hessian.

    v = s * sum_q (I - s H)^q dF/dy via repeated Hessian products.  If the
    term norm grows for 5 consecutive terms the flag "diverging" is set and
    the partial sum is used.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y_T = np.asarray(y_T, dtype=float)
    s = cfg.neumann_scale if cfg.neumann_scale is not None else cfg.ll_step
    grad_fy = lambda yv: problem.f.gy(x, yv)
    u = _check(np.asarray(problem.F.gy(x, y_T), dtype=float), "dF/dy")
    total = u.copy()
    flag = ""
    grow = 0
    prev = float(np.linalg.norm(u))
    for _ in range(cfg.Q - 1):
        u = u - s * hvp(grad_fy, y_T, u, cfg.hvp_eps)
        nrm = float(np.linalg.norm(u))
        grow = grow + 1 if nrm > prev else 0
        prev = nrm
        total += u
        if grow >= 5:
            flag = "diverging"
            break
    v = s * total
    g = problem.F.gx(x, y_T) - _mixed_vjp(problem, x, y_T, v, cfg.hvp_eps)
    return SolveFlag(_check(g, "Neumann hypergradient"), flag)


def hypergradient_step(problem: BilevelProblem, method: str, x, y, cfg: BaselineConfig):
    """One full UL-gradient computation for a named method; returns (grad, y_T, flag)."""
    if method == "rhg":
        g, y_T = rhg_hypergradient(problem, x, y, cfg)
        return g, y_T, ""
    if method == "trhg":
        g, y_T = trhg_hypergradient(problem, x, y, cfg)
        return g, y_T, ""
    if method == "bda":
        g, y_T = bda_hypergradient(problem, x, y, cfg)
        return g, y_T, ""
    if method in ("cg", "neumann"):
        y_T = ll_descent(problem, x, y, cfg.T, cfg.ll_step)
        fn = cg_hypergradient if method == "cg" else neumann_hypergradient
        g, flag = fn(problem, x, y_T, cfg)
        return g, y_T, flag
    raise InvalidParameter(f"unknown baseline method {method!r}")


def parse_method(spec: str, base: BaselineConfig | None = None) -> tuple[str, BaselineConfig]:
    """Parse "rhg", "trhg:I", "bda:agg", "cg:Q", "neumann:Q" into (name, config)."""
    base = base or BaselineConfig()
    name, _, arg = str(spec).strip().lower().partition(":")
    if name == "rhg":
        return "rhg", base
    if name == "trhg":
        I = int(arg) if arg else base.T
        return "trhg", BaselineConfig(**{**base.__dict__, "I": I})
    if name == "bda":
        agg = float(arg) if arg else 0.5
        return "bda", BaselineConfig(**{**base.__dict__, "aggregation": agg})
    if name in ("cg", "neumann"):
        cfgd = dict(base.__dict__)
        if arg:
            cfgd["Q"] = int(arg)
        return name, BaselineConfig(**cfgd)
    raise InvalidParameter(f"unknown baseline method {spec!r}")
