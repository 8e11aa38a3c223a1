"""Benchmark problem registry: closed-form sin examples, synthetic hyper-cleaning,
and brute-force grid oracles for the true value function.

The sin family has known optima, which makes it the workhorse for convergence
and error measurements; the grid oracles provide an independent route to the
value function for n <= 2 so solver output can be checked without trusting the
solver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .auxfun import AuxiliaryFunction, DynamicShift, ScheduleState, schedule_step
from .core import (
    BilevelProblem,
    InvalidParameter,
    Mode,
    ScalarField,
)
from .solver import Reference


class EmptyFeasibleSet(RuntimeError):
    """The grid oracle found no feasible LL point."""


@dataclass(frozen=True)
class BenchmarkProblem:
    """A bilevel problem with an optional closed-form reference solution.

    ``suggested_solver`` is the benchmark's tuned solver profile (auxiliary
    functions, shift schedule) used as the default by the experiment harness.
    """

    problem: BilevelProblem
    name: str
    params: dict = field(default_factory=dict)
    x_star: np.ndarray | None = None
    y_star: np.ndarray | None = None
    F_star: float | None = None
    dynamic_offset: float = 0.0  # margin for DynamicShift: shift = f(x,y) + offset
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None
    suggested_solver: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x_star is not None and self.F_star is not None and self.y_star is not None:
            val = self.problem.F(self.x_star, self.y_star)
            if abs(val - self.F_star) > 1e-9:
                raise InvalidParameter(
                    f"reference inconsistent: F(x*, y*)={val!r} vs F*={self.F_star!r}"
                )

    @property
    def reference(self) -> Reference | None:
        if self.x_star is None:
            return None
        return Reference(self.x_star, self.y_star, self.F_star)


class SinSolution(NamedTuple):
    x_star: np.ndarray
    y_star: np.ndarray
    F_star: float
    C: float
    k_star: int
    tie: bool


def sin_solution(n: int, a: float, c) -> SinSolution:
    """Closed-form optimum of the sin benchmark.

    C is the point of the lattice {-pi/2 + 2k*pi} nearest to 2a (an exact tie
    is broken toward the smaller k and flagged), then
    x* = ((1-n) a + n C) / (1+n), y*_i = C + c_i - x*, F* = n (C-2a)^2 / (1+n).
    """
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,))
    t = (2.0 * a + math.pi / 2.0) / (2.0 * math.pi)
    k_lo = math.floor(t)
    frac = t - k_lo
    tie = frac == 0.5
    if frac < 0.5 or tie:
        k_star = k_lo
    else:
        k_star = k_lo + 1
    C = -math.pi / 2.0 + 2.0 * math.pi * k_star
    x_star = ((1.0 - n) * a + n * C) / (1.0 + n)
    y_star = C + c - x_star
    F_star = n * (C - 2.0 * a) ** 2 / (1.0 + n)
    return SinSolution(np.array([x_star]), y_star, float(F_star), C, k_star, tie)


def _sin_fields(n: int, a: float, c: np.ndarray, pessimistic: bool, constrained: bool,
                m: int = 1):
    """UL/LL fields of the sin family; for m > 1 the scalar UL variable is
    embedded as the mean of x (used by the timing harness to scale m).

    The embedding is chosen here, once: with m = 1 it reads the one entry,
    which is exactly its mean, without the per-call cost of np.mean.
    """
    sgn = -1.0 if pessimistic else 1.0
    off = a + c if not constrained else np.full(n, a)

    if m == 1:
        def xbar(x):
            return float(x[0])
    else:
        def xbar(x):
            return float(np.mean(x))

    def F_fn(x, y):
        d = y - off
        return (xbar(x) - a) ** 2 + sgn * float(d.dot(d))

    F = ScalarField(
        m=m, n=n,
        fn=F_fn,
        grad_x=lambda x, y: np.full(m, 2.0 * (xbar(x) - a) / m),
        grad_y=lambda x, y: sgn * 2.0 * (y - off),
        name="sin-ul",
    )
    f = ScalarField(
        m=m, n=n,
        fn=lambda x, y: float(np.add.reduce(np.sin(xbar(x) + y - c))),
        grad_x=lambda x, y: np.full(m, float(np.add.reduce(np.cos(xbar(x) + y - c))) / m),
        grad_y=lambda x, y: np.cos(xbar(x) + y - c),
        name="sin-ll",
    )
    return F, f


SIN_SOLVER_PROFILE = {
    "aux_f": {"name": "inverse", "modified": True},
    "schedule": {"sigma2": {"rule": "static", "value": 2.0, "decay_pow": 0.6}},
}

SIN_PESS_SOLVER_PROFILE = {
    "aux_f": {"name": "inverse", "modified": True},
    "schedule": {"sigma2": {"rule": "static", "value": 1.3, "decay_pow": 0.5}},
    "K": 2000,
}

SIN_CON_SOLVER_PROFILE = {
    "aux_f": "quadratic",
    "aux_h": {"name": "inverse", "modified": True},
    "aux_B": "inverse",
    "schedule": {
        "sigma2": {"rule": "static", "value": 2.0, "decay_pow": 0.6},
        "sigma2_h": {"value": 0.02, "decay_pow": 0.5},
    },
    "K": 2000,
}

HYPERCLEAN_SOLVER_PROFILE = {
    "aux_f": "quadratic",
    "K": 400,
}


def make_sin_problem(n: int, a: float = 2.0, c=2.0, m: int = 1) -> BenchmarkProblem:
    """Optimistic sin benchmark: F = (x-a)^2 + |y-a-c|^2, f = sum_i sin(x+y_i-c_i).

    ``m > 1`` replaces the scalar UL variable by the mean of an m-vector
    (equivalent problem, used to scale UL dimension in timing runs); the
    reference then reports the uniform representative x* . ones.
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,)).copy()
    F, f = _sin_fields(n, a, c, pessimistic=False, constrained=False, m=m)
    sol = sin_solution(n, a, c)
    return BenchmarkProblem(
        problem=BilevelProblem(m=m, n=n, F=F, f=f, name=f"sin:n={n}"),
        name="sin",
        params={"n": n, "a": a, "c": c.tolist(), "m": m},
        x_star=np.full(m, sol.x_star[0]),
        y_star=sol.y_star,
        F_star=sol.F_star,
        dynamic_offset=float(n),
        x0=np.full(m, 8.0),
        y0=np.full(n, 8.0),
        suggested_solver=SIN_SOLVER_PROFILE,
    )


def make_pessimistic_sin_problem(n: int, a: float = 2.0, c=2.0) -> BenchmarkProblem:
    """Pessimistic variant: F = (x-a)^2 - |y-a-c|^2, same LL, same (x*, y*)."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,)).copy()
    F, f = _sin_fields(n, a, c, pessimistic=True, constrained=False)
    sol = sin_solution(n, a, c)
    F_star = float(F(sol.x_star, sol.y_star))
    return BenchmarkProblem(
        problem=BilevelProblem(m=1, n=n, F=F, f=f, mode=Mode.PESSIMISTIC, name=f"sin-pess:n={n}"),
        name="sin-pessimistic",
        params={"n": n, "a": a, "c": c.tolist()},
        x_star=sol.x_star,
        y_star=sol.y_star,
        F_star=F_star,
        dynamic_offset=float(n),
        x0=np.array([8.0]),
        y0=np.full(n, 8.0),
        suggested_solver=SIN_PESS_SOLVER_PROFILE,
    )


def make_constrained_sin_problem(n: int, a: float = 2.0, c=1.0) -> BenchmarkProblem:
    """Constrained sin benchmark: x + y_i in [0, 1] via (x + y_i - 0.5)^2 - 0.25 <= 0.

    F = (x-a)^2 + |y-a|^2; solution x* = (1-n) a / (1+n), y*_i = -x*,
    F* = 4 n a^2 / (1+n).  Requires c_i in [0, 1].
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,)).copy()
    if np.any(c < 0.0) or np.any(c > 1.0):
        raise InvalidParameter("constrained sin problem requires c_i in [0, 1]")
    F, f = _sin_fields(n, a, c, pessimistic=False, constrained=True)

    def make_h(i):
        def h_fn(x, y):
            return (x[0] + y[i] - 0.5) ** 2 - 0.25

        def h_gx(x, y):
            return np.array([2.0 * (x[0] + y[i] - 0.5)])

        def h_gy(x, y):
            g = np.zeros(n)
            g[i] = 2.0 * (x[0] + y[i] - 0.5)
            return g

        return ScalarField(m=1, n=n, fn=h_fn, grad_x=h_gx, grad_y=h_gy, name=f"band[{i}]")

    hs = tuple(make_h(i) for i in range(n))
    x_star = np.array([(1.0 - n) * a / (1.0 + n)])
    y_star = np.full(n, -x_star[0])
    F_star = 4.0 * n * a**2 / (1.0 + n)
    return BenchmarkProblem(
        problem=BilevelProblem(m=1, n=n, F=F, f=f, ll_constraints=hs, name=f"sin-con:n={n}"),
        name="sin-constrained",
        params={"n": n, "a": a, "c": c.tolist()},
        x_star=x_star,
        y_star=y_star,
        F_star=float(F_star),
        dynamic_offset=float(n),
        x0=np.array([0.0]),
        y0=np.full(n, 0.5),
        suggested_solver=SIN_CON_SOLVER_PROFILE,
    )


# ---------------------------------------------------------------------------
# synthetic hyper-cleaning
# ---------------------------------------------------------------------------


def _logistic_loss_terms(points, labels):
    """Per-sample logistic loss and gradient helpers for a linear classifier.

    Parameters y = [w (dim), b]; logit_i = w . u_i + b; labels in {-1, +1}.
    """
    U = np.asarray(points, dtype=float)
    V = np.asarray(labels, dtype=float)
    N, d = U.shape

    def margins(y):
        return V * (U @ y[:d] + y[d])

    def losses(y):
        return np.logaddexp(0.0, -margins(y))

    def dloss_dy(y):
        # rows: -v_i * sigmoid(-m_i) * [u_i, 1]
        s = -V / (1.0 + np.exp(margins(y)))
        G = np.empty((N, d + 1))
        G[:, :d] = s[:, None] * U
        G[:, d] = s
        return G

    return losses, dloss_dy


def make_hyperclean_problem(
    seed: int = 0,
    n_train: int = 100,
    n_val: int = 100,
    dim: int = 2,
    corruption_rate: float = 0.5,
    explicit_box: bool = False,
) -> BenchmarkProblem:
    """Synthetic data hyper-cleaning: learn per-sample weights that silence
    corrupted training labels.

    Two Gaussian blobs, labels in {-1, +1}; ``corruption_rate`` of the training
    labels are flipped (mask recorded in params).  LL learns a linear
    classifier under weights sigmoid(x_i); UL is the clean validation loss.
    With ``explicit_box`` the weights are x_i directly, constrained to [0, 1]
    through (x_i - 0.5)^2 - 0.25 <= 0 UL constraints instead of the sigmoid.
    """
    if not (0.0 <= corruption_rate < 1.0):
        raise InvalidParameter("corruption_rate must lie in [0, 1)")
    if dim > 20:
        raise InvalidParameter("dim must stay desk-scale (<= 20)")

    for attempt in range(10):
        rng = np.random.default_rng(seed + attempt)
        mean = np.zeros(dim)
        mean[0] = 1.5
        lab_tr = rng.integers(0, 2, size=n_train) * 2 - 1
        lab_va = rng.integers(0, 2, size=n_val) * 2 - 1
        if len(set(lab_tr.tolist())) > 1 and len(set(lab_va.tolist())) > 1:
            break
    else:
        raise InvalidParameter("could not sample two-class data in 10 attempts")
    U_tr = rng.standard_normal((n_train, dim)) + np.outer(lab_tr, mean)
    U_va = rng.standard_normal((n_val, dim)) + np.outer(lab_va, mean)

    n_corrupt = int(round(corruption_rate * n_train))
    corrupt_idx = rng.choice(n_train, size=n_corrupt, replace=False)
    mask = np.zeros(n_train, dtype=bool)
    mask[corrupt_idx] = True
    lab_tr_noisy = lab_tr.copy()
    lab_tr_noisy[mask] *= -1

    tr_losses, tr_grads = _logistic_loss_terms(U_tr, lab_tr_noisy)
    va_losses, va_grads = _logistic_loss_terms(U_va, lab_va)
    m, n = n_train, dim + 1

    def weights(x):
        if explicit_box:
            return x
        return 1.0 / (1.0 + np.exp(-x))

    def dweights(x):
        if explicit_box:
            return np.ones_like(x)
        s = 1.0 / (1.0 + np.exp(-x))
        return s * (1.0 - s)

    f = ScalarField(
        m=m, n=n,
        fn=lambda x, y: float(weights(x) @ tr_losses(y)),
        grad_x=lambda x, y: dweights(x) * tr_losses(y),
        grad_y=lambda x, y: weights(x) @ tr_grads(y),
        name="weighted-train-loss",
    )
    F = ScalarField(
        m=m, n=n,
        fn=lambda x, y: float(np.sum(va_losses(y))),
        grad_x=lambda x, y: np.zeros(m),
        grad_y=lambda x, y: np.sum(va_grads(y), axis=0),
        name="validation-loss",
    )

    uls: tuple[ScalarField, ...] = ()
    if explicit_box:
        def make_box(i):
            def fn(x, y):
                return (x[i] - 0.5) ** 2 - 0.25

            def gx(x, y):
                g = np.zeros(m)
                g[i] = 2.0 * (x[i] - 0.5)
                return g

            return ScalarField(m=m, n=n, fn=fn, grad_x=gx,
                               grad_y=lambda x, y: np.zeros(n), name=f"weight-box[{i}]")

        uls = tuple(make_box(i) for i in range(m))

    prob = BilevelProblem(m=m, n=n, F=F, f=f, ul_constraints=uls,
                          name="hyperclean")
    return BenchmarkProblem(
        problem=prob,
        name="hyperclean",
        params={
            "seed": seed,
            "n_train": n_train,
            "n_val": n_val,
            "dim": dim,
            "corruption_rate": corruption_rate,
            "explicit_box": explicit_box,
            "corrupt_mask": mask.tolist(),
        },
        dynamic_offset=0.0,  # logistic losses are nonnegative
        x0=np.full(m, 0.5) if explicit_box else np.zeros(m),
        y0=np.zeros(n),
        suggested_solver=HYPERCLEAN_SOLVER_PROFILE,
    )


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------


def _iter_grid(problem: BilevelProblem, x, y_grid):
    """Yield (y, f(x,y), feasible) over the grid; n <= 2 only."""
    if problem.n > 2:
        raise InvalidParameter("grid oracle supports n <= 2 only")
    lo, hi, points = y_grid
    for point in itertools.product(np.linspace(lo, hi, points), repeat=problem.n):
        y = np.array(point)
        feas = all(h(x, y) <= 0.0 for h in problem.ll_constraints)
        yield y, problem.f(x, y), feas


def brute_force_phi(
    problem: BilevelProblem,
    x,
    y_grid=(-20.0, 20.0, 2001),
    ll_tol: float = 1e-3,
) -> float:
    """Grid oracle for the true UL value function.

    The LL solution set is taken as grid points (feasible for the LL
    constraints) whose f-value lies within ``ll_tol * max(1, |f_min|)`` of the
    grid minimum; returns min (optimistic) or max (pessimistic) of F there.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    entries = [(y, fv) for y, fv, feas in _iter_grid(problem, x, y_grid) if feas]
    if not entries:
        raise EmptyFeasibleSet(f"no grid point satisfies the LL constraints at x={x}")
    f_min = min(fv for _, fv in entries)
    tol = ll_tol * max(1.0, abs(f_min))
    values = [problem.F(x, y) for y, fv in entries if fv <= f_min + tol]
    return max(values) if problem.mode is Mode.PESSIMISTIC else min(values)


def brute_force_phi_k(
    problem: BilevelProblem,
    x,
    sched: ScheduleState,
    aux_f: AuxiliaryFunction,
    y_grid=(-20.0, 20.0, 2001),
) -> float:
    """Dense-grid evaluation of the penalized value function at stage k.

    f*_mu is the grid minimum of f + mu/2 |y|^2; the returned value is the
    grid min (or max, pessimistic) of F +- P(f - f*_mu) +- theta/2 |y|^2.
    A modified aux_f takes the static sigma2 value as its shift, unpadded; a
    dynamic rule is rejected.  Unconstrained problems only.
    """
    if problem.constrained:
        raise InvalidParameter("dense penalized oracle supports unconstrained problems only")
    if aux_f.modified and isinstance(sched.sigma2, DynamicShift):
        raise InvalidParameter("dense penalized oracle supports static shifts only")
    shift = sched.sigma2.value if aux_f.modified else 0.0
    rho, s1 = aux_f.kind.rho, sched.sigma1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pts = [(y, fv) for y, fv, _ in _iter_grid(problem, x, y_grid)]
    f_star = min(fv + 0.5 * sched.mu * float(y @ y) for y, fv in pts)
    sgn = -1.0 if problem.mode is Mode.PESSIMISTIC else 1.0
    best = math.inf
    for y, fv in pts:
        p = rho(fv - f_star - shift, s1)
        if p == math.inf:
            continue
        v = sgn * problem.F(x, y) + p + 0.5 * sched.theta * float(y @ y)
        if v < best:
            best = v
    return sgn * best


def value_function_gap(
    bench: BenchmarkProblem,
    xs: Sequence[float],
    k_list: Sequence[int],
    sched0: ScheduleState,
    aux_f: AuxiliaryFunction,
    y_grid=(-20.0, 20.0, 2001),
) -> dict[int, float]:
    """max over xs of |phi_k - phi| for each requested stage k (m = 1 only).

    phi comes from :func:`brute_force_phi`, phi_k from the dense penalized
    oracle; both use exhaustive grid minimization, independent of the solver.
    """
    if bench.problem.m != 1:
        raise InvalidParameter("value_function_gap expects a scalar UL variable")
    phi = {float(xv): brute_force_phi(bench.problem, [xv], y_grid) for xv in xs}
    gaps: dict[int, float] = {}
    sched = sched0
    k_sorted = sorted(k_list)
    k_cur = 0
    for k_target in k_sorted:
        while k_cur < k_target:
            sched = schedule_step(sched)
            k_cur += 1
        worst = 0.0
        for xv in xs:
            pk = brute_force_phi_k(bench.problem, [xv], sched, aux_f, y_grid)
            worst = max(worst, abs(pk - phi[float(xv)]))
        gaps[k_target] = worst
    return gaps


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _parse_params(argstr: str) -> dict:
    out: dict = {}
    if not argstr:
        return out
    for item in argstr.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


PROBLEM_FAMILIES = {
    "sin": make_sin_problem,
    "sin-constrained": make_constrained_sin_problem,
    "sin-pessimistic": make_pessimistic_sin_problem,
    "hyperclean": make_hyperclean_problem,
}


def parse_problem(spec: str) -> BenchmarkProblem:
    """Registry lookup: "sin:n=2,a=2", "sin-constrained:n=2,a=2,c=1", "hyperclean:seed=0".

    An unknown family, an unknown parameter or a value the constructor
    rejects raises InvalidParameter naming the spec.
    """
    name, _, argstr = str(spec).strip().partition(":")
    name = name.strip().lower()
    if name not in PROBLEM_FAMILIES:
        raise InvalidParameter(
            f"unknown problem {name!r}; known: {sorted(PROBLEM_FAMILIES)}"
        )
    try:
        return PROBLEM_FAMILIES[name](**_parse_params(argstr))
    except (TypeError, ValueError) as exc:  # InvalidParameter is a ValueError
        raise InvalidParameter(f"problem {spec!r}: {exc}") from exc


def list_problems() -> list[str]:
    return sorted(PROBLEM_FAMILIES)
