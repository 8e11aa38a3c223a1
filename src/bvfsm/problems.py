"""Benchmark problem registry: closed-form sin examples and synthetic hyper-cleaning.

The sin family has known optima, which makes it the workhorse for convergence
and error measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    BilevelProblem,
    FeasibleSet,
    InvalidParameter,
    Mode,
    ScalarField,
    _read_text,
    _section,
)
from .solver import Reference


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
    x0: np.ndarray | None = None
    y0: np.ndarray | None = None
    suggested_solver: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x_star is not None and self.F_star is not None and self.y_star is not None:
            val = self.problem.F(self.x_star, self.y_star)
            if not abs(val - self.F_star) <= 1e-9:  # a NaN fails too
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


def _sin_params(n: int, a: float, c) -> np.ndarray:
    """``c`` broadcast to n entries; n < 1 or a non-finite a or c_i raises InvalidParameter."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    c = np.broadcast_to(np.asarray(c, dtype=float), (n,)).copy()
    if not (math.isfinite(a) and np.isfinite(c).all()):
        raise InvalidParameter(f"a and c must be finite, got a={a!r}, c={c.tolist()!r}")
    return c


def _sin_fields(n: int, a: float, c: np.ndarray, pessimistic: bool, constrained: bool,
                m: int = 1):
    """UL/LL fields of the sin family; for m > 1 the scalar UL variable is
    embedded as the mean of x (used by the timing harness to scale m).

    The embedding is chosen here, once.  The m = 1 closures read the one
    entry inline, which is exactly its mean: the hot oracles pay for no call
    to pick it.  For m > 1 each closure runs at the one-entry mean of x, and
    an x-gradient is spread evenly over the m entries.
    """
    sgn = -1.0 if pessimistic else 1.0
    two_sgn = sgn * 2.0
    off = a + c if not constrained else np.full(n, a)

    def F_fn(x, y):
        d = y - off
        return (float(x[0]) - a) ** 2 + sgn * float(d.dot(d))

    def F_gx(x, y):
        return np.array([2.0 * (float(x[0]) - a)])

    def F_gy(x, y):
        return two_sgn * (y - off)

    def f_fn(x, y):
        return float(np.add.reduce(np.sin(float(x[0]) + y - c)))

    def f_gx(x, y):
        return np.array([float(np.add.reduce(np.cos(float(x[0]) + y - c)))])

    def f_gy(x, y):
        return np.cos(float(x[0]) + y - c)

    def at_mean(fn):
        return lambda x, y: fn(np.mean(x, keepdims=True), y)

    def spread(gx):
        return lambda x, y: np.full(m, gx(np.mean(x, keepdims=True), y)[0] / m)

    def make(fn, gx, gy, name):
        if m > 1:
            fn, gx, gy = at_mean(fn), spread(gx), at_mean(gy)
        return ScalarField(m=m, n=n, fn=fn, grad_x=gx, grad_y=gy, name=name)

    return make(F_fn, F_gx, F_gy, "sin-ul"), make(f_fn, f_gx, f_gy, "sin-ll")


# |f''| <= 1 for f = sum_i sin(x + y_i - c_i), so the regularized LL
# f + mu/2 |y|^2 has curvature at most L = 1 + mu <= 2 while mu <= 1: every
# profile whose LL is this field starts its z-solve at the gradient step
# 1/L = 1/2, not 0.01.
SIN_SOLVER_PROFILE = {
    "step_z": 0.5,
    "aux_f": {"name": "inverse", "modified": True},
    "schedule": {"sigma2": 2.0, "sigma2_pow": 0.6},
}

SIN_PESS_SOLVER_PROFILE = {
    "step_z": 0.5,
    "aux_f": {"name": "inverse", "modified": True},
    "schedule": {"sigma2": 1.3, "sigma2_pow": 0.5},
    "K": 2000,
}

# The constrained z-solve keeps step_z = 0.01: its aux_B barrier on the LL
# constraint has unbounded curvature near the wall, so the sin field's L
# does not bound it.
SIN_CON_SOLVER_PROFILE = {
    "aux_f": "quadratic",
    "aux_h": {"name": "inverse", "modified": True},
    "aux_B": "inverse",
    "schedule": {"sigma2": 0.02, "sigma2_pow": 0.5},
    "K": 2000,
}

HYPERCLEAN_SOLVER_PROFILE = {
    "aux_f": "quadratic",
    "K": 400,
}


def make_sin_problem(n: int, a: float = 2.0, c: float = 2.0, m: int = 1) -> BenchmarkProblem:
    """Optimistic sin benchmark: F = (x-a)^2 + |y-a-c|^2, f = sum_i sin(x+y_i-c_i).

    ``m > 1`` replaces the scalar UL variable by the mean of an m-vector
    (equivalent problem, used to scale UL dimension in timing runs); the
    reference then reports the uniform representative x* . ones.
    """
    c = _sin_params(n, a, c)
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    F, f = _sin_fields(n, a, c, pessimistic=False, constrained=False, m=m)
    sol = sin_solution(n, a, c)
    return BenchmarkProblem(
        problem=BilevelProblem(m=m, n=n, F=F, f=f, name=f"sin:n={n}"),
        name="sin",
        params={"n": n, "a": a, "c": c.tolist(), "m": m},
        x_star=np.full(m, sol.x_star[0]),
        y_star=sol.y_star,
        F_star=sol.F_star,
        x0=np.full(m, 8.0),
        y0=np.full(n, 8.0),
        suggested_solver=SIN_SOLVER_PROFILE,
    )


def make_pessimistic_sin_problem(n: int, a: float = 2.0, c: float = 2.0) -> BenchmarkProblem:
    """Pessimistic variant: F = (x-a)^2 - |y-a-c|^2, same LL, same (x*, y*)."""
    c = _sin_params(n, a, c)
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
        x0=np.array([8.0]),
        y0=np.full(n, 8.0),
        suggested_solver=SIN_PESS_SOLVER_PROFILE,
    )


def make_constrained_sin_problem(n: int, a: float = 2.0, c: float = 1.0) -> BenchmarkProblem:
    """Constrained sin benchmark: x + y_i in [0, 1] via (x + y_i - 0.5)^2 - 0.25 <= 0.

    F = (x-a)^2 + |y-a|^2; solution x* = (1-n) a / (1+n), y*_i = -x*,
    F* = 4 n a^2 / (1+n).  Requires c_i in [0, 1].
    """
    c = _sin_params(n, a, c)
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
    With ``explicit_box`` the weights are x_i directly, kept in [0, 1] by the
    projection onto the UL box instead of the sigmoid.
    """
    if not (0.0 <= corruption_rate < 1.0):
        raise InvalidParameter("corruption_rate must lie in [0, 1)")
    if not 1 <= dim <= 20:
        raise InvalidParameter("dim must be >= 1 and stay desk-scale (<= 20)")
    if not isinstance(explicit_box, bool):
        raise InvalidParameter(f"explicit_box must be a bool, got {explicit_box!r}")

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

    ul_set = FeasibleSet.box(np.zeros(m), np.ones(m)) if explicit_box else FeasibleSet()
    prob = BilevelProblem(m=m, n=n, F=F, f=f, ul_set=ul_set, name="hyperclean")
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
        x0=np.full(m, 0.5) if explicit_box else np.zeros(m),
        y0=np.zeros(n),
        suggested_solver=HYPERCLEAN_SOLVER_PROFILE,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _parse_params(argstr: str) -> dict:
    """The ``key=value`` pairs of a spec, each value as _read_text reads it."""
    pairs = (item.partition("=") for item in argstr.split(",") if item)
    return {key.strip(): _read_text(val) for key, _, val in pairs}


PROBLEM_FAMILIES = {
    "sin": make_sin_problem,
    "sin-constrained": make_constrained_sin_problem,
    "sin-pessimistic": make_pessimistic_sin_problem,
    "hyperclean": make_hyperclean_problem,
}


def make_problem(name: str, params: dict, seed: int | None = None) -> BenchmarkProblem:
    """The problem of family ``name`` (case-blind) built from keyword ``params``.

    hyperclean, the one family that draws data, draws it from ``seed`` unless
    ``params`` names its own.  A value takes the kind of the parameter it
    fills (core._number); an unknown family or parameter, a value of another
    kind or one the constructor rejects raises InvalidParameter.
    """
    name = name.strip().lower()
    if name not in PROBLEM_FAMILIES:
        raise InvalidParameter(
            f"unknown problem {name!r}; known: {sorted(PROBLEM_FAMILIES)}"
        )
    if name == "hyperclean" and seed is not None:
        params = {"seed": seed, **params}
    family = PROBLEM_FAMILIES[name]
    try:
        return family(**_section(name, params, family))
    except (TypeError, ValueError) as exc:  # InvalidParameter is a ValueError
        raise InvalidParameter(f"problem {name} with {params}: {exc}") from exc


def parse_problem(spec: str, seed: int | None = None) -> BenchmarkProblem:
    """The problem of a spec: "sin:n=2,a=2", "sin-constrained:n=2,c=1", "hyperclean:seed=0"."""
    name, _, argstr = str(spec).strip().partition(":")
    return make_problem(name, _parse_params(argstr), seed)


def list_problems() -> list[str]:
    return sorted(PROBLEM_FAMILIES)
