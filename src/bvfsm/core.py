"""Problem definitions, gradient oracles, finite-difference utilities and projections.

Everything downstream (solvers, baselines, benchmark problems) is built on the
types in this module.  Objectives and constraints are plain closures wrapped in
:class:`ScalarField`; feasible sets know how to project; finite differences
serve as validation oracles, never as the default gradient source inside
solver loops.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class NonFiniteEvaluation(RuntimeError):
    """An oracle returned NaN/Inf where a finite value was required."""


class DimensionMismatch(ValueError):
    """A vector with the wrong dimension was passed to a set or field."""


class InvalidParameter(ValueError):
    """A configuration parameter violates its documented domain."""


def all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the float 1-D array ``v`` is finite; exact.

    A sum of finite squares is finite or +inf, never NaN, and any inf or NaN
    entry makes it non-finite.  So a finite ``v . v`` proves the answer, and
    only a non-finite one (an entry that is not finite, or squares that
    overflow) pays for the elementwise test.  On short vectors the dot costs
    a fraction of ``np.isfinite(v).all()``.  ``np.vdot`` computes the same
    sum as ``v.dot(v)`` but, unlike it, raises no overflow warning.
    """
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a float64 1-D array, checking finiteness and (optionally) length."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    if not all_finite(v):
        raise NonFiniteEvaluation(f"non-finite entries in vector: {v}")
    return v


@dataclass(frozen=True)
class ScalarField:
    """A real-valued function of (x, y) with analytic partial gradients.

    ``fn(x, y) -> float``, ``grad_x(x, y) -> (m,) array``,
    ``grad_y(x, y) -> (n,) array``.  Fields are immutable and safe to share
    across concurrent solves.
    """

    m: int
    n: int
    fn: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self.fn(x, y))

    def gx(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_x(x, y), dtype=float)

    def gy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_y(x, y), dtype=float)


class SetKind(enum.Enum):
    WHOLE_SPACE = "whole-space"
    BOX = "box"


@dataclass(frozen=True)
class FeasibleSet:
    """WholeSpace or Box(lower, upper) with Euclidean projection."""

    kind: SetKind = SetKind.WHOLE_SPACE
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    @staticmethod
    def whole_space() -> "FeasibleSet":
        return FeasibleSet(SetKind.WHOLE_SPACE)

    @staticmethod
    def box(lower, upper) -> "FeasibleSet":
        lo = as_vector(lower)
        hi = as_vector(upper, dim=lo.shape[0])
        if np.any(lo > hi):
            raise InvalidParameter("box lower bound exceeds upper bound")
        return FeasibleSet(SetKind.BOX, lower=lo, upper=hi)

    @property
    def dim(self) -> int | None:
        if self.kind is SetKind.BOX:
            return self.lower.shape[0]
        return None


def project(fset: FeasibleSet, x) -> np.ndarray:
    """Euclidean projection onto the set.

    WholeSpace is the identity and Box clamps componentwise.  Projection is
    idempotent and non-expansive.
    """
    x = as_vector(x, dim=fset.dim)
    if fset.kind is SetKind.BOX:
        return np.clip(x, fset.lower, fset.upper)
    return x


class Mode(enum.Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


@dataclass(frozen=True)
class BilevelProblem:
    """A bi-level problem: UL objective F, LL objective f, optional constraints.

    ``ul_constraints`` holds the UL inequality constraints H_j(x, y) <= 0 and
    ``ll_constraints`` the LL inequality constraints h_j(x, y) <= 0; both lists
    may be empty.  ``ul_set`` constrains x only.  Immutable after construction.
    """

    m: int
    n: int
    F: ScalarField
    f: ScalarField
    ul_constraints: tuple[ScalarField, ...] = ()
    ll_constraints: tuple[ScalarField, ...] = ()
    ul_set: FeasibleSet = field(default_factory=FeasibleSet.whole_space)
    mode: Mode = Mode.OPTIMISTIC
    name: str = ""

    def __post_init__(self):
        for fld in (self.F, self.f, *self.ul_constraints, *self.ll_constraints):
            if (fld.m, fld.n) != (self.m, self.n):
                raise DimensionMismatch(
                    f"field {fld.name!r} has dims ({fld.m},{fld.n}), problem has ({self.m},{self.n})"
                )
        if self.ul_set.dim is not None and self.ul_set.dim != self.m:
            raise DimensionMismatch("ul_set dimension does not match m")

    @property
    def constrained(self) -> bool:
        return bool(self.ul_constraints or self.ll_constraints)


def fd_gradient(fn: Callable[[np.ndarray], float], x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    Entry i is (fn(x + eps*e_i) - fn(x - eps*e_i)) / (2*eps).  Validation and
    fallback oracle only; solvers use analytic gradients.
    """
    if not eps > 0:
        raise InvalidParameter("eps must be positive")
    x = as_vector(x)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = eps
        fp = float(fn(x + e))
        fm = float(fn(x - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteEvaluation(f"fn non-finite near x[{i}] during fd_gradient")
        g[i] = (fp - fm) / (2.0 * eps)
    return g


def hvp(grad_fn: Callable[[np.ndarray], np.ndarray], x, v, eps: float = 1e-5) -> np.ndarray:
    """Hessian-vector product by symmetric difference of gradients.

    Returns (grad_fn(x + eps*v) - grad_fn(x - eps*v)) / (2*eps).
    """
    if not eps > 0:
        raise InvalidParameter("eps must be positive")
    x = as_vector(x)
    v = as_vector(v, dim=x.shape[0])
    gp = np.asarray(grad_fn(x + eps * v), dtype=float)
    gm = np.asarray(grad_fn(x - eps * v), dtype=float)
    if not (all_finite(gp) and all_finite(gm)):
        raise NonFiniteEvaluation("gradient non-finite during hvp")
    return (gp - gm) / (2.0 * eps)


def plain_descent(grad_y: Callable[[np.ndarray, np.ndarray], np.ndarray], x, y: np.ndarray,
                  steps: int, step_size: float, mu: float | None = None,
                  where: str = "") -> np.ndarray:
    """``steps`` fixed gradient steps ``y <- y - step_size * g`` on ``y``, in place.

    ``g`` is ``grad_y(x, y)``, plus ``mu * y`` when ``mu`` is given (the
    gradient of a ``mu/2 |y|^2`` regularizer); without ``mu`` no term is
    added, so signed zeros keep their bits.  ``y`` must be a float array the
    caller owns: it is updated in place and returned.  Only ``y`` is written,
    never ``g``, so an array that ``grad_y`` returns (its input, or one it
    caches) is left as it was.  Each step computes the same bits as
    ``y = y - step_size * g``.  A non-finite gradient raises
    NonFiniteEvaluation at its step, before ``y`` moves, naming the step and
    ``where``.
    """
    for t in range(steps):
        g = np.asarray(grad_y(x, y), dtype=float)
        if mu is not None:
            g = g + mu * y
        if not all_finite(g):
            raise NonFiniteEvaluation(f"non-finite LL gradient at step {t}{where}")
        y -= step_size * g
    return y


@dataclass
class GradientCheckReport:
    """Result of comparing analytic gradients against central differences."""

    probes: int
    tol: float
    max_rel_err_x: float
    max_rel_err_y: float
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gradient check [{status}] probes={self.probes} tol={self.tol:g} "
            f"max_rel_err_x={self.max_rel_err_x:.3e} max_rel_err_y={self.max_rel_err_y:.3e}"
        )


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


def validate_gradients(
    fld: ScalarField,
    probes: int = 10,
    tol: float = 1e-5,
    eps: float = 1e-5,
    seed: int = 0,
    scale: float = 1.0,
) -> GradientCheckReport:
    """Compare grad_x/grad_y against fd_gradient at random probe points.

    The report carries the max relative error per block; it passes iff both
    stay within ``tol``.  Failures are reported, not raised.
    """
    if probes < 1:
        raise InvalidParameter("probes must be >= 1")
    rng = np.random.default_rng(seed)
    worst_x = 0.0
    worst_y = 0.0
    for _ in range(probes):
        x = scale * rng.standard_normal(fld.m)
        y = scale * rng.standard_normal(fld.n)
        gx_num = fd_gradient(lambda xv: fld(xv, y), x, eps)
        gy_num = fd_gradient(lambda yv: fld(x, yv), y, eps)
        worst_x = max(worst_x, _rel_err(fld.gx(x, y), gx_num))
        worst_y = max(worst_y, _rel_err(fld.gy(x, y), gy_num))
    return GradientCheckReport(
        probes=probes,
        tol=tol,
        max_rel_err_x=worst_x,
        max_rel_err_y=worst_y,
        passed=(worst_x <= tol and worst_y <= tol),
    )


def quadratic_field(m: int, n: int, A: np.ndarray, name: str = "") -> ScalarField:
    """f(x, y) = 0.5 * ||y - A x||^2 with analytic gradients; test utility."""
    A = np.asarray(A, dtype=float)
    if A.shape != (n, m):
        raise DimensionMismatch(f"A must be ({n},{m}), got {A.shape}")

    def fn(x, y):
        r = y - A @ x
        return 0.5 * float(r @ r)

    return ScalarField(
        m=m,
        n=n,
        fn=fn,
        grad_x=lambda x, y: -A.T @ (y - A @ x),
        grad_y=lambda x, y: y - A @ x,
        name=name or "quadratic-tracking",
    )
