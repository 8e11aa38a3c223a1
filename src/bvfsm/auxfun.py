"""Penalty and barrier auxiliary functions and their parameter schedules.

A catalog of smooth penalty/barrier members (quadratic penalty, polynomial
penalty, inverse barrier, truncated-log barrier), an optional modified-barrier
wrapper that shifts the wall, and the geometric decay schedule that drives
sequential minimization.  Each member carries its own ``rho(w, s)`` and
``drho(w, s)``, the one way to evaluate it, so a caller binds them once and
subtracts any modified-barrier shift from ``w`` itself.  Values are extended
reals: the barrier wall is returned as ``math.inf`` and flows through
comparisons without NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .core import InvalidParameter, _inline


class BarrierWall(RuntimeError):
    """A value or derivative was requested at or beyond a barrier wall."""


# ---------------------------------------------------------------------------
# catalog members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticPenalty:
    """rho(w; s) = (w+)^2 / (2 s), zero for w <= 0."""

    def rho(self, w: float, s: float) -> float:
        return 0.0 if w <= 0.0 else w * w / (2.0 * s)

    def drho(self, w: float, s: float) -> float:
        return 0.0 if w <= 0.0 else w / s


@dataclass(frozen=True)
class PolynomialPenalty:
    """rho(w; s) = (w+)^q / (q s); q >= 2 keeps it differentiable."""

    q: int = 3

    def __post_init__(self):
        if self.q < 2:
            raise InvalidParameter("polynomial penalty needs q >= 2")

    def rho(self, w: float, s: float) -> float:
        return 0.0 if w <= 0.0 else w**self.q / (self.q * s)

    def drho(self, w: float, s: float) -> float:
        return 0.0 if w <= 0.0 else w ** (self.q - 1) / s


@dataclass(frozen=True)
class InverseBarrier:
    """rho(w; s) = -s / w for w < 0, infinite at the wall w >= 0."""

    def rho(self, w: float, s: float) -> float:
        return math.inf if w >= 0.0 else -s / w

    def drho(self, w: float, s: float) -> float:
        if w >= 0.0:
            raise BarrierWall(f"inverse barrier derivative at w={w}")
        return s / (w * w)


def truncated_log_coeffs(kappa: float) -> tuple[float, float, float, float]:
    """Coefficients (b1, b2, b3, b4) for the truncated-log barrier.

    b1 = -log(kappa) pins rho(-kappa) = 0 and keeps rho >= 0 on [-kappa, 0).
    Matching value, first and second derivative of the log and rational
    branches at w = -kappa, which makes the barrier twice differentiable
    there, gives b2 = 3/2, b3 = kappa^2 / 2 and b4 = 2 kappa.
    """
    if not (0.0 < kappa <= 1.0):
        raise InvalidParameter(f"kappa must lie in (0, 1], got {kappa}")
    return -math.log(kappa), 1.5, 0.5 * kappa * kappa, 2.0 * kappa


@dataclass(frozen=True)
class TruncatedLogBarrier:
    """Log barrier on [-kappa, 0), matched C^2 to a rational tail below -kappa."""

    kappa: float = 1.0
    betas: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "betas", truncated_log_coeffs(self.kappa))

    def rho(self, w: float, s: float) -> float:
        if w >= 0.0:
            return math.inf
        b1, b2, b3, b4 = self.betas
        if w >= -self.kappa:
            return -s * (math.log(-w) + b1)
        return -s * (b2 + b3 / (w * w) + b4 / w)

    def drho(self, w: float, s: float) -> float:
        if w >= 0.0:
            raise BarrierWall(f"truncated-log derivative at w={w}")
        _, _, b3, b4 = self.betas
        if w >= -self.kappa:
            return -s / w
        return s * (2.0 * b3 / w**3 + b4 / (w * w))


Kind = Union[QuadraticPenalty, PolynomialPenalty, InverseBarrier, TruncatedLogBarrier]

BARRIER_KINDS = (InverseBarrier, TruncatedLogBarrier)


@dataclass(frozen=True)
class AuxiliaryFunction:
    """A catalog member plus the optional modified-barrier wrapper.

    ``modified=True`` shifts the wall: P(w) = kind.rho(w - shift, sigma).
    Only barrier kinds may be modified.  The solver freezes the shift once per
    stage from the schedule's sigma2 (see ``solver._Stage.penalized``).
    """

    kind: Kind = field(default_factory=lambda: TruncatedLogBarrier(1.0))
    modified: bool = False

    def __post_init__(self):
        if self.modified and not self.is_barrier:
            raise InvalidParameter("only barrier kinds can take the modified wrapper")

    @property
    def is_barrier(self) -> bool:
        return isinstance(self.kind, BARRIER_KINDS)


def parse_aux(spec, modified: bool = False) -> AuxiliaryFunction:
    """Build an AuxiliaryFunction from a config name.

    Accepted names: ``quadratic``, ``polynomial:q``, ``inverse``,
    ``truncated-log:kappa``; ``quadratic`` and ``inverse`` take no argument.
    A dict form ``{"name": ..., "modified": bool}`` is accepted as well; any
    other key, or a ``modified`` that is not a bool, raises InvalidParameter.
    """
    if isinstance(spec, dict):
        unknown = sorted(set(spec) - {"name", "modified"})
        if unknown:
            raise InvalidParameter(f"unknown auxiliary-function keys {unknown} in {spec!r}")
        mod = spec.get("modified", False)
        if not isinstance(mod, bool):
            raise InvalidParameter(f"auxiliary-function 'modified' must be a bool, got {mod!r}")
        return parse_aux(spec["name"], modified=mod)
    name, _, arg = str(spec).partition(":")
    name = name.strip().lower()
    if arg and name in ("quadratic", "inverse"):
        raise InvalidParameter(f"{name} takes no argument, got {spec!r}")
    if name == "quadratic":
        kind: Kind = QuadraticPenalty()
    elif name == "polynomial":
        kind = PolynomialPenalty(**_inline(PolynomialPenalty, "q", arg))
    elif name == "inverse":
        kind = InverseBarrier()
    elif name == "truncated-log":
        kind = TruncatedLogBarrier(**_inline(TruncatedLogBarrier, "kappa", arg))
    else:
        raise InvalidParameter(f"unknown auxiliary function {spec!r}")
    return AuxiliaryFunction(kind=kind, modified=modified)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleState:
    """The decaying parameter tuple (mu_k, theta_k, sigma_k).

    All positive parameters shrink geometrically: one :func:`schedule_step`
    multiplies each by ``decay``, and the shift ``sigma2`` by ``decay **
    sigma2_pow``.  ``sigma1`` is the one penalty/barrier parameter shared by
    every term.  ``sigma2`` is the one modified-barrier shift sequence, taken
    by every modified term (see ``solver._Stage.penalized``).  ``sigma2_pow``
    in (0, 1) makes it shrink strictly slower than sigma1, which keeps
    rho(-sigma2_k; sigma1_k) -> 0 for every barrier in the catalog (the
    modified-barrier schedule hypothesis) and bounds the wall stiffness
    sigma1/sigma2^2.
    """

    mu: float = 1.0
    theta: float = 1.0
    sigma1: float = 1.0
    decay: float = 1.0 / 1.01
    sigma2: float = 1.0
    sigma2_pow: float = 0.5

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.mu, self.theta, self.sigma1, self.sigma2)):
            raise InvalidParameter("schedule parameters must be positive and finite")
        if not (0.0 < self.decay <= 1.0):
            raise InvalidParameter("decay must lie in (0, 1]")
        if not (0.0 < self.sigma2_pow < 1.0):
            raise InvalidParameter(f"sigma2_pow must lie in (0, 1), got {self.sigma2_pow}")


def schedule_step(sched: ScheduleState) -> ScheduleState:
    """Advance one outer stage: every decaying parameter multiplied down."""
    d, p = sched.decay, sched.sigma2_pow
    return ScheduleState(mu=sched.mu * d, theta=sched.theta * d, sigma1=sched.sigma1 * d,
                         decay=d, sigma2=sched.sigma2 * d**p, sigma2_pow=p)
