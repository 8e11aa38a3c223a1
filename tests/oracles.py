"""Independent references used by the test suite, one of each.

These deliberately avoid the solver's own code paths: inner problems are
minimized on dense grids, value functions are differentiated by central
differences, so agreement with the solver is evidence rather than tautology.
The module imports nothing from ``bvfsm`` but ``bvfsm.core``, the problem
types.  It also holds the small problems that several test modules share.
"""

import itertools

import numpy as np

from bvfsm.core import (
    BilevelProblem,
    DimensionMismatch,
    InvalidParameter,
    Mode,
    ScalarField,
)


class EmptyFeasibleSet(RuntimeError):
    """The grid oracle found no feasible LL point."""


def grid_min(obj, lo=-8.0, hi=8.0, points=4001, rounds=4):
    """(min, argmin) of a function of a 1-entry y over a dense grid on [lo, hi].

    Each further round re-grids four spacings around the best point;
    ``rounds=1`` is the plain grid.
    """
    for _ in range(rounds):
        ys = np.linspace(lo, hi, points)
        vals = np.array([obj(np.array([y])) for y in ys])
        i = int(np.argmin(vals))
        span = (hi - lo) / (points - 1)
        lo, hi = ys[i] - 2 * span, ys[i] + 2 * span
    return float(vals[i]), np.array([ys[i]])


def phi(problem, x, y_grid=(-20.0, 20.0, 2001), ll_tol=1e-3):
    """Grid oracle for the true UL value function; n <= 2 only.

    The LL solution set is taken as grid points (feasible for the LL
    constraints) whose f-value lies within ``ll_tol * max(1, |f_min|)`` of the
    grid minimum; returns min (optimistic) or max (pessimistic) of F there.
    """
    if problem.n > 2:
        raise InvalidParameter("grid oracle supports n <= 2 only")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi, points = y_grid
    entries = []
    for point in itertools.product(np.linspace(lo, hi, points), repeat=problem.n):
        y = np.array(point)
        if all(h(x, y) <= 0.0 for h in problem.ll_constraints):
            entries.append((y, problem.f(x, y)))
    if not entries:
        raise EmptyFeasibleSet(f"no grid point satisfies the LL constraints at x={x}")
    f_min = min(fv for _, fv in entries)
    tol = ll_tol * max(1.0, abs(f_min))
    values = [problem.F(x, y) for y, fv in entries if fv <= f_min + tol]
    return max(values) if problem.mode is Mode.PESSIMISTIC else min(values)


def unpadded_shifts(problem, cfg, sched):
    """The shift of every term of phi_k, in order f, each H, each h.

    A modified term takes the schedule's sigma2, unpadded; an unmodified term
    takes 0.
    """
    def shift(aux):
        return sched.sigma2 if aux.modified else 0.0

    return ([shift(cfg.aux_f)] + [shift(cfg.aux_H)] * len(problem.ul_constraints)
            + [shift(cfg.aux_h)] * len(problem.ll_constraints))


def phi_k(problem, x, cfg, sched=None, y_grid=(-8.0, 8.0, 4001), rounds=4):
    """The stage value function phi_{mu,theta,sigma}(x) of an n = 1 problem.

    f*_mu is the grid minimum of f + mu/2 |y|^2 + the aux_B barriers on h;
    phi_k is the grid min (max, pessimistic) of
    F +- theta/2 |y|^2 +- P_f(f - f*_mu) +- P_H(H) +- P_h(h).  The auxiliary
    functions are those of ``cfg``, the schedule is ``sched`` (default
    ``cfg.schedule``), and the shifts are :func:`unpadded_shifts`.
    """
    if problem.n != 1:
        raise InvalidParameter("grid value-function oracle is 1-D only")
    sched = cfg.schedule if sched is None else sched
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi, points = y_grid
    s1 = sched.sigma1

    def reg_obj(y):
        v = problem.f(x, y) + 0.5 * sched.mu * float(y @ y)
        for h in problem.ll_constraints:
            v += cfg.aux_B.kind.rho(h(x, y), s1)
        return v

    f_star, _ = grid_min(reg_obj, lo, hi, points, rounds)
    auxes = ([(problem.f, f_star, cfg.aux_f)]
             + [(H, 0.0, cfg.aux_H) for H in problem.ul_constraints]
             + [(h, 0.0, cfg.aux_h) for h in problem.ll_constraints])
    terms = [(c, base, sh, aux.kind.rho)
             for (c, base, aux), sh in zip(auxes, unpadded_shifts(problem, cfg, sched))]
    sgn = -1.0 if problem.mode is Mode.PESSIMISTIC else 1.0

    def obj(y):
        v = sgn * problem.F(x, y) + 0.5 * sched.theta * float(y @ y)
        for c, base, sh, rho in terms:
            v += rho(c(x, y) - base - sh, s1)
        return v

    best, _ = grid_min(obj, lo, hi, points, rounds)
    return sgn * best


def chain_rule(problem, x, z, y, f_star, shifts, sched, cfg):
    """The signed value-function chain rule at inner solutions z and y, written out.

        g = dF/dx(y) + s * [ lam_f * (df/dx(y) - df*/dx)
                             + sum_H lam_H * dH/dx(y) + sum_h lam_h * dh/dx(y) ]
        df*/dx = df/dx(z) + sum_h rho_B'(h(z)) * dh/dx(z)

    with lam_f = P_f'(f(y) - f* - shift_f), lam_H = P_H'(H(y) - shift_H) and
    lam_h = P_h'(h(y) - shift_h), each P' the derivative of ``cfg``'s
    auxiliary function at ``sched.sigma1``, every multiplier evaluated here
    from the fields.  ``shifts`` is (shift_f, shifts_H, shifts_h); s is -1 in
    pessimistic mode, else +1.  A term enters only with a nonzero
    multiplier, and the sums run in the order written.
    """
    s1 = sched.sigma1
    sgn = -1.0 if problem.mode is Mode.PESSIMISTIC else 1.0
    shift_f, shifts_H, shifts_h = shifts
    g = problem.F.gx(x, y)
    lam_f = sgn * cfg.aux_f.kind.drho(problem.f(x, y) - f_star - shift_f, s1)
    if lam_f != 0.0:
        dfstar_dx = problem.f.gx(x, z)
        for h in problem.ll_constraints:
            dfstar_dx = dfstar_dx + cfg.aux_B.kind.drho(h(x, z), s1) * h.gx(x, z)
        g = g + lam_f * (problem.f.gx(x, y) - dfstar_dx)
    for fields, aux, shs in ((problem.ul_constraints, cfg.aux_H, shifts_H),
                             (problem.ll_constraints, cfg.aux_h, shifts_h)):
        for c, sh in zip(fields, shs):
            lam = sgn * aux.kind.drho(c(x, y) - sh, s1)
            if lam != 0.0:
                g = g + lam * c.gx(x, y)
    return g


def fixed_step_descent(grad, y0, steps, step):
    """``steps`` gradient steps ``y <- y - step * grad(y)`` from ``y0``, written out."""
    y = np.array(y0, dtype=float)
    for _ in range(steps):
        y = y - step * grad(y)
    return y


def fd_of_phi(phi, x_scalar, eps=1e-5):
    """Central difference of a scalar-argument value function."""
    return (phi(x_scalar + eps) - phi(x_scalar - eps)) / (2.0 * eps)


def worst_fd_error(problem, cfg, xs, ul_gradient):
    """The worst relative error, over the points ``xs`` of an m = n = 1
    problem, of ``ul_gradient(x)`` against the central difference of
    :func:`phi_k` under ``cfg``, relative to max(|difference|, 1e-8).
    ``ul_gradient`` is the gradient under test, at x = [xv]."""
    worst = 0.0
    for xv in xs:
        num = fd_of_phi(lambda v: phi_k(problem, [v], cfg), xv)
        worst = max(worst, abs(ul_gradient(np.array([xv]))[0] - num) / max(abs(num), 1e-8))
    return worst


def quadratic_field(m: int, n: int, A: np.ndarray, name: str = "") -> ScalarField:
    """f(x, y) = 0.5 * ||y - A x||^2 with analytic gradients."""
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


def tracking_problem(m=2, n=3, seed=0):
    """F = 0.5|y|^2, f = 0.5|y - Ax|^2: y*(x) = Ax, dphi/dx = A^T A x."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m)) * 0.6
    f = quadratic_field(m, n, A, name="tracking")
    F = ScalarField(m=m, n=n, fn=lambda x, y: 0.5 * float(y @ y),
                    grad_x=lambda x, y: np.zeros(m), grad_y=lambda x, y: y, name="half-norm")
    return BilevelProblem(m=m, n=n, F=F, f=f), A


def toy_problem(pessimistic=False):
    """F = (x-1)^2 +- y^2, f = (y-x)^2; the 1-D smooth toy."""
    sF = -1.0 if pessimistic else 1.0
    F = ScalarField(
        m=1, n=1,
        fn=lambda x, y: (x[0] - 1.0) ** 2 + sF * y[0] ** 2,
        grad_x=lambda x, y: np.array([2.0 * (x[0] - 1.0)]),
        grad_y=lambda x, y: np.array([sF * 2.0 * y[0]]))
    f = ScalarField(
        m=1, n=1,
        fn=lambda x, y: (y[0] - x[0]) ** 2,
        grad_x=lambda x, y: np.array([-2.0 * (y[0] - x[0])]),
        grad_y=lambda x, y: np.array([2.0 * (y[0] - x[0])]))
    return BilevelProblem(m=1, n=1, F=F, f=f,
                          mode=Mode.PESSIMISTIC if pessimistic else Mode.OPTIMISTIC)
