"""Independent oracles used by the test suite.

These deliberately avoid the solver's own code paths: inner problems are
minimized on iteratively refined dense grids, value functions are
differentiated by central differences, so agreement with the solver is
evidence rather than tautology.
"""

import numpy as np


def _refined_grid_min(obj, lo=-8.0, hi=8.0, points=4001, rounds=4):
    """Iteratively refined dense-grid minimization of a scalar function."""
    best_y = None
    for _ in range(rounds):
        ys = np.linspace(lo, hi, points)
        vals = np.array([obj(np.array([y])) for y in ys])
        i = int(np.argmin(vals))
        best_y = ys[i]
        span = (hi - lo) / (points - 1)
        lo, hi = best_y - 2 * span, best_y + 2 * span
    return float(vals[i]), np.array([best_y])


def penalized_value(problem, x, sched, aux_f, y0, shift_f=0.0,
                    aux_H=None, aux_h=None, shifts_H=None, shifts_h=None,
                    kind_B=None, pessimistic=False):
    """phi_{mu,theta,sigma}(x) for n = 1 problems by refined grid minimization.

    Both the regularized LL value and the penalized inner problem are
    minimized on iteratively refined dense grids, which are robust to barrier
    walls in a way quasi-Newton line searches are not.
    """
    assert problem.n == 1, "grid value-function oracle is 1-D only"

    def reg_obj(y):
        v = problem.f(x, y) + 0.5 * sched.mu * float(y @ y)
        if kind_B is not None:
            for h in problem.ll_constraints:
                v += kind_B.rho(h(x, y), sched.sigma1)
        return v

    f_star, _ = _refined_grid_min(reg_obj)
    sgn = -1.0 if pessimistic else 1.0

    def obj(y):
        v = sgn * problem.F(x, y) + 0.5 * sched.theta * float(y @ y)
        v += aux_f.kind.rho(problem.f(x, y) - f_star - shift_f, sched.sigma1)
        if aux_H is not None:
            for j, H in enumerate(problem.ul_constraints):
                v += aux_H.kind.rho(H(x, y) - shifts_H[j], sched.sigma1)
        if aux_h is not None:
            for j, h in enumerate(problem.ll_constraints):
                v += aux_h.kind.rho(h(x, y) - shifts_h[j], sched.sigma1)
        return v

    best, _ = _refined_grid_min(obj)
    return sgn * best


def fd_of_phi(phi, x_scalar, eps=1e-5):
    """Central difference of a scalar-argument value function."""
    return (phi(x_scalar + eps) - phi(x_scalar - eps)) / (2.0 * eps)


def grid_argmin(fn, lo=-20.0, hi=20.0, points=2001):
    ys = np.linspace(lo, hi, points)
    vals = np.array([fn(np.array([y])) for y in ys])
    i = int(np.argmin(vals))
    return np.array([ys[i]]), float(vals[i])
