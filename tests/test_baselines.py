import hashlib

import numpy as np
import pytest

from bvfsm import (
    BaselineConfig,
    BilevelProblem,
    InvalidParameter,
    ScalarField,
    SolverConfig,
    bda_hypergradient,
    cg_hypergradient,
    ll_descent,
    make_sin_problem,
    neumann_hypergradient,
    parse_method,
    rhg_hypergradient,
    schedule_step,
    solve_regularized_ll,
    trhg_hypergradient,
)
from bvfsm.baselines import hypergradient_step
from bvfsm.core import quadratic_field


def field(m, n, fn, gx, gy, name=""):
    return ScalarField(m=m, n=n, fn=fn, grad_x=gx, grad_y=gy, name=name)


def tracking_problem(m=2, n=3, seed=0):
    """F = 0.5|y|^2, f = 0.5|y - Ax|^2: y*(x) = Ax, dphi/dx = A^T A x."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, m)) * 0.6
    f = quadratic_field(m, n, A, name="tracking")
    F = field(m, n, lambda x, y: 0.5 * float(y @ y),
              lambda x, y: np.zeros(m), lambda x, y: y, name="half-norm")
    return BilevelProblem(m=m, n=n, F=F, f=f), A


def x_only_ll():
    """f whose y-gradient does not depend on x: indirect term must vanish."""
    f = field(2, 2, lambda x, y: 0.5 * float(y @ y) + x[0],
              lambda x, y: np.array([1.0, 0.0]), lambda x, y: y)
    F = field(2, 2, lambda x, y: float(x @ x) + float(y @ y),
              lambda x, y: 2.0 * np.asarray(x), lambda x, y: 2.0 * y)
    return BilevelProblem(m=2, n=2, F=F, f=f)


# ---------------------------------------------------------------------------
# RHG / TRHG
# ---------------------------------------------------------------------------


def test_rhg_indirect_term_vanishes_when_ll_gradient_x_free():
    prob = x_only_ll()
    cfg = BaselineConfig(T=40, I=40, ll_step=0.3)
    x = np.array([0.7, -0.4])
    g, y_T = rhg_hypergradient(prob, x, np.array([1.0, 1.0]), cfg)
    assert np.allclose(g, 2.0 * x, atol=1e-8)


def test_rhg_quadratic_tracking_matches_analytic():
    prob, A = tracking_problem()
    cfg = BaselineConfig(T=400, I=400, ll_step=0.5)
    x = np.array([0.8, -0.5])
    g, y_T = rhg_hypergradient(prob, x, np.zeros(3), cfg)
    assert np.allclose(y_T, A @ x, atol=1e-8)
    assert np.allclose(g, A.T @ (A @ x), atol=1e-4)


def test_rhg_t_zero_returns_direct_gradient():
    prob, _ = tracking_problem()
    cfg = BaselineConfig(T=0, I=0, Q=1)
    x = np.array([0.3, 0.2])
    y0 = np.array([1.0, -1.0, 0.5])
    g, y_T = rhg_hypergradient(prob, x, y0, cfg)
    assert np.array_equal(y_T, y0)
    assert np.array_equal(g, prob.F.gx(x, y0))


def test_trhg_full_window_equals_rhg_bitwise():
    prob, _ = tracking_problem(seed=3)
    cfg = BaselineConfig(T=60, I=60, ll_step=0.4)
    x = np.array([0.2, 0.9])
    g1, y1 = rhg_hypergradient(prob, x, np.zeros(3), cfg)
    g2, y2 = trhg_hypergradient(prob, x, np.zeros(3), cfg)
    assert np.array_equal(g1, g2)
    assert np.array_equal(y1, y2)


def test_trhg_zero_window_is_direct_gradient():
    prob, _ = tracking_problem()
    cfg = BaselineConfig(T=30, I=0, ll_step=0.4)
    x = np.array([0.2, 0.9])
    g, y_T = trhg_hypergradient(prob, x, np.zeros(3), cfg)
    assert np.array_equal(g, prob.F.gx(x, y_T))


def test_trhg_half_window_between_extremes_in_norm():
    prob, _ = tracking_problem(seed=5)
    x = np.array([1.1, -0.7])
    y0 = np.zeros(3)
    norms = {}
    for I in (0, 15, 30):
        cfg = BaselineConfig(T=30, I=I, ll_step=0.4)
        g, _ = trhg_hypergradient(prob, x, y0, cfg)
        norms[I] = np.linalg.norm(g)
    lo, hi = sorted((norms[0], norms[30]))
    assert lo - 1e-12 <= norms[15] <= hi + 1e-12


# ---------------------------------------------------------------------------
# BDA
# ---------------------------------------------------------------------------


def test_bda_small_aggregation_recovers_rhg_trajectory():
    prob, _ = tracking_problem(seed=7)
    x = np.array([0.4, 0.6])
    y0 = np.full(3, 0.3)
    cfg_r = BaselineConfig(T=50, I=50, ll_step=0.3)
    cfg_b = BaselineConfig(T=50, I=50, ll_step=0.3, aggregation=1e-12)
    g_r, y_r = rhg_hypergradient(prob, x, y0, cfg_r)
    g_b, y_b = bda_hypergradient(prob, x, y0, cfg_b)
    assert np.allclose(y_r, y_b, atol=1e-8)
    assert np.allclose(g_r, g_b, atol=1e-6)


def test_bda_aggregation_one_limit_descends_F_only():
    # aggregation -> 1 turns the forward map into descent purely on F
    prob, _ = tracking_problem(seed=9)
    x = np.array([0.4, 0.6])
    y0 = np.full(3, 1.0)
    cfg = BaselineConfig(T=20, I=20, ll_step=0.25, aggregation=1.0 - 1e-14)
    _, y_b = bda_hypergradient(prob, x, y0, cfg)
    y = y0.copy()
    for _ in range(20):
        y = y - 0.25 * prob.F.gy(x, y)
    assert np.allclose(y_b, y, atol=1e-10)


# ---------------------------------------------------------------------------
# CG
# ---------------------------------------------------------------------------


def test_cg_identity_hessian_single_step():
    # f = 0.5|y|^2: one CG iteration solves the system, v = dF/dy
    f = field(1, 2, lambda x, y: 0.5 * float(y @ y),
              lambda x, y: np.zeros(1), lambda x, y: y)
    F = field(1, 2, lambda x, y: float(np.sum(y)) + x[0] ** 2,
              lambda x, y: 2.0 * np.asarray(x), lambda x, y: np.ones(2))
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    x = np.array([0.5])
    out = cg_hypergradient(prob, x, np.zeros(2), BaselineConfig(Q=1))
    # mixed partials are zero, so grad = dF/dx
    assert out.flag == ""
    assert np.allclose(out.grad_x, [1.0], atol=1e-8)


def test_cg_diagonal_hessian_exact_solve():
    n = 4
    D = np.arange(1.0, n + 1.0)
    f = field(1, n, lambda x, y: 0.5 * float(y @ (D * y)),
              lambda x, y: np.zeros(1), lambda x, y: D * y)
    b = np.array([1.0, -2.0, 0.5, 3.0])
    F = field(1, n, lambda x, y: float(b @ y),
              lambda x, y: np.zeros(1), lambda x, y: b)
    prob = BilevelProblem(m=1, n=n, F=F, f=f)
    # oracle: v = D^{-1} b; verify via the mixed-free gradient (zero) and by
    # reconstructing v from the identity grad = dF/dx - mixed^T v with a probe f
    out = cg_hypergradient(prob, np.zeros(1), np.zeros(n), BaselineConfig(Q=n))
    assert out.flag == ""
    assert np.allclose(out.grad_x, [0.0], atol=1e-8)


def test_cg_mixed_zero_gives_direct_gradient():
    prob = x_only_ll()
    out = cg_hypergradient(prob, np.array([0.3, -0.3]), np.zeros(2), BaselineConfig(Q=5))
    assert np.allclose(out.grad_x, 2.0 * np.array([0.3, -0.3]), atol=1e-7)


def test_cg_breakdown_flag_on_negative_curvature():
    f = field(1, 2, lambda x, y: -0.5 * float(y @ y),
              lambda x, y: np.zeros(1), lambda x, y: -y)
    F = field(1, 2, lambda x, y: float(np.sum(y)),
              lambda x, y: np.zeros(1), lambda x, y: np.ones(2))
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    out = cg_hypergradient(prob, np.zeros(1), np.zeros(2), BaselineConfig(Q=3))
    assert out.flag == "cg-breakdown"
    assert np.all(np.isfinite(out.grad_x))


# ---------------------------------------------------------------------------
# Neumann
# ---------------------------------------------------------------------------


def test_neumann_identity_hessian_collapses():
    f = field(1, 2, lambda x, y: 0.5 * float(y @ y),
              lambda x, y: np.zeros(1), lambda x, y: y)
    F = field(1, 2, lambda x, y: float(np.sum(y)) + x[0],
              lambda x, y: np.ones(1), lambda x, y: np.ones(2))
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    out = neumann_hypergradient(prob, np.zeros(1), np.zeros(2),
                                BaselineConfig(Q=50, ll_step=1.0))
    assert out.flag == ""
    assert np.allclose(out.grad_x, [1.0], atol=1e-7)


def test_neumann_geometric_series_oracle():
    # Hessian 2I with s = 0.25: v -> s * sum (1/2)^q * b = 0.5 b (geometric series)
    f = field(1, 2, lambda x, y: float(y @ y),
              lambda x, y: np.zeros(1), lambda x, y: 2.0 * y)
    b = np.array([1.0, -3.0])
    F = field(1, 2, lambda x, y: float(b @ y),
              lambda x, y: np.zeros(1), lambda x, y: b)
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    out = neumann_hypergradient(prob, np.zeros(1), np.zeros(2),
                                BaselineConfig(Q=200, ll_step=0.25))
    # mixed partials are zero so the result is dF/dx = 0; check v through
    # a problem where mixed = -I: f2 = |y|^2 - x . y
    assert np.allclose(out.grad_x, [0.0], atol=1e-8)

    f2 = field(2, 2, lambda x, y: float(y @ y) - float(np.asarray(x) @ y),
               lambda x, y: -np.asarray(y), lambda x, y: 2.0 * y - np.asarray(x))
    F2 = field(2, 2, lambda x, y: float(b @ y),
               lambda x, y: np.zeros(2), lambda x, y: b)
    prob2 = BilevelProblem(m=2, n=2, F=F2, f=f2)
    out2 = neumann_hypergradient(prob2, np.zeros(2), np.zeros(2),
                                 BaselineConfig(Q=200, ll_step=0.25))
    # grad = 0 - (d2f/dydx)^T v = v = 0.5 b for the geometric series
    assert np.allclose(out2.grad_x, 0.5 * b, atol=1e-4)


def test_neumann_divergence_flag():
    # Hessian 2I with s = 1.5: terms scale by |1 - 3| = 2 each iteration
    f = field(1, 2, lambda x, y: float(y @ y),
              lambda x, y: np.zeros(1), lambda x, y: 2.0 * y)
    F = field(1, 2, lambda x, y: float(np.sum(y)),
              lambda x, y: np.zeros(1), lambda x, y: np.ones(2))
    prob = BilevelProblem(m=1, n=2, F=F, f=f)
    out = neumann_hypergradient(prob, np.zeros(1), np.zeros(2),
                                BaselineConfig(Q=50, ll_step=1.5))
    assert out.flag == "diverging"


# ---------------------------------------------------------------------------
# cross-estimator agreement
# ---------------------------------------------------------------------------


def test_all_estimators_agree_on_strongly_convex_quadratic():
    prob, A = tracking_problem(m=2, n=3, seed=11)
    x = np.array([0.9, -0.3])
    y0 = np.zeros(3)
    expect = A.T @ (A @ x)
    cfg = BaselineConfig(T=200, I=200, Q=200, ll_step=0.4, aggregation=1e-10)
    outs = {
        "rhg": rhg_hypergradient(prob, x, y0, cfg).grad_x,
        "trhg": trhg_hypergradient(prob, x, y0, cfg).grad_x,
        "bda": bda_hypergradient(prob, x, y0, cfg).grad_x,
    }
    y_T = ll_descent(prob, x, y0, cfg.T, cfg.ll_step)
    outs["cg"] = cg_hypergradient(prob, x, y_T, cfg).grad_x
    outs["neumann"] = neumann_hypergradient(prob, x, y_T, cfg).grad_x
    for name, g in outs.items():
        rel = np.linalg.norm(g - expect) / np.linalg.norm(expect)
        assert rel <= 1e-3, f"{name}: rel err {rel:.2e}"
    rel_cn = np.linalg.norm(outs["cg"] - outs["neumann"]) / np.linalg.norm(outs["cg"])
    assert rel_cn <= 1e-4


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_method_variants():
    assert parse_method("rhg")[0] == "rhg"
    name, cfg = parse_method("trhg:25", BaselineConfig(T=100))
    assert name == "trhg" and cfg.I == 25
    name, cfg = parse_method("bda:0.3")
    assert name == "bda" and cfg.aggregation == 0.3
    name, cfg = parse_method("cg:15")
    assert name == "cg" and cfg.Q == 15
    name, cfg = parse_method("neumann:40")
    assert name == "neumann" and cfg.Q == 40
    with pytest.raises(InvalidParameter):
        parse_method("sgd")


def test_baseline_config_validation():
    with pytest.raises(InvalidParameter):
        BaselineConfig(I=200, T=100)
    with pytest.raises(InvalidParameter):
        BaselineConfig(aggregation=0.0)
    with pytest.raises(InvalidParameter):
        BaselineConfig(Q=0)


# ---------------------------------------------------------------------------
# plain descent: ll_descent and the unconstrained z-solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prob,x,y0", [
    pytest.param(make_sin_problem(2).problem, np.array([8.0]), np.full(2, 8.0), id="sin-n2"),
    pytest.param(make_sin_problem(1000).problem, np.array([8.0]), np.zeros(1000), id="sin-n1000"),
    pytest.param(tracking_problem(m=2, n=3, seed=3)[0], np.array([0.8, -0.5]),
                 np.array([0.4, -1.1, 0.7]), id="tracking"),
])
def test_plain_descent_is_bitwise_the_written_out_loop(prob, x, y0):
    y = y0.copy()
    for _ in range(100):
        y = y - 0.01 * prob.f.gy(x, y)
    assert ll_descent(prob, x, y0, 100, 0.01).tobytes() == y.tobytes()

    cfg = SolverConfig(T_z=50)
    sched = schedule_step(schedule_step(cfg.schedule))
    z = y0.copy()
    for _ in range(cfg.T_z):
        z = z - cfg.step_z * (prob.f.gy(x, z) + sched.mu * z)
    got, f_star, _ = solve_regularized_ll(prob, x, sched, cfg, y0)
    assert got.tobytes() == z.tobytes()
    assert f_star == prob.f(x, z) + 0.5 * sched.mu * float(z @ z)


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------


ESTIMATOR_DIGEST = "7b126181ed5162f133698673a18f22801bafdd77ce0dcee93f30e50dcc69e100"


def test_estimator_outputs_are_unchanged():
    """Bitwise pin of all five estimators, with BDA's decaying weights and I < T."""
    prob, _ = tracking_problem(m=2, n=3, seed=3)
    x = np.array([0.8, -0.5])
    y0 = np.array([0.4, -1.1, 0.7])
    cfg = BaselineConfig(T=50, I=20, Q=20, ll_step=0.3, aggregation=0.5,
                         aggregation_decay=0.95)
    h = hashlib.sha256()
    for method in ("rhg", "trhg", "bda", "cg", "neumann"):
        g, y_T, flag = hypergradient_step(prob, method, x, y0, cfg)
        h.update(method.encode())
        h.update(np.asarray(g, dtype=np.float64).tobytes())
        h.update(np.asarray(y_T, dtype=np.float64).tobytes())
        h.update(flag.encode())
    assert h.hexdigest() == ESTIMATOR_DIGEST
