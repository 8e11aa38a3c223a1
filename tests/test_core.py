import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvfsm import (
    DimensionMismatch,
    FeasibleSet,
    NonFiniteEvaluation,
    ScalarField,
    SolverConfig,
    fd_gradient,
    hvp,
    ll_descent,
    make_sin_problem,
    project,
    solve_regularized_ll,
    validate_gradients,
)
from bvfsm.core import all_finite, plain_descent, quadratic_field


# ---------------------------------------------------------------------------
# all_finite
# ---------------------------------------------------------------------------

MAX = np.finfo(float).max
special = st.one_of(
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                     5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(1e155, MAX) | st.floats(-MAX, -1e155),  # finite, but the square overflows
    st.floats(),
)


@given(n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-300, 1.0, 1e150]),
       entries=st.lists(st.tuples(st.integers(0, 1999), special), max_size=8))
@example(n=3, seed=0, scale=0.0, entries=[(0, 1e200)])  # every square finite but one
@example(n=2000, seed=0, scale=1e150, entries=[])  # the sum of finite squares overflows
@example(n=1, seed=0, scale=1.0, entries=[(0, math.nan)])
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error")  # overflowing squares must not warn either
def test_all_finite_agrees_with_isfinite(n, seed, scale, entries):
    v = scale * np.random.default_rng(seed).standard_normal(n)
    for i, value in entries:
        v[i % n] = value
    assert all_finite(v) is bool(np.isfinite(v).all())


# ---------------------------------------------------------------------------
# plain_descent: the loop behind ll_descent and the unconstrained z-solve
# ---------------------------------------------------------------------------


def _z_solve(prob, x, y0, steps):
    cfg = SolverConfig(T_z=steps)
    return solve_regularized_ll(prob, x, cfg.schedule, cfg, y0)[0]


def _ll_descent(prob, x, y0, steps):
    return ll_descent(prob, x, y0, steps, 0.01)


@pytest.mark.parametrize("run", [_z_solve, _ll_descent], ids=["z-solve", "ll_descent"])
def test_plain_descent_raises_at_the_first_non_finite_step(run):
    calls = []

    def gy(x, y):  # the fourth call, at step 3, returns NaN
        calls.append(y)
        return np.full(2, math.nan) if len(calls) == 4 else np.cos(y)

    bench = make_sin_problem(2)
    prob = replace(bench.problem, f=replace(bench.problem.f, grad_y=gy))
    with pytest.raises(NonFiniteEvaluation, match="LL gradient at step 3"):
        run(prob, bench.x0, bench.y0, 10)
    assert len(calls) == 4


@pytest.mark.parametrize("mu", [None, 0.5])
def test_plain_descent_never_writes_to_what_grad_y_returns(mu):
    def written_out(gy, y0):
        y = np.array(y0)
        for _ in range(5):
            g = gy(x, y) if mu is None else gy(x, y) + mu * y
            y = y - 0.1 * g
        return y

    x, y0 = np.zeros(1), np.array([1.0, -2.0])
    cache = np.array([0.25, -3.0])
    for gy in (lambda x, y: y, lambda x, y: cache):
        got = plain_descent(gy, x, y0.copy(), 5, 0.1, mu)
        assert got.tobytes() == written_out(gy, y0).tobytes()
    assert cache.tolist() == [0.25, -3.0]


# ---------------------------------------------------------------------------
# fd_gradient
# ---------------------------------------------------------------------------


def test_fd_gradient_square():
    g = fd_gradient(lambda x: x[0] ** 2, [3.0], eps=1e-5)
    assert abs(g[0] - 6.0) <= 1e-6


def test_fd_gradient_constant():
    g = fd_gradient(lambda x: 7.5, [1.0, 2.0], eps=1e-4)
    assert np.all(g == 0.0)


def test_fd_gradient_sin_matches_cos():
    # analytic oracle: d/dx_i sin(x1 + x2) = cos(x1 + x2)
    g = fd_gradient(lambda x: math.sin(x[0] + x[1]), [0.3, 0.4], eps=1e-5)
    expect = math.cos(0.7)
    assert np.allclose(g, [expect, expect], atol=1e-9)


def test_fd_gradient_rejects_bad_eps():
    with pytest.raises(Exception):
        fd_gradient(lambda x: x[0], [1.0], eps=0.0)


def test_fd_gradient_nonfinite():
    with pytest.raises(NonFiniteEvaluation):
        fd_gradient(lambda x: float("nan"), [1.0], eps=1e-5)


coef = st.floats(-3.0, 3.0, allow_nan=False)


@given(a=coef, b=coef, c=coef, x1=coef, x2=coef,
       eps=st.floats(1e-6, 1e-3, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_fd_gradient_exact_on_quadratics(a, b, c, x1, x2, eps):
    # central differences are exact for degree <= 2 polynomials
    fn = lambda v: a * v[0] ** 2 + b * v[0] * v[1] + c * v[1]
    g = fd_gradient(fn, [x1, x2], eps=eps)
    expect = np.array([2 * a * x1 + b * x2, b * x1 + c])
    assert np.allclose(g, expect, atol=1e-8)


# ---------------------------------------------------------------------------
# hvp
# ---------------------------------------------------------------------------


def test_hvp_identity_hessian():
    out = hvp(lambda y: y, [0.4, -0.2], [1.0, 0.0], eps=1e-5)
    assert np.allclose(out, [1.0, 0.0], atol=1e-10)


def test_hvp_diagonal_hessian():
    D = np.array([2.0, 3.0])
    out = hvp(lambda y: D * y, [0.0, 0.0], [1.0, 1.0], eps=1e-5)
    assert np.allclose(out, [2.0, 3.0], atol=1e-9)


def test_hvp_sin_second_derivative():
    # d^2/dy^2 sin(y) = -sin(y): analytic oracle
    out = hvp(lambda y: np.cos(y), [0.5], [1.0], eps=1e-6)
    assert abs(out[0] + math.sin(0.5)) <= 1e-8


@given(
    a11=coef, a12=coef, a22=coef, v1=coef, v2=coef, x1=coef, x2=coef,
)
@settings(max_examples=60, deadline=None)
def test_hvp_exact_on_constant_hessians(a11, a12, a22, v1, v2, x1, x2):
    A = np.array([[a11, a12], [a12, a22]])
    out = hvp(lambda y: A @ y, [x1, x2], [v1, v2], eps=1e-5)
    assert np.allclose(out, A @ np.array([v1, v2]), atol=1e-8)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_whole_space_identity():
    s = FeasibleSet.whole_space()
    assert np.array_equal(project(s, [5.0, -3.0]), [5.0, -3.0])


def test_project_box_clamps():
    s = FeasibleSet.box([0.0, 0.0], [1.0, 1.0])
    assert np.array_equal(project(s, [2.0, -1.0]), [1.0, 0.0])


def test_project_dimension_mismatch():
    s = FeasibleSet.box([0.0], [1.0])
    with pytest.raises(DimensionMismatch):
        project(s, [1.0, 2.0])


pts = st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=2)


@given(a=pts, b=pts)
@settings(max_examples=80, deadline=None)
def test_box_projection_idempotent_nonexpansive(a, b):
    s = FeasibleSet.box([-1.0, 0.5], [2.0, 3.0])
    pa, pb = project(s, a), project(s, b)
    assert np.allclose(project(s, pa), pa)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(np.array(a) - np.array(b)) + 1e-12


# ---------------------------------------------------------------------------
# gradient validation
# ---------------------------------------------------------------------------


def test_validate_gradients_passes_correct_field():
    fld = quadratic_field(2, 3, np.arange(6, dtype=float).reshape(3, 2) / 5.0)
    rep = validate_gradients(fld, probes=5, tol=1e-5, seed=1)
    assert rep.passed, str(rep)


def test_validate_gradients_catches_negated_gradient():
    good = quadratic_field(2, 3, np.ones((3, 2)))
    bad = ScalarField(
        m=2, n=3,
        fn=good.fn,
        grad_x=good.grad_x,
        grad_y=lambda x, y: -good.gy(x, y),
        name="negated",
    )
    rep = validate_gradients(bad, probes=5, tol=1e-5, seed=2)
    assert not rep.passed
    assert rep.max_rel_err_y == pytest.approx(2.0, rel=1e-3)


def test_validate_gradients_constant_field():
    fld = ScalarField(
        m=1, n=1,
        fn=lambda x, y: 4.0,
        grad_x=lambda x, y: np.zeros(1),
        grad_y=lambda x, y: np.zeros(1),
    )
    rep = validate_gradients(fld, probes=3, tol=1e-12, seed=0)
    assert rep.passed
    assert rep.max_rel_err_x == 0.0 and rep.max_rel_err_y == 0.0
