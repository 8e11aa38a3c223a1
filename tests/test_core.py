import collections
import inspect
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
from bvfsm.auxfun import PolynomialPenalty, ScheduleState, TruncatedLogBarrier
from bvfsm.baselines import BaselineConfig, parse_method
from bvfsm.cli import build_solver_config
from bvfsm.core import _kinds, all_finite
from bvfsm.problems import PROBLEM_FAMILIES, make_problem

from oracles import fixed_step_descent, quadratic_field, tracking_problem


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
# ll_descent's fixed-step loop and the z-solve's guarded loop
# ---------------------------------------------------------------------------


def _z_solve(prob, x, y0, steps):
    cfg = SolverConfig(T_z=steps)
    return solve_regularized_ll(prob, x, cfg.schedule, cfg, y0)[0]


def _ll_descent(prob, x, y0, steps):
    return ll_descent(prob, x, y0, steps, 0.01)


@pytest.mark.parametrize("run,message", [
    (_z_solve, "z-solve gradient non-finite"),  # _descend's message
    (_ll_descent, "non-finite LL gradient at step 3"),
], ids=["z-solve", "ll_descent"])
def test_plain_descent_raises_at_the_first_non_finite_step(run, message):
    # both LL loops raise at the first NaN gradient and make no gradient call after it
    calls = []

    def gy(x, y):  # the fourth call, at step 3, returns NaN
        calls.append(y)
        return np.full(2, math.nan) if len(calls) == 4 else np.cos(y)

    bench = make_sin_problem(2)
    prob = replace(bench.problem, f=replace(bench.problem.f, grad_y=gy))
    with pytest.raises(NonFiniteEvaluation, match=f"^{message}$"):
        run(prob, bench.x0, bench.y0, 10)
    assert len(calls) == 4


def _with_grad_y(prob, grad_y):
    return replace(prob, f=replace(prob.f, grad_y=grad_y))


def test_plain_descent_never_writes_to_what_grad_y_returns():
    # ll_descent updates a private copy of y0 in place, never the gradient
    prob = make_sin_problem(2).problem
    x, y0 = np.zeros(1), np.array([1.0, -2.0])
    cache = np.array([0.25, -3.0])
    for gy in (lambda x, y: y, lambda x, y: cache):
        got = ll_descent(_with_grad_y(prob, gy), x, y0, 5, 0.1)
        assert got.tobytes() == fixed_step_descent(lambda y: gy(x, y), y0, 5, 0.1).tobytes()
    assert cache.tolist() == [0.25, -3.0]
    assert y0.tolist() == [1.0, -2.0]


def _sin_start(n):
    bench = make_sin_problem(n)
    return bench.problem, bench.x0, np.random.default_rng(n).uniform(-5.0, 5.0, n)


@pytest.mark.parametrize("prob,x,y0", [
    pytest.param(*_sin_start(2), id="2"),
    pytest.param(*_sin_start(1000), id="1000"),
    pytest.param(tracking_problem(m=2, n=3, seed=3)[0], np.array([0.8, -0.5]),
                 np.array([0.4, -1.1, 0.7]), id="tracking"),
])
def test_plain_descent_is_bitwise_the_written_out_loop_call_for_call(prob, x, y0):
    def logged(calls):
        def grad_y(x, y):
            calls.append(y.tobytes())
            return prob.f.grad_y(x, y)
        return grad_y

    want_calls, got_calls = [], []
    written_out = logged(want_calls)
    want = fixed_step_descent(lambda y: written_out(x, y), y0, 100, 0.01)
    got = ll_descent(_with_grad_y(prob, logged(got_calls)), x, y0, 100, 0.01)
    assert got.tobytes() == want.tobytes()
    assert got_calls == want_calls


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


# ---------------------------------------------------------------------------
# _kinds: the parameter kinds of a typed reader's target, read once
# ---------------------------------------------------------------------------

KIND_TARGETS = [SolverConfig, ScheduleState, BaselineConfig, PolynomialPenalty,
                TruncatedLogBarrier, *PROBLEM_FAMILIES.values()]


@pytest.mark.parametrize("target", KIND_TARGETS, ids=lambda t: t.__name__)
def test_kinds_equal_a_fresh_signature_reading(target):
    fresh = {p.name: p.annotation for p in inspect.signature(target).parameters.values()
             if p.annotation in ("int", "float", "bool")}
    assert fresh  # every target has typed parameters to read
    assert dict(_kinds(target)) == fresh
    assert _kinds(target) is _kinds(target)


def test_kinds_cannot_be_mutated():
    kinds = _kinds(BaselineConfig)
    with pytest.raises(TypeError):
        kinds["Q"] = "float"
    with pytest.raises(TypeError):
        del kinds["Q"]
    assert _kinds(BaselineConfig)["Q"] == "int"


def test_repeated_typed_readers_read_each_signature_once(monkeypatch):
    reads = collections.Counter()
    signature = inspect.signature

    def counting(target, *args, **kwargs):
        reads[target] += 1
        return signature(target, *args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counting)
    _kinds.cache_clear()
    bench = make_problem("sin-constrained", {"n": 2})
    cfg = {"bvfsm": {"K": 3, "aux_f": "polynomial:3", "aux_B": "truncated-log:0.5",
                     "schedule": {"mu": 0.5, "sigma2": 2.0, "sigma2_pow": 0.6}}}
    for _ in range(5):
        parse_method("cg:20", BaselineConfig())
        parse_method("trhg:5")
        make_problem("sin", {"n": 2, "a": 2.0})
        make_problem("sin-constrained", {"n": 2, "c": 1})
        build_solver_config(cfg, bench)
    targets = [SolverConfig, ScheduleState, BaselineConfig, PolynomialPenalty,
               TruncatedLogBarrier, PROBLEM_FAMILIES["sin"], PROBLEM_FAMILIES["sin-constrained"]]
    assert {t: reads[t] for t in targets} == dict.fromkeys(targets, 1)
    assert _kinds.cache_info().misses == len(targets)
