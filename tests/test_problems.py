import math

import numpy as np
import pytest

from bvfsm import (
    AuxiliaryFunction,
    BilevelProblem,
    EmptyFeasibleSet,
    InvalidParameter,
    Mode,
    QuadraticPenalty,
    ScalarField,
    ScheduleState,
    brute_force_phi,
    brute_force_phi_k,
    list_problems,
    make_constrained_sin_problem,
    make_hyperclean_problem,
    make_pessimistic_sin_problem,
    make_sin_problem,
    parse_problem,
    sin_solution,
    validate_gradients,
)

PI = math.pi


# ---------------------------------------------------------------------------
# closed-form solutions
# ---------------------------------------------------------------------------


def test_sin_solution_a2():
    sol = sin_solution(2, 2.0, [2.0, 2.0])
    assert sol.k_star == 1
    assert sol.C == pytest.approx(3 * PI / 2)
    assert sol.x_star[0] == pytest.approx(-2.0 / 3.0 + PI, abs=1e-12)
    assert np.allclose(sol.y_star, 8.0 / 3.0 + PI / 2)


def test_sin_solution_a0():
    sol = sin_solution(1, 0.0, [0.0])
    assert sol.k_star == 0
    assert sol.C == pytest.approx(-PI / 2)
    assert sol.x_star[0] == pytest.approx(-PI / 4)


def test_sin_solution_tie_breaks_toward_smaller_k():
    # a = pi/4 puts 2a exactly midway between the k=0 and k=1 lattice points
    a = PI / 4
    sol = sin_solution(1, a, [0.0])
    assert sol.tie
    assert sol.k_star == 0
    sol2 = sin_solution(1, a, [0.0])
    assert sol2.k_star == sol.k_star  # deterministic


def test_make_sin_problem_reference_values():
    bench = make_sin_problem(2, 2.0, 2.0)
    C = 3 * PI / 2
    # paper's closed form evaluated independently
    F_expected = 2 * (C - 4.0) ** 2 / 3.0
    assert bench.F_star == pytest.approx(F_expected, rel=1e-12)
    assert bench.F_star == pytest.approx(0.338332, abs=1e-5)
    val = bench.problem.F(bench.x_star, bench.y_star)
    assert val == pytest.approx(bench.F_star, abs=1e-9)


def test_sin_reference_sits_on_ll_lattice():
    bench = make_sin_problem(3, 2.0, [0.5, 1.0, 2.5])
    w = bench.x_star[0] + bench.y_star - np.array([0.5, 1.0, 2.5])
    assert np.allclose(w, sin_solution(3, 2.0, 0)[3], atol=1e-12)  # all equal C
    # each coordinate attains the sin minimum on a fine grid
    ys = np.linspace(-20, 20, 200001)
    for i in range(3):
        vals = np.sin(bench.x_star[0] + ys - [0.5, 1.0, 2.5][i])
        assert math.sin(w[i]) <= vals.min() + 1e-9


def test_sin_problem_m_embedding():
    bench = make_sin_problem(2, 2.0, 2.0, m=5)
    assert bench.problem.m == 5
    x = np.full(5, bench.x_star[0])
    assert bench.problem.F(x, bench.y_star) == pytest.approx(bench.F_star, abs=1e-9)
    rep = validate_gradients(bench.problem.F, probes=4, tol=1e-5, seed=3)
    assert rep.passed


def _mean_form_sin_fields(n, a, c, pessimistic, constrained, m):
    """The sin fields written with np.mean and np.sum, as they were before the
    embedding was chosen at construction."""
    sgn = -1.0 if pessimistic else 1.0
    off = a + c if not constrained else np.full(n, a)

    def xbar(x):
        return float(np.mean(x))

    def F(x, y):
        d = y - off
        return (xbar(x) - a) ** 2 + sgn * float(d @ d)

    return {
        "F": F,
        "F.gx": lambda x, y: np.full(m, 2.0 * (xbar(x) - a) / m),
        "F.gy": lambda x, y: sgn * 2.0 * (y - off),
        "f": lambda x, y: float(np.sum(np.sin(xbar(x) + y - c))),
        "f.gx": lambda x, y: np.full(m, float(np.sum(np.cos(xbar(x) + y - c))) / m),
        "f.gy": lambda x, y: np.cos(xbar(x) + y - c),
    }


def _field_oracles(problem):
    return {"F": problem.F, "F.gx": problem.F.gx, "F.gy": problem.F.gy,
            "f": problem.f, "f.gx": problem.f.gx, "f.gy": problem.f.gy}


@pytest.mark.parametrize("family", ["optimistic", "pessimistic", "constrained"])
def test_sin_fields_m1_bitwise_equal_to_mean_form(family):
    n, a = 3, 2.0
    c = np.array([0.2, 0.9, 0.5])
    make = {"optimistic": make_sin_problem, "pessimistic": make_pessimistic_sin_problem,
            "constrained": make_constrained_sin_problem}[family]
    problem = make(n, a, c).problem
    ref = _mean_form_sin_fields(n, a, c, family == "pessimistic", family == "constrained", 1)
    rng = np.random.default_rng(11)
    probes = [(np.array([8.0]), np.full(n, 8.0)), (np.array([-0.3]), np.zeros(n))]
    probes += [(rng.uniform(-10, 10, 1), rng.uniform(-10, 10, n)) for _ in range(6)]
    for x, y in probes:
        for name, oracle in _field_oracles(problem).items():
            got, want = oracle(x, y), ref[name](x, y)
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes(), name


def test_sin_fields_m5_embed_the_mean():
    n, a, m = 2, 2.0, 5
    c = np.array([2.0, 2.0])
    problem = make_sin_problem(n, a, c, m=m).problem
    ref = _mean_form_sin_fields(n, a, c, False, False, m)
    x = np.array([3.0, -1.0, 0.5, 7.0, 2.25])  # mean 2.35, first entry 3.0
    y = np.array([0.4, -1.2])
    for name, oracle in _field_oracles(problem).items():
        assert np.asarray(oracle(x, y)).tobytes() == np.asarray(ref[name](x, y)).tobytes(), name
    first = _mean_form_sin_fields(n, a, c, False, False, m)["F"](np.full(m, x[0]), y)
    assert problem.F(x, y) != first


def test_sin_problem_n1_optimum_matches_grid_search():
    bench = make_sin_problem(1, 0.0, 0.0)
    xs = np.linspace(-3.0, 3.0, 241)
    vals = [brute_force_phi(bench.problem, [xv], y_grid=(-20, 20, 2001)) for xv in xs]
    x_best = xs[int(np.argmin(vals))]
    assert abs(x_best - (-PI / 4)) <= 0.05


def test_constrained_sin_reference():
    bench = make_constrained_sin_problem(2, 2.0, 1.0)
    assert bench.x_star[0] == pytest.approx(-2.0 / 3.0)
    assert np.allclose(bench.y_star, 2.0 / 3.0)
    assert bench.F_star == pytest.approx(32.0 / 3.0)
    # reference sits on the constraint boundary x + y_i = 0 in [0, 1]
    assert np.allclose(bench.x_star[0] + bench.y_star, 0.0, atol=1e-12)
    for h in bench.problem.ll_constraints:
        assert h(bench.x_star, bench.y_star) == pytest.approx(0.0, abs=1e-12)


def test_constrained_sin_degenerate_a0():
    bench = make_constrained_sin_problem(1, 0.0, 0.5)
    assert bench.x_star[0] == 0.0
    assert np.allclose(bench.y_star, 0.0)
    assert bench.F_star == 0.0


def test_constrained_sin_rejects_bad_c():
    with pytest.raises(InvalidParameter):
        make_constrained_sin_problem(2, 2.0, 1.5)


def test_pessimistic_shares_solution_with_optimistic():
    opt = make_sin_problem(2, 2.0, 2.0)
    pes = make_pessimistic_sin_problem(2, 2.0, 2.0)
    assert np.array_equal(opt.x_star, pes.x_star)
    assert np.array_equal(opt.y_star, pes.y_star)
    # identical LL objective
    x, y = np.array([0.3]), np.array([1.0, -2.0])
    assert opt.problem.f(x, y) == pes.problem.f(x, y)
    # F* recomputed under the sign-flipped F: (x*-2)^2 - 2 (y*-4)^2
    expected = (pes.x_star[0] - 2.0) ** 2 - 2.0 * (pes.y_star[0] - 4.0) ** 2
    assert pes.F_star == pytest.approx(expected, abs=1e-12)
    assert pes.F_star == pytest.approx(0.11278, abs=1e-4)


# ---------------------------------------------------------------------------
# gradients of every registered problem validate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bench",
    [
        make_sin_problem(2, 2.0, 2.0),
        make_sin_problem(3, 1.0, [0.1, -0.4, 2.0]),
        make_pessimistic_sin_problem(2, 2.0, 2.0),
        make_constrained_sin_problem(2, 2.0, 1.0),
        make_hyperclean_problem(seed=1, n_train=12, n_val=10, dim=2),
        make_hyperclean_problem(seed=1, n_train=8, n_val=6, dim=2, explicit_box=True),
    ],
    ids=["sin2", "sin3", "pess2", "con2", "hyperclean", "hyperclean-box"],
)
def test_problem_gradients_validate(bench):
    for fld in (bench.problem.F, bench.problem.f, *bench.problem.ul_constraints,
                *bench.problem.ll_constraints):
        rep = validate_gradients(fld, probes=4, tol=1e-5, seed=7)
        assert rep.passed, f"{fld.name}: {rep}"


# ---------------------------------------------------------------------------
# hyper-cleaning generator
# ---------------------------------------------------------------------------


def test_hyperclean_deterministic_across_runs():
    a = make_hyperclean_problem(seed=42, n_train=20, n_val=15, dim=2)
    b = make_hyperclean_problem(seed=42, n_train=20, n_val=15, dim=2)
    x = np.zeros(20)
    y = np.linspace(-0.5, 0.5, 3)
    assert a.problem.f(x, y) == b.problem.f(x, y)
    assert a.problem.F(x, y) == b.problem.F(x, y)
    assert a.params["corrupt_mask"] == b.params["corrupt_mask"]


def test_hyperclean_zero_corruption_has_empty_mask():
    bench = make_hyperclean_problem(seed=3, n_train=16, n_val=10, dim=2,
                                    corruption_rate=0.0)
    assert not any(bench.params["corrupt_mask"])


def test_hyperclean_box_variant_exposes_constraints():
    bench = make_hyperclean_problem(seed=3, n_train=10, n_val=8, dim=2,
                                    explicit_box=True)
    prob = bench.problem
    assert len(prob.ul_constraints) == 10
    x = np.full(10, 0.5)
    y = np.zeros(3)
    for H in prob.ul_constraints:
        assert H(x, y) == pytest.approx(-0.25)
    # weights enter f linearly (no sigmoid): grad_x equals per-sample losses
    gx = prob.f.gx(x, y)
    assert np.all(gx > 0)


def test_hyperclean_rejects_bad_rate():
    with pytest.raises(InvalidParameter):
        make_hyperclean_problem(corruption_rate=1.0)


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------


def field(m, n, fn, gx, gy):
    return ScalarField(m=m, n=n, fn=fn, grad_x=gx, grad_y=gy)


def test_brute_force_phi_convex_quadratic():
    # f = 0.5 (y - x)^2: S(x) = {x}; phi(x) = F(x, x) up to grid resolution
    f = field(1, 1, lambda x, y: 0.5 * (y[0] - x[0]) ** 2,
              lambda x, y: np.array([-(y[0] - x[0])]),
              lambda x, y: np.array([y[0] - x[0]]))
    F = field(1, 1, lambda x, y: (y[0] - 1.0) ** 2,
              lambda x, y: np.zeros(1), lambda x, y: np.array([2.0 * (y[0] - 1.0)]))
    prob = BilevelProblem(m=1, n=1, F=F, f=f)
    got = brute_force_phi(prob, [0.25], y_grid=(-20, 20, 2001), ll_tol=1e-4)
    assert got == pytest.approx((0.25 - 1.0) ** 2, abs=0.05)


def test_brute_force_phi_sin_matches_closed_form():
    # agreement is limited by the LL-membership tolerance (~sqrt(tol) in y)
    bench = make_sin_problem(1, 2.0, 2.0)
    got = brute_force_phi(bench.problem, bench.x_star, y_grid=(-20, 20, 4001))
    assert got == pytest.approx(bench.F_star, abs=0.05)
    tight = brute_force_phi(bench.problem, bench.x_star, y_grid=(-20, 20, 16001),
                            ll_tol=1e-5)
    assert tight == pytest.approx(bench.F_star, abs=0.02)


def test_brute_force_phi_pessimistic_picks_max():
    # f = (y^2 - 1)^2 has S = {-1, +1}; pessimistic F = y picks +1
    f = field(1, 1, lambda x, y: (y[0] ** 2 - 1.0) ** 2,
              lambda x, y: np.zeros(1),
              lambda x, y: np.array([4.0 * y[0] * (y[0] ** 2 - 1.0)]))
    F = field(1, 1, lambda x, y: y[0], lambda x, y: np.zeros(1),
              lambda x, y: np.ones(1))
    prob = BilevelProblem(m=1, n=1, F=F, f=f, mode=Mode.PESSIMISTIC)
    got = brute_force_phi(prob, [0.0], y_grid=(-3, 3, 6001), ll_tol=1e-6)
    assert got == pytest.approx(1.0, abs=1e-3)


def test_brute_force_phi_empty_feasible_set():
    f = field(1, 1, lambda x, y: y[0] ** 2, lambda x, y: np.zeros(1),
              lambda x, y: np.array([2 * y[0]]))
    F = field(1, 1, lambda x, y: y[0], lambda x, y: np.zeros(1),
              lambda x, y: np.ones(1))
    h = field(1, 1, lambda x, y: 1.0, lambda x, y: np.zeros(1),
              lambda x, y: np.zeros(1))
    prob = BilevelProblem(m=1, n=1, F=F, f=f, ll_constraints=(h,))
    with pytest.raises(EmptyFeasibleSet):
        brute_force_phi(prob, [0.0], y_grid=(-2, 2, 101))


def test_brute_force_phi_k_approaches_phi():
    bench = make_sin_problem(1, 2.0, 2.0)
    aux = AuxiliaryFunction(QuadraticPenalty())
    x = [1.8]
    phi = brute_force_phi(bench.problem, x, y_grid=(-20, 20, 4001))
    sched_late = ScheduleState(mu=1e-5, theta=1e-5, sigma1=1e-5)
    pk = brute_force_phi_k(bench.problem, x, sched_late, aux, y_grid=(-20, 20, 4001))
    assert pk == pytest.approx(phi, abs=0.05)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_names_and_parsing():
    assert set(list_problems()) == {"sin", "sin-constrained", "sin-pessimistic", "hyperclean"}
    b = parse_problem("sin:n=2,a=2,c=2")
    assert b.name == "sin" and b.problem.n == 2
    b = parse_problem("sin-pessimistic:n=2")
    assert b.problem.mode is Mode.PESSIMISTIC
    b = parse_problem("hyperclean:seed=5,n_train=10,n_val=10,dim=2")
    assert b.problem.m == 10
    with pytest.raises(InvalidParameter):
        parse_problem("mnist")
