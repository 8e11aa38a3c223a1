import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvfsm import (
    AuxiliaryFunction,
    BarrierWall,
    InvalidParameter,
    InverseBarrier,
    PolynomialPenalty,
    QuadraticPenalty,
    ScheduleState,
    StaticShift,
    TruncatedLogBarrier,
    parse_aux,
    schedule_step,
    truncated_log_coeffs,
)


def shift(aux, sched):
    """The wall shift of a modified member, applied by hand."""
    return sched.sigma2.value if aux.modified else 0.0


def test_quadratic_penalty_values():
    rho = QuadraticPenalty().rho
    assert rho(2.0, 0.5) == pytest.approx(4.0)
    assert rho(-1.0, 1.0) == 0.0
    assert rho(-1.0, 0.5) == 0.0


def test_inverse_barrier_values():
    rho = InverseBarrier().rho
    assert rho(-2.0, 1.0) == pytest.approx(0.5)
    assert rho(0.1, 1.0) == math.inf
    assert rho(0.0, 1.0) == math.inf


def test_truncated_log_normalized_at_minus_kappa():
    rho = TruncatedLogBarrier(1.0).rho
    assert rho(-1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert rho(0.5, 1.0) == math.inf


def test_aux_deriv_values():
    assert QuadraticPenalty().drho(2.0, 0.5) == pytest.approx(4.0)
    assert PolynomialPenalty(3).drho(2.0, 1.0) == pytest.approx(4.0)
    assert InverseBarrier().drho(-2.0, 1.0) == pytest.approx(0.25)


def test_aux_deriv_at_wall_raises():
    with pytest.raises(BarrierWall):
        InverseBarrier().drho(0.0, 1.0)
    with pytest.raises(BarrierWall):
        TruncatedLogBarrier(1.0).drho(0.3, 1.0)


def test_polynomial_penalty_needs_q_at_least_two():
    with pytest.raises(InvalidParameter):
        PolynomialPenalty(1)


def test_modified_wrapper_rejects_penalties():
    with pytest.raises(InvalidParameter):
        AuxiliaryFunction(QuadraticPenalty(), modified=True)


# ---------------------------------------------------------------------------
# truncated-log coefficients
# ---------------------------------------------------------------------------


def test_truncated_log_beta1():
    assert truncated_log_coeffs(1.0)[0] == pytest.approx(0.0)
    assert truncated_log_coeffs(0.5)[0] == pytest.approx(math.log(2.0))


def test_truncated_log_coeffs_domain():
    with pytest.raises(InvalidParameter):
        truncated_log_coeffs(0.0)
    with pytest.raises(InvalidParameter):
        truncated_log_coeffs(1.5)


@pytest.mark.parametrize("kappa", [0.3, 0.1])
def test_truncated_log_coeffs_closed_form(kappa):
    assert truncated_log_coeffs(kappa)[1:] == (1.5, 0.5 * kappa * kappa, 2.0 * kappa)


def test_truncated_log_betas_follow_kappa():
    assert TruncatedLogBarrier(0.3).betas == truncated_log_coeffs(0.3)
    with pytest.raises(TypeError):
        TruncatedLogBarrier(0.3, betas=truncated_log_coeffs(0.5))


@pytest.mark.parametrize("kappa", [1.0, 0.5, 0.25])
def test_truncated_log_c2_continuity_at_knot(kappa):
    # independent oracle: one-sided finite differences across w = -kappa
    # (second-order stencils keep the truncation error below the 1e-4 bar)
    kind = TruncatedLogBarrier(kappa)
    d = 1e-4 * kappa
    w = -kappa

    def val(u):
        return kind.rho(u, 0.7)

    # one-sided linear extrapolations of each branch to the knot itself
    v_left = 2 * val(w - d) - val(w - 2 * d)
    v_right = 2 * val(w + d) - val(w + 2 * d)
    assert abs(v_left - v_right) <= 1e-4
    d1_left = (3 * val(w) - 4 * val(w - d) + val(w - 2 * d)) / (2 * d)
    d1_right = (-3 * val(w) + 4 * val(w + d) - val(w + 2 * d)) / (2 * d)
    assert abs(d1_left - d1_right) <= 1e-4
    d2_left = (2 * val(w) - 5 * val(w - d) + 4 * val(w - 2 * d) - val(w - 3 * d)) / d**2
    d2_right = (2 * val(w) - 5 * val(w + d) + 4 * val(w + 2 * d) - val(w + 3 * d)) / d**2
    assert abs(d2_left - d2_right) <= 1e-4


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_step_geometric():
    s = ScheduleState(mu=1.0, theta=1.0, sigma1=1.0, decay=1.0 / 1.01)
    s1 = schedule_step(s)
    assert s1.mu == pytest.approx(1.0 / 1.01)
    assert s1.theta == pytest.approx(1.0 / 1.01)
    assert s1.sigma1 == pytest.approx(1.0 / 1.01)


def test_schedule_step_frozen_when_decay_one():
    s = ScheduleState(decay=1.0)
    s1 = schedule_step(s)
    assert (s1.mu, s1.theta, s1.sigma1) == (1.0, 1.0, 1.0)


def test_schedule_hundred_steps():
    # independent computation of the decayed value
    expect = math.exp(-100.0 * math.log(1.01))
    s = ScheduleState(decay=1.0 / 1.01)
    for _ in range(100):
        s = schedule_step(s)
    assert s.mu == pytest.approx(expect, rel=1e-12)
    assert s.sigma1 == pytest.approx(expect, rel=1e-12)
    assert abs(s.mu - 0.3697) < 1e-3


def test_schedule_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        ScheduleState(mu=0.0)


def test_static_shift_moves_wall():
    aux = AuxiliaryFunction(InverseBarrier(), modified=True)
    sched = ScheduleState(sigma2=StaticShift(2.0))
    assert aux.kind.rho(1.0 - shift(aux, sched), sched.sigma1) == pytest.approx(1.0)  # -1/(1-2)
    assert aux.kind.rho(2.0 - shift(aux, sched), sched.sigma1) == math.inf


# ---------------------------------------------------------------------------
# catalog-wide properties
# ---------------------------------------------------------------------------

MEMBERS = [
    AuxiliaryFunction(QuadraticPenalty()),
    AuxiliaryFunction(PolynomialPenalty(2)),
    AuxiliaryFunction(PolynomialPenalty(3)),
    AuxiliaryFunction(InverseBarrier()),
    AuxiliaryFunction(TruncatedLogBarrier(1.0)),
    AuxiliaryFunction(TruncatedLogBarrier(0.5)),
    AuxiliaryFunction(InverseBarrier(), modified=True),
    AuxiliaryFunction(TruncatedLogBarrier(1.0), modified=True),
]


@pytest.mark.parametrize("aux", MEMBERS, ids=lambda a: f"{type(a.kind).__name__}{'+mod' if a.modified else ''}")
@given(w1=st.floats(-8.0, 4.0, allow_nan=False), dw=st.floats(1e-6, 4.0, allow_nan=False),
       sigma=st.floats(0.05, 2.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_nondecreasing_in_omega(aux, w1, dw, sigma):
    sh = 0.7 if aux.modified else 0.0
    v1 = aux.kind.rho(w1 - sh, sigma)
    v2 = aux.kind.rho(w1 + dw - sh, sigma)
    assert v2 >= v1 - 1e-12


@pytest.mark.parametrize("aux", MEMBERS[:4], ids=["quad", "poly2", "poly3", "inverse"])
@given(w=st.floats(-8.0, 4.0, allow_nan=False), sigma=st.floats(0.05, 2.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_nonnegative_where_finite(aux, w, sigma):
    assert aux.kind.rho(w, sigma) >= 0.0


@given(w=st.floats(-0.999, -1e-3, allow_nan=False), sigma=st.floats(0.05, 2.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_truncated_log_nonnegative_on_log_branch(w, sigma):
    # the b1 = -log(kappa) normalization guarantees rho >= 0 on [-kappa, 0)
    assert TruncatedLogBarrier(1.0).rho(w, sigma) >= 0.0


@pytest.mark.parametrize("aux", MEMBERS, ids=lambda a: f"{type(a.kind).__name__}{'+mod' if a.modified else ''}")
def test_deriv_matches_finite_difference(aux):
    sh, s = (0.6 if aux.modified else 0.0), 0.8
    # interior probe points away from walls and kinks
    probes = [-3.0, -1.7, -0.45, -0.12]
    if not aux.is_barrier:
        probes += [0.4, 1.3, 2.2]
    if aux.modified:
        probes = [w + 0.6 for w in probes]  # keep the same effective arguments
    d = 1e-6
    for w in probes:
        num = (aux.kind.rho(w + d - sh, s) - aux.kind.rho(w - d - sh, s)) / (2 * d)
        ana = aux.kind.drho(w - sh, s)
        if ana == 0.0:
            assert abs(num) <= 1e-9
        else:
            assert abs(num - ana) / abs(ana) <= 1e-6


def _schedule_sequence(aux, steps=200):
    sched = ScheduleState(decay=0.97, sigma2=StaticShift(1.0, 0.97**0.5))
    out = [sched]
    for _ in range(steps):
        sched = schedule_step(sched)
        out.append(sched)
    return out


@pytest.mark.parametrize("aux", MEMBERS, ids=lambda a: f"{type(a.kind).__name__}{'+mod' if a.modified else ''}")
def test_vanishing_on_feasible_side_along_schedule(aux):
    # Feasible-side values must die out as the schedule decays.
    scheds = _schedule_sequence(aux)
    vals = [abs(aux.kind.rho(-0.5 - shift(aux, s), s.sigma1)) for s in scheds]
    assert math.isfinite(vals[0])
    if vals[0] > 0:
        assert vals[-1] <= 1e-2 * vals[0]
    # monotone trend on the final quarter, after any branch crossings
    tail = vals[150:]
    assert all(b <= a + 1e-15 for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize(
    "aux",
    [m for m in MEMBERS if not m.is_barrier or m.modified],
    ids=lambda a: f"{type(a.kind).__name__}{'+mod' if a.modified else ''}",
)
def test_divergence_on_infeasible_side_along_schedule(aux):
    # Penalties (and modified barriers, whose wall closes in) must blow up at
    # a strictly infeasible point; standard barriers are already infinite.
    scheds = _schedule_sequence(aux)
    v0, v_end = (aux.kind.rho(0.1 - shift(aux, s), s.sigma1) for s in (scheds[0], scheds[-1]))
    assert math.isfinite(v0)
    assert v_end >= 10.0 * v0


def test_parse_aux_names():
    assert isinstance(parse_aux("quadratic").kind, QuadraticPenalty)
    assert parse_aux("polynomial:4").kind.q == 4
    assert isinstance(parse_aux("inverse").kind, InverseBarrier)
    tl = parse_aux("truncated-log:0.5")
    assert isinstance(tl.kind, TruncatedLogBarrier) and tl.kind.kappa == 0.5
    assert parse_aux({"name": "inverse", "modified": True}).modified
    for name in ("log-cabin", "truncated_log:0.5", "tlog"):
        with pytest.raises(InvalidParameter):
            parse_aux(name)
