"""Bi-level value-function-based sequential minimization: solver, baselines,
benchmark problems and an experiment harness."""

__version__ = "0.1.0"

from .auxfun import (
    AuxiliaryFunction,
    BarrierWall,
    InverseBarrier,
    PolynomialPenalty,
    QuadraticPenalty,
    ScheduleState,
    TruncatedLogBarrier,
    parse_aux,
    schedule_step,
    truncated_log_coeffs,
)
from .baselines import (
    BaselineConfig,
    bda_hypergradient,
    cg_hypergradient,
    ll_descent,
    neumann_hypergradient,
    parse_method,
    rhg_hypergradient,
    trhg_hypergradient,
)
from .core import (
    BilevelProblem,
    DimensionMismatch,
    FeasibleSet,
    InvalidParameter,
    Mode,
    NonFiniteEvaluation,
    ScalarField,
    fd_gradient,
    hvp,
    project,
    validate_gradients,
)
from .problems import (
    BenchmarkProblem,
    list_problems,
    make_constrained_sin_problem,
    make_hyperclean_problem,
    make_pessimistic_sin_problem,
    make_sin_problem,
    parse_problem,
    sin_solution,
)
from .solver import (
    InnerState,
    Reference,
    SolveError,
    SolveTimeout,
    SolveTrace,
    SolverConfig,
    TraceRecord,
    solve,
    solve_inner,
    solve_penalized_inner,
    solve_regularized_ll,
    ul_gradient_for,
)
