"""Random Riccati iteration under Bernoulli observation arrivals.

The package computes exact decay exponents of rare covariance events by word
enumeration, exact finite-horizon laws of the iteration, analytic tail
bounds, and seeded Monte-Carlo estimates that verify the predicted power-law
decay in (1 - arrival rate).
"""

from .linalg import (
    DEFAULT_ORDER_TOL,
    SymMatrix,
    SystemModel,
    ValidationCheck,
    ValidationReport,
    as_sym,
    loewner_leq,
    observability_rank,
    spectral_norm,
    validate_system,
)
from .operators import (
    DareSolution,
    lyapunov_step,
    random_psd,
    riccati_step,
    solve_dare,
    uniform_bound_kappa,
)
from .strings import (
    GammaString,
    StringValue,
    eval_string,
    format_run_length,
    invariant_upper_scale,
    string_upper_bound,
    value_key,
)
from .rate import (
    Atom,
    ClassAReport,
    EventPredicate,
    FiniteDimDistribution,
    VariationalSolution,
    finite_dim_exact,
    iota,
    iota_plus,
    is_class_A,
    poly_probability,
    rate_over_set,
)
from .montecarlo import (
    EmpiricalDistribution,
    ExceedanceReport,
    ExponentFit,
    SimulationConfig,
    TailBound,
    Trajectory,
    decay_exponent_fit,
    event_probability,
    exceedance_sup,
    prohorov_distance_scalar,
    sample_invariant,
    simulate_rre,
    tail_bound,
)
from .models import planar_model, scalar_study_model

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORDER_TOL",
    "SymMatrix",
    "SystemModel",
    "ValidationCheck",
    "ValidationReport",
    "as_sym",
    "loewner_leq",
    "observability_rank",
    "spectral_norm",
    "validate_system",
    "DareSolution",
    "lyapunov_step",
    "random_psd",
    "riccati_step",
    "solve_dare",
    "uniform_bound_kappa",
    "GammaString",
    "StringValue",
    "eval_string",
    "format_run_length",
    "invariant_upper_scale",
    "string_upper_bound",
    "value_key",
    "Atom",
    "ClassAReport",
    "EventPredicate",
    "FiniteDimDistribution",
    "VariationalSolution",
    "finite_dim_exact",
    "iota",
    "iota_plus",
    "is_class_A",
    "poly_probability",
    "rate_over_set",
    "EmpiricalDistribution",
    "ExceedanceReport",
    "ExponentFit",
    "SimulationConfig",
    "TailBound",
    "Trajectory",
    "decay_exponent_fit",
    "event_probability",
    "exceedance_sup",
    "prohorov_distance_scalar",
    "sample_invariant",
    "simulate_rre",
    "tail_bound",
    "planar_model",
    "scalar_study_model",
]
