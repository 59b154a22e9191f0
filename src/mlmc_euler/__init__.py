"""Multilevel Monte Carlo estimation of E f(X_T) for Euler-discretized SDEs.

The package splits into five layers: model descriptions (`models`),
keyed path simulation (`paths`), the multilevel estimator and its
sample-size planning (`estimator`), direct simulation of the normal
limit of scaled two-level errors (`limit_law`), and statistical
verification experiments plus interval arithmetic (`diagnostics`).
The `cli` module exposes all of it as the `mlmc-euler` command.
"""

from .diagnostics import (
    BerryEsseenReport,
    CltExperiment,
    CoverageReport,
    DegenerateStatisticsError,
    berry_esseen,
    bracket_expectation_check,
    bracket_time_integral_exact,
    confidence_interval,
    coverage_experiment,
    ks_statistic_one_sample,
    ks_statistic_two_sample,
    run_clt_experiment,
)
from .estimator import (
    EstimateReport,
    LevelStats,
    MlmcPlan,
    asymptotic_cost_constant,
    complexity,
    estimate,
    optimal_m_scan,
    plan_bak,
    plan_giles,
)
from .limit_law import (
    DegenerateTransportError,
    LimitSimConfig,
    estimate_limit_variance,
    limit_draws,
    projected_samples,
    two_level_error_samples,
)
from .models import (
    AnalyticReference,
    Payoff,
    SdeModel,
    black_scholes_call_reference,
    call_payoff,
    gbm_identity_reference,
    identity_payoff,
    make_gbm,
)
from .paths import (
    EulerDivergedError,
    coupled_terminals,
    normal_block,
    single_terminals,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticReference",
    "BerryEsseenReport",
    "CltExperiment",
    "CoverageReport",
    "DegenerateStatisticsError",
    "DegenerateTransportError",
    "EstimateReport",
    "EulerDivergedError",
    "LevelStats",
    "LimitSimConfig",
    "MlmcPlan",
    "Payoff",
    "SdeModel",
    "asymptotic_cost_constant",
    "berry_esseen",
    "black_scholes_call_reference",
    "bracket_expectation_check",
    "bracket_time_integral_exact",
    "call_payoff",
    "complexity",
    "confidence_interval",
    "coupled_terminals",
    "coverage_experiment",
    "estimate",
    "estimate_limit_variance",
    "gbm_identity_reference",
    "identity_payoff",
    "ks_statistic_one_sample",
    "ks_statistic_two_sample",
    "limit_draws",
    "make_gbm",
    "normal_block",
    "optimal_m_scan",
    "plan_bak",
    "plan_giles",
    "projected_samples",
    "run_clt_experiment",
    "single_terminals",
    "two_level_error_samples",
]
