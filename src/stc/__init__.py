"""Valid t-test inference with one treated cluster and m control clusters.

The test compares the treated cluster's effect estimate against the mean
and sample standard deviation of the control estimates, and calibrates the
critical value against the worst-case rejection probability over every
variance configuration allowed by a relative-heterogeneity restriction
(the treated standard deviation is at most ``rho`` times the k-th smallest
control standard deviation).

Layered API, lowest to highest:

  * distributions — Student-t and normal tails/quantiles.
  * charpoly — the integral's endpoint root for a ratio configuration.
  * rejection — exact null rejection probability for fixed ratios.
  * worstcase — the maximum over all allowed configurations (`p_max`).
  * critical_values — inversion to critical values, validity thresholds,
    and publication-style grids.
  * inference — t statistics, p-values, confidence intervals, breakdown
    frontiers, and power approximations.
  * designs — per-cluster effect extraction from panel data.
  * simulate — seeded Monte Carlo size/power verification.
  * cli — the ``stc`` command-line tool.
"""
from .charpoly import GammaConfig, NegativeRoot, negative_root
from .critical_values import (
    CriticalValueResult,
    Table,
    TableCell,
    alpha_underline,
    c_underline,
    critical_value,
    generate_table,
    one_sided_critical_value,
    round3,
)
from .designs import DesignKind, Extraction, PanelData, extract
from .errors import (
    BracketSignError,
    DataFormatError,
    DesignViolationError,
    InvalidParameterError,
    NoValidCriticalValueError,
    NumericalFailureError,
    RankDeficiencyError,
    StcError,
)
from .inference import (
    ClusterEstimates,
    RhoFrontier,
    Sided,
    TestReport,
    confidence_interval,
    large_m_approx_power,
    p_value,
    power_lower_bound,
    rho_frontier,
    run_test,
    t_statistic,
)
from .rejection import DEFAULT_SETTINGS, QuadratureSettings, rejection_probability
from .simulate import (
    MCConfig,
    MCResult,
    NormalMeansDesign,
    TwfeDesign,
    empirical_rejection_rate,
)
from .simulate import run as run_monte_carlo
from .worstcase import (
    Boundary,
    HeterogeneitySpec,
    WorstCaseResult,
    ZeroTreated,
    h_bar,
    p_max,
    p_zero_treated,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "StcError",
    "InvalidParameterError",
    "BracketSignError",
    "NumericalFailureError",
    "NoValidCriticalValueError",
    "DesignViolationError",
    "RankDeficiencyError",
    "DataFormatError",
    # rejection probability stack
    "GammaConfig",
    "NegativeRoot",
    "negative_root",
    "QuadratureSettings",
    "DEFAULT_SETTINGS",
    "rejection_probability",
    "HeterogeneitySpec",
    "WorstCaseResult",
    "Boundary",
    "ZeroTreated",
    "p_max",
    "p_zero_treated",
    # critical values
    "CriticalValueResult",
    "critical_value",
    "one_sided_critical_value",
    "alpha_underline",
    "c_underline",
    "h_bar",
    "generate_table",
    "Table",
    "TableCell",
    "round3",
    # inference
    "ClusterEstimates",
    "Sided",
    "TestReport",
    "RhoFrontier",
    "t_statistic",
    "p_value",
    "confidence_interval",
    "run_test",
    "rho_frontier",
    "power_lower_bound",
    "large_m_approx_power",
    # designs
    "PanelData",
    "DesignKind",
    "Extraction",
    "extract",
    # simulation
    "NormalMeansDesign",
    "TwfeDesign",
    "MCConfig",
    "MCResult",
    "run_monte_carlo",
    "empirical_rejection_rate",
]
