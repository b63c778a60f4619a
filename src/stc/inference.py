"""User-facing inference: t-statistic, p-values, intervals, frontiers, power.

Everything here consumes per-cluster effect estimates (m controls plus one
treated) and the relative-heterogeneity restriction.  The t-statistic
standardizes by the sample standard deviation of the *control* estimates;
its worst-case null tail over the feasible variance configurations
(`worstcase.p_max`) supplies p-values, and its inversion
(`critical_values.critical_value`) supplies tests and intervals.

The rho frontier inverts in the other direction: for each k it reports the
heterogeneity bound at which a rejection at level alpha would break down.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .critical_values import (CriticalValueResult, _certified_first_true, critical_value,
                              one_sided_critical_value)
from .distributions import normal_cdf, normal_quantile
from .errors import InvalidParameterError, NumericalFailureError, as_integer
from .worstcase import HeterogeneitySpec, _branch_value, p_max

__all__ = [
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
]

_FRONTIER_REL_TOL = 1e-4


@dataclass(frozen=True)
class ClusterEstimates:
    """Per-cluster effect estimates: m controls and one treated."""

    controls: np.ndarray
    treated: float

    def __post_init__(self):
        controls = np.asarray(self.controls, dtype=float)
        if controls.ndim != 1 or controls.size < 2:
            raise InvalidParameterError(
                f"need at least 2 control estimates, got shape {controls.shape}"
            )
        if not np.all(np.isfinite(controls)):
            raise InvalidParameterError("control estimates must be finite")
        treated = float(self.treated)
        if not math.isfinite(treated):
            raise InvalidParameterError(f"treated estimate must be finite, got {treated!r}")
        controls = controls.copy()
        controls.flags.writeable = False
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "treated", treated)

    @property
    def m(self) -> int:
        return self.controls.size


class Sided(enum.Enum):
    """Alternative hypothesis direction."""

    TWO_SIDED = "TwoSided"
    ONE_SIDED_GREATER = "OneSidedGreater"
    ONE_SIDED_LESS = "OneSidedLess"


@dataclass(frozen=True)
class TestReport:
    """Complete outcome of one worst-case t-test.

    ``degenerate`` marks a zero control standard deviation: the t-statistic
    is then signed infinity (or 0 when the effect is also 0) and the p-value
    is a limit convention rather than a computed tail.
    """

    t_stat: float
    effect: float
    control_sd: float
    cv: CriticalValueResult
    p_value: float
    ci: tuple[float, float]
    sided: Sided
    reject: bool
    degenerate: bool = False


@dataclass(frozen=True)
class RhoFrontier:
    """Breakdown heterogeneity bounds rho_hat for every k = 1..m.

    bounds[k-1] is the largest relative-heterogeneity level at which a
    rejection at ``alpha`` survives: the test rejects for all rho below it.
    0 means the test cannot reject even with a zero treated variance
    (reported as NA by the CLI); inf means it rejects at every finite rho.
    """

    alpha: float
    bounds: tuple[float, ...]


def t_statistic(est: ClusterEstimates) -> tuple[float, float, float]:
    """(t, effect, s): effect over the control sample standard deviation.

    effect = treated − mean(controls); s uses the m−1 divisor.  A zero s
    yields signed infinity (or 0 for a zero effect) rather than an error.
    """
    effect = est.treated - float(np.mean(est.controls))
    s = float(np.std(est.controls, ddof=1))
    if s == 0.0:
        t = 0.0 if effect == 0.0 else math.copysign(math.inf, effect)
    else:
        t = effect / s
    return t, effect, s


def _p_two_sided(m: int, abs_t: float, spec: HeterogeneitySpec) -> float:
    if math.isinf(abs_t):
        return 0.0  # limit of p_max as the threshold grows
    if abs_t == 0.0:
        return 1.0
    return p_max(m, abs_t, spec).value


def p_value(
    est: ClusterEstimates,
    spec: HeterogeneitySpec,
    sided: Sided = Sided.TWO_SIDED,
) -> float:
    """Worst-case p-value of the observed t-statistic.

    Two-sided: the worst-case tail at |t| (1 whenever |t| <= m^{-1/2}).
    One-sided: half the two-sided value when t lies in the tested
    direction — the null distribution of the statistic is symmetric — and
    the complement of that half otherwise.
    """
    if spec.m != est.m:
        raise InvalidParameterError(f"spec.m={spec.m} does not match data m={est.m}")
    t, _, _ = t_statistic(est)
    two = _p_two_sided(est.m, abs(t), spec)
    if sided is Sided.TWO_SIDED:
        return two
    toward = t >= 0.0 if sided is Sided.ONE_SIDED_GREATER else t <= 0.0
    return 0.5 * two if toward else 1.0 - 0.5 * two


def confidence_interval(
    est: ClusterEstimates,
    spec: HeterogeneitySpec,
    alpha: float,
) -> tuple[float, float]:
    """Two-sided 1−alpha interval: effect ± cv·s (a point when s = 0)."""
    _, effect, s = t_statistic(est)
    cv = critical_value(est.m, alpha, spec).cv  # validates spec and alpha even when s = 0
    if s == 0.0:
        return (effect, effect)
    return (effect - cv * s, effect + cv * s)


def run_test(
    est: ClusterEstimates,
    spec: HeterogeneitySpec,
    alpha: float,
    sided: Sided = Sided.TWO_SIDED,
) -> TestReport:
    """Full test at level alpha: statistic, decision, p-value, interval."""
    if spec.m != est.m:
        raise InvalidParameterError(f"spec.m={spec.m} does not match data m={est.m}")
    t, effect, s = t_statistic(est)
    if sided is Sided.TWO_SIDED:
        cv = critical_value(est.m, alpha, spec)
        reject = abs(t) > cv.cv
    else:
        cv = one_sided_critical_value(est.m, alpha, spec)
        reject = t > cv.cv if sided is Sided.ONE_SIDED_GREATER else t < -cv.cv
    if s == 0.0:
        ci = (effect, effect)
    elif sided is Sided.TWO_SIDED:
        ci = (effect - cv.cv * s, effect + cv.cv * s)
    elif sided is Sided.ONE_SIDED_GREATER:
        ci = (effect - cv.cv * s, math.inf)
    else:
        ci = (-math.inf, effect + cv.cv * s)
    return TestReport(
        t_stat=t,
        effect=effect,
        control_sd=s,
        cv=cv,
        p_value=p_value(est, spec, sided),
        ci=ci,
        sided=sided,
        reject=reject,
        degenerate=s == 0.0,
    )


def rho_frontier(est: ClusterEstimates, alpha: float) -> RhoFrontier:
    """Breakdown bound rho_hat_k = inf{rho >= 0 : worst-case p > alpha}, all k.

    `critical_values._certified_first_true` inverts in rho (the worst-case
    tail is nondecreasing in rho) from rho = 0, relative tolerance 1e-4,
    from the warm-start branch (m-k+1, k-1); each k's search starts its
    upper end at the previous k's bound, and the output is clipped to it,
    which enforces the nonincreasing-in-k shape.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    m = est.m
    t, _, _ = t_statistic(est)
    at = abs(t)
    if math.isinf(at):
        return RhoFrontier(alpha=alpha, bounds=(math.inf,) * m)
    if _branch_value(m, at, HeterogeneitySpec(m, 1, 0.0), None) > alpha:
        # not significant even with a zero treated variance (p_max at rho = 0)
        return RhoFrontier(alpha=alpha, bounds=(0.0,) * m)

    bounds: list[float] = []
    prev = math.inf
    for k in range(1, m + 1):
        hi = prev if math.isfinite(prev) else 1.0  # every bound is > 0
        found = _certified_first_true(
            lambda rho: p_max(m, at, HeterogeneitySpec(m, k, rho), stop_above=alpha),
            lambda rho, branch: _branch_value(m, at, HeterogeneitySpec(m, k, rho), branch),
            (m - k + 1, k - 1), alpha, True, 0.0, hi, rel_tol=_FRONTIER_REL_TOL)
        if found is None:  # pragma: no cover - a large enough rho always pushes p to 1
            raise NumericalFailureError(f"no rho found with worst-case p > {alpha} at k={k}")
        prev = min(found[1], prev)
        bounds.append(prev)
    return RhoFrontier(alpha=alpha, bounds=tuple(bounds))


def power_lower_bound(delta: float, sigmas, c: float) -> float:
    """Guaranteed lower bound on rejection probability at effect size delta.

    ``sigmas`` holds the m control SDs followed by the treated SD.  The
    bound is 1 − (1/delta²)·[sigma²_treated + (2(c²+1/m)/m)·sum of control
    variances], clamped below at 0.
    """
    delta = float(delta)
    if not math.isfinite(delta) or delta <= 0:
        raise InvalidParameterError(f"delta must be finite and > 0, got {delta!r}")
    sig = np.asarray(sigmas, dtype=float)
    if sig.ndim != 1 or sig.size < 3:
        raise InvalidParameterError(
            f"sigmas must hold m >= 2 control SDs plus the treated SD, got shape {sig.shape}"
        )
    if not np.all(np.isfinite(sig)) or np.any(sig < 0):
        raise InvalidParameterError("sigmas must be finite and nonnegative")
    m = sig.size - 1
    c = float(c)
    if not math.isfinite(c) or c <= 0:
        raise InvalidParameterError(f"threshold c must be finite and > 0, got {c!r}")
    treated_var = sig[-1] ** 2
    control_ss = float(np.sum(sig[:-1] ** 2))
    bound = 1.0 - (treated_var + (2.0 * (c * c + 1.0 / m) / m) * control_ss) / delta**2
    return max(bound, 0.0)


def large_m_approx_power(
    delta: float,
    sigma_treated: float,
    sigmas_control,
    m: int,
    k: int,
    rho: float,
    alpha: float,
) -> float:
    """Normal-approximation power for many clusters (two-sided).

    Approximates P[|sigma_treated·eps + delta| > threshold] with eps
    standard normal and threshold sqrt(m rho² / (m−k+1)) · z_{alpha/2} ·
    sqrt(mean control variance) — the large-m critical value under the most
    adverse feasible configuration.  A guide for planning, not a guarantee.
    """
    m, k = as_integer("m", m), as_integer("k", k)
    if m < 2 or not 1 <= k <= m:
        raise InvalidParameterError(f"need m >= 2 and 1 <= k <= m, got m={m}, k={k}")
    sigma_treated = float(sigma_treated)
    if not math.isfinite(sigma_treated) or sigma_treated <= 0:
        raise InvalidParameterError(
            f"sigma_treated must be finite and > 0, got {sigma_treated!r}"
        )
    sig = np.asarray(sigmas_control, dtype=float)
    if sig.shape != (m,):
        raise InvalidParameterError(f"sigmas_control must have shape ({m},), got {sig.shape}")
    if not np.all(np.isfinite(sig)) or np.any(sig < 0):
        raise InvalidParameterError("sigmas_control must be finite and nonnegative")
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0:
        raise InvalidParameterError(f"rho must be finite and > 0, got {rho!r}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    z = float(normal_quantile(1.0 - alpha / 2.0))
    avg_control_var = float(np.mean(sig**2))
    threshold = math.sqrt(m * rho * rho / (m - k + 1.0) * avg_control_var) * z
    upper = 1.0 - float(normal_cdf((threshold - delta) / sigma_treated))
    lower = float(normal_cdf((-threshold - delta) / sigma_treated))
    return upper + lower
