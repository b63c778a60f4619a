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
    "t_statistics",
    "p_value",
    "confidence_interval",
    "run_test",
    "rho_frontier",
    "power_lower_bound",
    "large_m_approx_power",
]

_FRONTIER_REL_TOL = 1e-4
_EPS = float(np.finfo(float).eps)


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

    ``degenerate`` marks equal control estimates (a control standard
    deviation of exactly 0): the t-statistic is then signed infinity (or 0
    when the effect is also 0) and the p-value is a limit convention rather
    than a computed tail.
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


def t_statistics(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (t, effect, s); a row holds the m controls, then the treated estimate.

    effect = treated − mean(controls); s is the controls' sample standard
    deviation (m−1 divisor).  Equal controls have s = 0 exactly, with their
    common value as the mean: t is then signed infinity, or 0 for a zero effect.
    A row whose squared deviations overflow (spreads above about 1e154) is
    computed again on its controls divided by a power of two near their
    largest |value|, so its s stays finite; every other row is left as computed.
    """
    rows = np.asarray(rows, dtype=float)
    controls = rows[:, :-1]
    m = controls.shape[1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mean, s = _mean_and_spread(controls)
        big = np.flatnonzero(~np.isfinite(s))
        if big.size:
            scale = np.ldexp(1.0, np.frexp(np.abs(controls[big]).max(axis=1))[1] - 1)
            mean_big, s_big = _mean_and_spread(controls[big] / scale[:, None])
            mean[big], s[big] = mean_big * scale, s_big * scale
        # equal controls leave s within the rounding of the m-term sum, below 2m·eps·|mean|
        near = np.flatnonzero(s <= np.abs(mean) * (2.0 * m * _EPS))
        if near.size:
            equal = near[(controls[near] == controls[near, :1]).all(axis=1)]
            s[equal], mean[equal] = 0.0, controls[equal, 0]
        effect = rows[:, -1] - mean
        t = effect / s
    t[(s == 0.0) & (effect == 0.0)] = 0.0
    return t, effect, s


def _mean_and_spread(controls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means and sample standard deviations (m−1 divisor)."""
    m = controls.shape[1]
    mean = controls.sum(axis=1) / m
    dev = controls - mean[:, None]
    return mean, np.sqrt(np.einsum("ij,ij->i", dev, dev) / (m - 1))


def t_statistic(est: ClusterEstimates) -> tuple[float, float, float]:
    """(t, effect, s) of one set of estimates: the one-row `t_statistics`."""
    t, effect, s = t_statistics(np.append(est.controls, est.treated)[None, :])
    return float(t[0]), float(effect[0]), float(s[0])


# the side a Sided tests: +1 the greater, -1 the less, 0 both
_DIRECTION = {Sided.TWO_SIDED: 0, Sided.ONE_SIDED_GREATER: 1, Sided.ONE_SIDED_LESS: -1}


def _observed(est: ClusterEstimates, spec: HeterogeneitySpec,
              sided: Sided) -> tuple[int, float, float, float]:
    """The direction ``sided`` tests, then (t, effect, s) of the estimates."""
    if not isinstance(sided, Sided):
        raise InvalidParameterError(f"sided must be a Sided, got {sided!r}")
    if spec.m != est.m:
        raise InvalidParameterError(f"spec.m={spec.m} does not match data m={est.m}")
    return (_DIRECTION[sided], *t_statistic(est))


def _p_value(m: int, t: float, spec: HeterogeneitySpec, direction: int) -> float:
    at = abs(t)
    two = 0.0 if math.isinf(at) else 1.0 if at == 0.0 else p_max(m, at, spec).value
    if direction == 0:
        return two
    return 0.5 * two if direction * t >= 0.0 else 1.0 - 0.5 * two


def _interval(effect: float, s: float, cv: float, direction: int) -> tuple[float, float]:
    """effect ± cv·s, unbounded away from a tested side; a point when s = 0."""
    if s == 0.0:
        return (effect, effect)
    return (effect - cv * s if direction >= 0 else -math.inf,
            effect + cv * s if direction <= 0 else math.inf)


def p_value(
    est: ClusterEstimates,
    spec: HeterogeneitySpec,
    sided: Sided = Sided.TWO_SIDED,
) -> float:
    """Worst-case p-value of the observed t-statistic.

    Two-sided: the worst-case tail at |t| (1 whenever |t| <= m^{-1/2}, 0 at
    infinity).  One-sided: half the two-sided value when t lies in the
    tested direction — the null distribution of the statistic is symmetric
    — and the complement of that half otherwise.
    """
    direction, t, _, _ = _observed(est, spec, sided)
    return _p_value(est.m, t, spec, direction)


def confidence_interval(
    est: ClusterEstimates,
    spec: HeterogeneitySpec,
    alpha: float,
) -> tuple[float, float]:
    """Two-sided 1−alpha interval: effect ± cv·s (a point when s = 0)."""
    _, effect, s = t_statistic(est)
    cv = critical_value(est.m, alpha, spec).cv  # validates spec and alpha even when s = 0
    return _interval(effect, s, cv, 0)


def run_test(
    est: ClusterEstimates,
    spec: HeterogeneitySpec,
    alpha: float,
    sided: Sided = Sided.TWO_SIDED,
) -> TestReport:
    """Full test at level alpha: statistic, decision, p-value, interval.

    One side uses the two-sided critical value at 2·alpha."""
    direction, t, effect, s = _observed(est, spec, sided)
    cv = (one_sided_critical_value if direction else critical_value)(est.m, alpha, spec)
    return TestReport(
        t_stat=t, effect=effect, control_sd=s, cv=cv,
        p_value=_p_value(est.m, t, spec, direction),
        ci=_interval(effect, s, cv.cv, direction),
        sided=sided,
        reject=(direction * t if direction else abs(t)) > cv.cv,
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
