"""Characteristic function g_c and its unique negative root.

For a configuration of variance ratios gamma_j = sigma_j / sigma_{m+1} and a
threshold c, the null rejection probability is a singular integral whose
upper endpoint is t = |theta_{m+1}|, where theta_{m+1} is the unique
negative root of the characteristic function

    g_c(theta) = -(m + theta) * prod_i (kappa*gamma_i^2 - theta)
                 + (kappa + (kappa+1)/m * theta)
                   * sum_i gamma_i^2 * prod_{j != i} (kappa*gamma_j^2 - theta)

with kappa = m c^2 / (m - 1).  Rather than locating the root of this
(m+1)-degree polynomial directly, the root is found from the equivalent
monotone constraint

    sum_i (1 + tau*x_i) / (x_i + t) = 1,      x_i = kappa*gamma_i^2,
    tau = (kappa + 1) / (m*kappa),

whose left side is strictly decreasing in t, so the root is unique and
bracketed by [m, m + max_i gamma_i^2].  Over distinct values x_j with
counts n_j it reads sum_j n_j (1 + tau*x_j)/(x_j + t) = 1.  One batched
solver, `_roots_batch`, solves it for every row of a batch; the tail kernel
calls it directly and `negative_root` calls it on a one-row batch (every
count 1) to certify a single root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BracketSignError, InvalidParameterError, NumericalFailureError

__all__ = [
    "GammaConfig",
    "NegativeRoot",
    "negative_root",
    "theta_lower_bound",
]


@dataclass(frozen=True)
class GammaConfig:
    """Variance-ratio configuration (gamma_1..gamma_m) with threshold c.

    Attributes:
        gammas: m nonnegative ratios sigma_j / sigma_{m+1}; at least one
            must be positive (an all-zero configuration makes the
            t-statistic degenerate and is rejected here).
        c: positive rejection threshold.
    """

    gammas: np.ndarray
    c: float

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gammas, dtype=np.float64)).copy()
        if g.ndim != 1 or g.size < 2:
            raise InvalidParameterError(f"need at least 2 ratios, got shape {g.shape}")
        if np.any(~np.isfinite(g)) or np.any(g < 0):
            raise InvalidParameterError("ratios must be finite and >= 0")
        if not np.any(g > 0):
            raise InvalidParameterError(
                "all-zero ratio configuration is degenerate (zero control variances)"
            )
        c = float(self.c)
        if not math.isfinite(c) or c <= 0:
            raise InvalidParameterError(f"threshold c must be finite and > 0, got {self.c!r}")
        g.flags.writeable = False
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        """Number of control clusters."""
        return int(self.gammas.size)

    @cached_property
    def kappa(self) -> float:
        """kappa = m c^2 / (m - 1)."""
        return self.m * self.c**2 / (self.m - 1)

    @cached_property
    def tau(self) -> float:
        """tau = (kappa + 1) / (m * kappa)."""
        return (self.kappa + 1.0) / (self.m * self.kappa)

    @cached_property
    def x(self) -> np.ndarray:
        """x_i = kappa * gamma_i^2 (read-only)."""
        x = self.kappa * self.gammas**2
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class NegativeRoot:
    """Certified absolute value of the unique negative root.

    Attributes:
        abs_value: t = |theta_{m+1}|.
        bracket_low: certified lower bound (= m).
        bracket_high: certified upper bound (= m + max gamma_i^2 + eps).
        residual: value of the monotone constraint minus one at t.
    """

    abs_value: float
    bracket_low: float
    bracket_high: float
    residual: float


def _root_bracket(x: np.ndarray, n: np.ndarray, tau: float, m: int) -> tuple[np.ndarray, ...]:
    """Certified bracket [m, m + max gamma^2 + eps] for each row of x.

    max gamma^2 = max x / kappa over groups with n_j > 0; kappa = 1/(m*tau - 1).
    NumericalFailureError where m*tau rounds to 1 (c above about 1e8 at m = 4).
    """
    if m * tau - 1.0 <= 0.0:
        raise NumericalFailureError(f"threshold too large: m*tau - 1 rounds to 0 at m={m}")
    kappa = 1.0 / (m * tau - 1.0)
    top = np.max(np.where(n > 0, x, 0.0), axis=1) / kappa
    return np.full(x.shape[0], float(m)), float(m) + top + 1e-8 * (1.0 + top)


def _constraint_minus_one(t: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j/(x_j + t) - 1 per row, w = n*(1 + tau*x); strictly decreasing in t > 0."""
    return np.add.reduce(w / (x + t[:, None]), axis=1) - 1.0


def _roots_batch(x: np.ndarray, n: np.ndarray, tau: float, m: int) -> np.ndarray:
    """Vectorized |theta_{m+1}| for rows of grouped values x with counts n: the
    root of F(t) = sum_j w_j/(x_j + t) = 1, w_j = n_j (1 + tau*x_j).

    Eight rounds of geometric bisection (sqrt(lo)*sqrt(hi): no overflow) on
    the certified bracket, then five Newton steps from its lower end on
    H = 1/F, each t += F(F - 1)/sum_j w_j/(x_j + t)^2.  H, the parallel sum of
    the maps (x_j + t)/w_j, is concave and increasing, so the iterates rise
    to the root without overshooting (in one step if one group dominates).  t is
    resolved to within the constraint's float rounding, a relative r = 16 eps
    / (t |f'(t)|): above machine precision where c is near m^{-1/2} and the
    ratios span many orders of magnitude.
    """
    lo, hi = _root_bracket(x, n, tau, m)
    w = n * (1.0 + tau * x)
    for _ in range(8):
        mid = np.sqrt(lo) * np.sqrt(hi)
        take_lo = _constraint_minus_one(mid, x, w) > 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    t = lo
    for _ in range(5):
        xt = x + t[:, None]
        r = w / xt
        f = np.add.reduce(r, axis=1)
        t = np.minimum(t + f * (f - 1.0) / np.add.reduce(r / xt, axis=1), hi)
    return t


def negative_root(cfg: GammaConfig) -> NegativeRoot:
    """Locate t = |theta_{m+1}| on its certified bracket.

    Raises:
        BracketSignError: if the monotone constraint does not change sign
            over [m, m + max gamma^2 + eps] (impossible for valid input).
    """
    x = cfg.x[None, :]
    n = np.ones_like(x)
    w = 1.0 + cfg.tau * x
    lo, hi = _root_bracket(x, n, cfg.tau, cfg.m)
    f_lo = float(_constraint_minus_one(lo, x, w)[0])
    f_hi = float(_constraint_minus_one(hi, x, w)[0])
    if f_lo < 0.0 or f_hi > 0.0:
        raise BracketSignError(
            f"no sign change over certified bracket [{lo[0]}, {hi[0]}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    t = _roots_batch(x, n, cfg.tau, cfg.m)
    return NegativeRoot(
        abs_value=float(t[0]),
        bracket_low=float(lo[0]),
        bracket_high=float(hi[0]),
        residual=float(_constraint_minus_one(t, x, w)[0]),
    )


def theta_lower_bound(cfg: GammaConfig, k: int) -> float:
    """Positive root of h(theta; x_(k), k), a certified lower bound on |theta_{m+1}|.

    h(theta; x, k) = theta^2 - [m - x + (m+1-k)*tau*x]*theta - (k-1)*x,
    evaluated at x = the k-th smallest of the x_i.  Equals m when x = 0 and
    m + x/kappa when k = 1.
    """
    m = cfg.m
    if not 1 <= k <= m:
        raise InvalidParameterError(f"k must lie in 1..{m}, got {k}")
    xk = float(np.sort(cfg.x)[k - 1])
    b = m - xk + (m + 1 - k) * cfg.tau * xk
    q = (k - 1) * xk
    disc = math.sqrt(b * b + 4.0 * q)
    if b >= 0.0:
        return 0.5 * (b + disc)
    return 2.0 * q / (disc - b)
