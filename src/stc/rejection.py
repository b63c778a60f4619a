"""Null rejection probability P0[|T_m| > c] for a ratio configuration.

The probability is the singular integral

    P = (1/pi) * Integral_0^t  U(x, s) / sqrt(t - s) ds,
    U(x, s) = s^(m/2 - 1) / sqrt(PQ(x, s)),

where t = |theta_{m+1}| is the negative-root magnitude from `charpoly` and
PQ is the fused sum-of-products

    PQ(x, s) = sum_i [(1 + tau*x_i) / (x_i + t)] * prod_{j != i} (x_j + s).

A configuration is carried as distinct values x_j with counts n_j
(sum n_j = m; a group with n_j = 0 is inert), and equal ratios give equal
factors, so PQ = Q * sum_j n_j a_j/(x_j + s) with Q = prod_j (x_j + s)^n_j
and a_j = (1 + tau*x_j)/(x_j + t): the work per node is one term per group,
added group by group on (rows, nodes) arrays (cheaper than a group axis).
Fusing is mandatory: the unfused factors P and Q separately tend to
infinity and zero when some x_j = 0, while the fused form stays finite and
strictly positive on (0, t).  The endpoint singularity 1/sqrt(t - s) is
removed exactly by the substitution s = t*sin(u)^2:

    P = (1/pi) * Integral_0^{pi/2}  2*sqrt(t)*sin(u) * U(x, t*sin(u)^2) du,

after which the integrand is smooth (near u = 0 it behaves like an integer
power of sin(u)) and fixed-panel Gauss-Legendre converges spectrally.  The
exception is a tiny positive ratio x_j: the integrand then bends sharply at
u ~ sqrt(x_j/t), which the default 64 panels do not resolve when that bend
carries weight (tails near 1; see tests/test_quadrature_oracle.py).

Q is accumulated in log space in all regimes: the grid and refinement
searches upstream push x_j as high as ~1e10 at m = 50, where plain products
overflow, and the log-space path costs the same code for every m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charpoly import GammaConfig, _roots_batch
from .errors import InvalidParameterError, NumericalFailureError, as_integer

__all__ = ["QuadratureSettings", "rejection_probability"]

# The only bound on a kernel call's working set, however many rows a caller
# batches (`p_max` sends all its branches at once): a chunk holds at most
# this many rows x nodes x groups, so each of its ~ten (rows, nodes) float64
# work arrays holds at most this / groups elements.  Values do not depend on
# it (the sum is row-wise).  Measured on a 2-core Xeon (4 MB L2): down from
# 4e6 the arrays come to fit in cache, and a complete p_max(200, k=2) fell
# from 184 to 84-110 ms; 6.25e4 was no faster; peak RSS fell 197 -> 108 MB.
_CHUNK_ELEMENTS = 125_000


@dataclass(frozen=True)
class QuadratureSettings:
    """Fixed-panel Gauss-Legendre settings for the tail integral.

    Attributes:
        panels: number of equal panels on u in [0, pi/2].
        nodes_per_panel: Gauss-Legendre nodes per panel.
    """

    panels: int = 64
    nodes_per_panel: int = 16

    def __post_init__(self):
        object.__setattr__(self, "panels", as_integer("panels", self.panels, 1))
        object.__setattr__(self, "nodes_per_panel",
                           as_integer("nodes_per_panel", self.nodes_per_panel, 2))


DEFAULT_SETTINGS = QuadratureSettings()


@lru_cache(maxsize=16)
def _nodes_weights(panels: int, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [0, pi/2], read-only."""
    xi, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    h = (math.pi / 2.0) / panels
    starts = h * np.arange(panels)
    u = (starts[:, None] + 0.5 * h * (xi[None, :] + 1.0)).ravel()
    wu = np.broadcast_to(0.5 * h * w, (panels, nodes_per_panel)).ravel().copy()
    u.flags.writeable = False
    wu.flags.writeable = False
    return u, wu


def _tail_quadrature(
    x: np.ndarray, n: np.ndarray, t: np.ndarray, tau: float, m: int, settings: QuadratureSettings
) -> np.ndarray:
    """Evaluate the substituted integral for grouped rows (x, n) with endpoints t."""
    u, wu = _nodes_weights(settings.panels, settings.nodes_per_panel)
    sin_u = np.sin(u)
    out = np.empty(x.shape[0])
    chunk = max(1, _CHUNK_ELEMENTS // (u.size * x.shape[1]))
    for start in range(0, x.shape[0], chunk):
        xb, nb, tb = (arr[start : start + chunk] for arr in (x, n, t))
        s = tb[:, None] * (sin_u * sin_u)[None, :]             # (B, N)
        log_s = np.log(s)
        a = nb * ((1.0 + tau * xb) / (xb + tb[:, None]))       # (B, D): n_j a_j
        # PQ = Q * sum_j n_j a_j/(x_j + s): the ratio sum stays well inside
        # float range (each term is between ~(x_max + t)^-2 and ~m/(t*s)),
        # so only Q itself needs log-space accumulation.
        log_q = ratio_sum = 0.0  # groups left to right, as np.sum adds a short axis
        for j in range(xb.shape[1]):  # a group 0 in every row reuses s: 0 + s == s
            xs = xb[:, j, None] + s if xb[:, j].any() else s
            log_q = log_q + nb[:, j, None] * (log_s if xs is s else np.log(xs))
            ratio_sum = ratio_sum + a[:, j, None] / xs
        log_pq = log_q + np.log(ratio_sum)
        log_u_term = (0.5 * m - 1.0) * log_s - 0.5 * log_pq
        integrand = 2.0 * np.sqrt(tb)[:, None] * sin_u[None, :] * np.exp(log_u_term)
        # a row-wise sum, not a BLAS matrix-vector product: a row's value must
        # not depend on the batch it is evaluated in
        out[start : start + chunk] = np.sum(integrand * wu, axis=1) / math.pi
    return out


def _tails_for_gamma_rows(
    values: np.ndarray, c: float, settings: QuadratureSettings | None = None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Rejection probabilities for a batch of grouped ratio rows at a common c.

    Row i holds the distinct ratios values[i] with multiplicities counts[i];
    ``counts=None`` means every count is 1 (each row lists all m ratios).
    The one entry to the tail kernel, for the worst-case optimizers and for
    `rejection_probability` alike; every row must describe a valid (not
    all-zero) nonnegative configuration of the same m = sum of its counts.
    """
    settings = settings or DEFAULT_SETTINGS
    g = np.asarray(values, dtype=np.float64)
    if g.ndim != 2:
        raise InvalidParameterError(f"expected a 2-d batch of ratio rows, got shape {g.shape}")
    n = np.ones_like(g) if counts is None else np.asarray(counts, dtype=np.float64)
    row_m = np.sum(n, axis=1)
    m = int(row_m[0])
    if np.any(row_m != m):
        raise InvalidParameterError(f"rows of one batch must share m, got row counts {row_m}")
    kappa = m * c * c / (m - 1)
    tau = (kappa + 1.0) / (m * kappa)
    top = float(np.max(g))  # every ratio is >= 0; Python floats overflow silently
    if not math.isfinite(kappa * top * top):
        raise NumericalFailureError(
            f"ratio {top!r} is too large: kappa * ratio^2 overflows at m={m}, c={c}"
        )
    x = kappa * g * g
    t = _roots_batch(x, n, tau, m)
    vals = _tail_quadrature(x, n, t, tau, m, settings)
    bad = ~np.isfinite(vals) | (vals > 1.0 + 1e-6) | (vals < -1e-6)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalFailureError(
            f"tail integral {vals[i]!r} is not finite in [0, 1]: m={m}, c={c}, "
            f"values={g[i]!r}, counts={n[i]!r}, t={t[i]!r}"
        )
    return np.clip(vals, 0.0, 1.0)


def rejection_probability(
    cfg: GammaConfig, settings: QuadratureSettings | None = None
) -> float:
    """Null probability that |T_m| exceeds cfg.c under ratio configuration cfg.

    Args:
        cfg: validated ratio configuration (at least one positive ratio).
        settings: quadrature controls; defaults to 64 panels x 16 nodes.

    Returns:
        The tail probability in [0, 1].

    Raises:
        NumericalFailureError: if any intermediate is non-finite or the
            result escapes [0, 1] beyond tolerance.
    """
    return float(_tails_for_gamma_rows(cfg.gammas[None, :], cfg.c, settings)[0])
