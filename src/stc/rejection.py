"""Null rejection probability P0[|T_m| > c] for a ratio configuration.

The probability is the singular integral

    P = (1/pi) * Integral_0^t  U(x, s) / sqrt(t - s) ds,
    U(x, s) = s^(m/2 - 1) / sqrt(PQ(x, s)),

where t = |theta_{m+1}| is the negative-root magnitude from `charpoly` and
PQ is the fused sum-of-products

    PQ(x, s) = sum_i [(1 + tau*x_i) / (x_i + t)] * prod_{j != i} (x_j + s).

Fusing is mandatory: the unfused factors P and Q separately tend to
infinity and zero when some x_i = 0, while the fused form stays finite and
strictly positive on (0, t).  The endpoint singularity 1/sqrt(t - s) is
removed exactly by the substitution s = t*sin(u)^2:

    P = (1/pi) * Integral_0^{pi/2}  2*sqrt(t)*sin(u) * U(x, t*sin(u)^2) du,

after which the integrand is smooth (near u = 0 it behaves like an integer
power of sin(u)) and fixed-panel Gauss-Legendre converges spectrally.

The fused product is accumulated in log space in all regimes: the grid and
refinement searches upstream push x_i as high as ~1e10 at m = 50, where
plain products overflow, and the log-space path costs the same code for
every m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charpoly import GammaConfig, _roots_batch
from .errors import InvalidParameterError, NumericalFailureError

__all__ = ["QuadratureSettings", "rejection_probability"]

# Chunk budget for the (batch, nodes, m) work arrays, in elements.
_CHUNK_ELEMENTS = 4_000_000


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
        if int(self.panels) < 1:
            raise InvalidParameterError(f"panels must be >= 1, got {self.panels}")
        if int(self.nodes_per_panel) < 2:
            raise InvalidParameterError(
                f"nodes_per_panel must be >= 2, got {self.nodes_per_panel}"
            )
        object.__setattr__(self, "panels", int(self.panels))
        object.__setattr__(self, "nodes_per_panel", int(self.nodes_per_panel))


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
    x: np.ndarray, t: np.ndarray, tau: float, m: int, settings: QuadratureSettings
) -> np.ndarray:
    """Evaluate the substituted integral for rows of x with endpoints t."""
    u, wu = _nodes_weights(settings.panels, settings.nodes_per_panel)
    sin_u = np.sin(u)
    sin2_u = sin_u * sin_u
    n_nodes = u.size
    out = np.empty(x.shape[0])
    chunk = max(1, _CHUNK_ELEMENTS // (n_nodes * m))
    for start in range(0, x.shape[0], chunk):
        xb = x[start : start + chunk]
        tb = t[start : start + chunk]
        s = tb[:, None] * sin2_u[None, :]                      # (B, N)
        xs = xb[:, None, :] + s[:, :, None]                    # (B, N, m)
        sum_log = np.sum(np.log(xs), axis=2)                   # (B, N): log Q
        a = (1.0 + tau * xb) / (xb + tb[:, None])              # (B, m)
        # PQ = Q * sum_i a_i/(x_i + s): the ratio sum stays well inside
        # float range (each term is between ~(x_max + t)^-2 and ~1/(t*s)),
        # so only Q itself needs log-space accumulation.
        ratio_sum = np.sum(a[:, None, :] / xs, axis=2)         # (B, N)
        log_pq = sum_log + np.log(ratio_sum)
        log_u_term = (0.5 * m - 1.0) * np.log(s) - 0.5 * log_pq
        integrand = 2.0 * np.sqrt(tb)[:, None] * sin_u[None, :] * np.exp(log_u_term)
        # a row-wise sum, not a BLAS matrix-vector product: a row's value must
        # not depend on the batch it is evaluated in
        out[start : start + chunk] = np.sum(integrand * wu, axis=1) / math.pi
    return out


def _tails_for_gamma_rows(
    gammas: np.ndarray, c: float, settings: QuadratureSettings | None = None
) -> np.ndarray:
    """Rejection probabilities for a batch of ratio rows at a common c.

    The one entry to the tail kernel, for the worst-case optimizers and for
    `rejection_probability` alike; each row must be a valid (not all-zero)
    nonnegative configuration.
    """
    settings = settings or DEFAULT_SETTINGS
    g = np.asarray(gammas, dtype=np.float64)
    if g.ndim != 2:
        raise InvalidParameterError(f"expected a 2-d batch of ratio rows, got shape {g.shape}")
    m = g.shape[1]
    kappa = m * c * c / (m - 1)
    tau = (kappa + 1.0) / (m * kappa)
    x = kappa * g * g
    t = _roots_batch(x, tau, m)
    vals = _tail_quadrature(x, t, tau, m, settings)
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise NumericalFailureError(
            f"non-finite tail integral: m={m}, c={c}, gammas={g[bad]!r}, t={t[bad]!r}"
        )
    if np.any(vals > 1.0 + 1e-6) or np.any(vals < -1e-6):
        bad = int(np.argmax(np.maximum(vals - 1.0, -vals)))
        raise NumericalFailureError(
            f"tail integral escaped [0,1]: value={vals[bad]!r}, m={m}, c={c}, gammas={g[bad]!r}"
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
