"""Seeded Monte Carlo harness for size/power verification of the t-test.

Two families of data-generating processes are provided:

  * NormalMeans — cluster estimates drawn directly as independent normals;
    control variances are either all 1 (dgp 1) or rise linearly from 1 to 2
    (dgp 2); the treated estimate is N(delta, rho^2).
  * Twfe — a two-way fixed-effects panel with AR(1) errors whose
    innovations are normal, normalized chi-square(2), or uniform, with the
    treated cluster's innovation scale multiplied by sigma.  Each cluster's
    effect is the post-minus-pre mean difference the designs module's
    TwoWayFE extractor computes.  That estimate is a fixed linear map of the
    cluster's innovations, so it is computed as a row-wise sum of the draws
    times a per-design weight vector, without building the panel; tests
    check it against the full panels ``_twfe_outcomes`` builds.

Randomness is counter-based: replication r reads from a Philox stream
keyed by (seed, r // chunk), at a fixed offset within the chunk, so every
replication's variates are a pure function of (seed, r) — independent of
chunk evaluation order, total replication count, and thread count.
The chunks run on as many threads as the process has cores (one core runs
them in a plain loop); there is no setting for this, and every thread count
gives the same bits.  `run` holds O(threads x chunk) draws plus its
(reps,) array of t statistics.
Normal variates come from numpy's Ziggurat sampler; the chi-square(2)
innovations are built from two squared normals normalized to mean 0 and
variance 1, and the uniforms by an affine map of standard uniforms.

The AR(1) error starts at its stationary scale: U_0 equals a single
innovation divided by sqrt(1 - eta^2).  For the non-normal innovations
this matches the stationary variance, not the full stationary law.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .critical_values import CriticalValueResult, critical_value
from .errors import InvalidParameterError, as_integer
from .inference import t_statistics
from .worstcase import HeterogeneitySpec

__all__ = [
    "NormalMeansDesign",
    "TwfeDesign",
    "MCConfig",
    "MCResult",
    "run",
    "empirical_rejection_rate",
    "normal_means_t_statistics",
    "twfe_theta_hats",
]

_CHUNK_ROWS = 4096
_MASK64 = (1 << 64) - 1

_TWFE_ETA = {1: 0.5, 2: 0.1, 3: 0.9, 4: 0.5, 5: 0.5}


@dataclass(frozen=True)
class NormalMeansDesign:
    """Direct draws of the m+1 cluster estimates.

    ``rho`` is the treated standard deviation; with the test's
    heterogeneity ratio set to the same value the restriction is exactly
    correctly specified.
    """

    dgp: int
    m: int
    delta: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.dgp not in (1, 2):
            raise InvalidParameterError(f"NormalMeans dgp must be 1 or 2, got {self.dgp}")
        object.__setattr__(self, "m", as_integer("m", self.m, 2))
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise InvalidParameterError(f"rho must be finite and >= 0, got {self.rho}")
        if not math.isfinite(self.delta):
            raise InvalidParameterError("delta must be finite")

    def control_sigmas(self) -> np.ndarray:
        j = np.arange(1, self.m + 1, dtype=float)
        if self.dgp == 1:
            return np.ones(self.m)
        return np.sqrt(1.0 + (j - 1.0) / (self.m - 1.0))

    @property
    def matched_rho(self) -> float:
        return self.rho


@dataclass(frozen=True)
class TwfeDesign:
    """Two-way fixed-effects panel generator.

    Y_jt = alpha_t + gamma_j + theta * D_jt + U_jt over periods 1..periods,
    with alpha_t = 1, gamma_j = 2*1{j <= m/2} - 1, and D_jt = 1 only for
    the treated cluster in periods strictly after ``intervention``.  The
    AR(1) error uses eta = 0.5 / 0.1 / 0.9 for dgp 1/2/3 with normal
    innovations, and eta = 0.5 with normalized chi-square(2) (dgp 4) or
    uniform[-sqrt(3), sqrt(3)] (dgp 5) innovations.  The treated cluster's
    innovations are scaled by ``sigma``.
    """

    dgp: int
    m: int
    sigma: float = 1.0
    theta: float = 0.0
    periods: int = 10
    intervention: int = 6

    def __post_init__(self):
        if self.dgp not in (1, 2, 3, 4, 5):
            raise InvalidParameterError(f"Twfe dgp must be in 1..5, got {self.dgp}")
        m, periods = as_integer("m", self.m, 2), as_integer("periods", self.periods)
        intervention = as_integer("intervention", self.intervention)
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidParameterError(f"sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.theta):
            raise InvalidParameterError("theta must be finite")
        if not 1 <= intervention < periods:
            raise InvalidParameterError("intervention must leave both pre and post periods")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "intervention", intervention)

    @property
    def eta(self) -> float:
        return _TWFE_ETA[self.dgp]

    @property
    def post_start(self) -> int:
        """First treated period in the extractor's t >= post_start convention."""
        return self.intervention + 1

    @property
    def matched_rho(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class MCConfig:
    """A design plus the test to run on each replication.

    ``rho`` defaults to the design's own heterogeneity (treated sd for
    NormalMeans, innovation scale for Twfe) so the restriction is matched.
    """

    design: NormalMeansDesign | TwfeDesign
    reps: int
    seed: int
    alpha: float = 0.05
    k: int = 1
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "reps", as_integer("reps", self.reps, 1))
        object.__setattr__(self, "seed", as_integer("seed", self.seed))

    @property
    def test_rho(self) -> float:
        return self.design.matched_rho if self.rho is None else float(self.rho)


@dataclass(frozen=True)
class MCResult:
    """Rejection frequency with its binomial standard error."""

    rejection_rate: float
    se: float
    reps: int
    rejections: int
    critical_value: CriticalValueResult | None = None
    t_stats: np.ndarray | None = None


def _chunk_generator(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(reps: int):
    for chunk in range(math.ceil(reps / _CHUNK_ROWS)):
        rows = min(_CHUNK_ROWS, reps - chunk * _CHUNK_ROWS)
        yield chunk, rows


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fill_chunks(out: np.ndarray, chunk_rows) -> np.ndarray:
    """``out`` with the rows of each chunk set to chunk_rows(chunk, rows), on
    one thread per core.  Each chunk writes only its own rows, and its numpy
    work (Philox fills, row-wise sums, ufuncs) releases the GIL, so the bits do
    not depend on the thread count.  The first exception, in chunk order,
    propagates once the running chunks finish; the rest are cancelled."""
    def fill(chunk, rows):
        out[chunk * _CHUNK_ROWS:chunk * _CHUNK_ROWS + rows] = chunk_rows(chunk, rows)

    chunks, rows = zip(*_chunks(len(out)))
    threads = min(_cores(), len(chunks))
    if threads == 1:
        list(map(fill, chunks, rows))
        return out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(fill, chunks, rows))
    return out


def _normal_means_thetas(rows: int, rng: np.random.Generator,
                         sigmas: np.ndarray, delta: float) -> np.ndarray:
    thetas = rng.standard_normal((rows, sigmas.size))
    thetas *= sigmas
    thetas[:, -1] += delta
    return thetas


def normal_means_t_statistics(
    sigmas: np.ndarray, delta: float, reps: int, seed: int
) -> np.ndarray:
    """t statistics for estimates drawn as N(0, sigma_j^2), treated last.

    ``sigmas`` lists the m control standard deviations followed by the
    treated one; ``delta`` shifts the treated mean.  This is the raw mode
    used to cross-check the analytic rejection probabilities.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 1 or sigmas.size < 3:
        raise InvalidParameterError("need at least 2 control sigmas plus the treated sigma")
    if not np.all(np.isfinite(sigmas)) or np.any(sigmas < 0):
        raise InvalidParameterError("sigmas must be finite and >= 0")
    delta = float(delta)
    if not math.isfinite(delta):
        raise InvalidParameterError(f"delta must be finite, got {delta!r}")
    reps, seed = as_integer("reps", reps, 1), as_integer("seed", seed)
    return _fill_chunks(np.empty(reps), lambda chunk, rows: t_statistics(
        _normal_means_thetas(rows, _chunk_generator(seed, chunk), sigmas, delta))[0])


def _twfe_draws(design: TwfeDesign, rows: int, rng: np.random.Generator) -> np.ndarray:
    """A chunk's raw variates for ``rows`` rows: normals, normal pairs (dgp 4)
    or uniforms (dgp 5)."""
    shape = (rows, design.m + 1, design.periods + 1) + ((2,) if design.dgp == 4 else ())
    return rng.random(shape) if design.dgp == 5 else rng.standard_normal(shape)


def _ar1_levels(v: np.ndarray, eta: float) -> np.ndarray:
    """AR(1) levels over periods 1..P from innovations v[..., 0..P]."""
    u = np.empty_like(v[..., 1:])
    level = v[..., 0] / math.sqrt(1.0 - eta * eta)
    for t in range(u.shape[-1]):
        level = eta * level + v[..., t + 1]
        u[..., t] = level
    return u


def _twfe_outcomes(design: TwfeDesign, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Panel outcomes with shape (rows, m+1, periods); treated cluster last.

    This defines the panel DGP; ``twfe_theta_hats`` reads the same draws
    through ``_twfe_linear_map`` instead of building the panel.
    """
    v = _twfe_draws(design, rows, rng)
    if design.dgp == 4:
        v = (np.square(v).sum(axis=-1) - 2.0) / 2.0
    elif design.dgp == 5:
        v = (2.0 * v - 1.0) * math.sqrt(3.0)
    v[:, -1, :] *= design.sigma
    u = _ar1_levels(v, design.eta)
    gamma = np.where(np.arange(1, design.m + 2) <= design.m / 2.0, 1.0, -1.0)
    y = u + 1.0 + gamma[None, :, None]
    y[:, -1, design.intervention:] += design.theta
    return y


def _twfe_linear_map(design: TwfeDesign) -> tuple[np.ndarray, float]:
    """(weights, offset): a cluster's estimate before sigma and theta is the
    row-wise sum of draws * weights, plus offset.

    The post-minus-pre mean of the AR(1) levels is linear in the cluster's
    periods+1 innovations, with weights w from running the recursion on the
    identity basis; the period and cluster effects cancel.  Dgp 4's draws
    are squared normal pairs read flat, (z1^2 + z2^2 - 2) / 2 per period,
    and dgp 5's are uniforms, (2U - 1) sqrt(3) per period.
    """
    u = _ar1_levels(np.eye(design.periods + 1), design.eta)
    pre = design.intervention
    w = u[:, pre:].mean(axis=1) - u[:, :pre].mean(axis=1)
    if design.dgp == 4:
        return np.repeat(w, 2) / 2.0, -w.sum()
    if design.dgp == 5:
        return 2.0 * math.sqrt(3.0) * w, -math.sqrt(3.0) * w.sum()
    return w, 0.0


def twfe_theta_hats(design: TwfeDesign, reps: int, seed: int) -> np.ndarray:
    """Per-cluster post/pre mean differences, shape (reps, m+1), treated last.

    This is the same estimator the designs extractor computes for the
    TwoWayFE design with post_start = intervention + 1.  Each estimate is
    a fixed linear map of its cluster's innovations (``_twfe_linear_map``),
    so no panel is built; tests check it against the post-minus-pre means
    of the full ``_twfe_outcomes`` panels drawn from the same stream.
    """
    reps, seed = as_integer("reps", reps, 1), as_integer("seed", seed)
    return _fill_chunks(np.empty((reps, design.m + 1)), _twfe_chunk_thetas(design, seed))


def _twfe_chunk_thetas(design: TwfeDesign, seed: int):
    """chunk_thetas(chunk, rows): a chunk's (rows, m+1) estimates.  Each is a
    row-wise sum, with no BLAS call, so its bits depend on its row alone."""
    weights, offset = _twfe_linear_map(design)

    def chunk_thetas(chunk, rows):
        draws = _twfe_draws(design, rows, _chunk_generator(seed, chunk))
        if design.dgp == 4:
            np.square(draws, out=draws)
        theta = np.einsum("ij,j->i", draws.reshape(-1, weights.size), weights).reshape(rows, -1)
        theta += offset
        theta[:, -1] *= design.sigma
        theta[:, -1] += design.theta
        return theta

    return chunk_thetas


def _design_t_statistics(design, reps: int, seed: int) -> np.ndarray:
    if isinstance(design, NormalMeansDesign):
        sigmas = np.append(design.control_sigmas(), design.rho)
        return normal_means_t_statistics(sigmas, design.delta, reps, seed)
    if isinstance(design, TwfeDesign):  # t statistics chunk by chunk: no (reps, m+1) array
        thetas = _twfe_chunk_thetas(design, seed)
        return _fill_chunks(np.empty(reps), lambda chunk, rows: t_statistics(thetas(chunk, rows))[0])
    raise InvalidParameterError(f"unknown design: {design!r}")


def _mc_result(t: np.ndarray, c: float, **extra) -> MCResult:
    """The share of |t| > c over the replications t, with its binomial SE."""
    rejections = int(np.count_nonzero(np.abs(t) > c))
    rate = rejections / t.size
    return MCResult(rejection_rate=rate, se=math.sqrt(rate * (1.0 - rate) / t.size),
                    reps=t.size, rejections=rejections, **extra)


def run(
    config: MCConfig,
    include_stats: bool = False,
) -> MCResult:
    """Rejection frequency of the two-sided t-test over seeded replications.

    Each replication draws estimates from the configured design, forms the
    t statistic with the test's own `inference.t_statistics`, and rejects
    when it exceeds the critical value for (alpha, k, rho): the same
    decision as `run_test` on each draw.
    Identical configs (including seed) give bit-identical results.
    """
    spec = HeterogeneitySpec(config.design.m, config.k, config.test_rho)
    cv = critical_value(config.design.m, config.alpha, spec)
    t = _design_t_statistics(config.design, config.reps, config.seed)
    return _mc_result(t, cv.cv, critical_value=cv, t_stats=t if include_stats else None)


def empirical_rejection_rate(
    sigmas: np.ndarray, delta: float, c: float, reps: int, seed: int
) -> MCResult:
    """Empirical P[|T| > c] for explicit sigmas (controls first, treated last).

    Brute-force oracle for the analytic rejection probability: no
    worst-case search, just the configured normal draws against a fixed
    threshold.
    """
    c = float(c)
    if not math.isfinite(c) or c <= 0:
        raise InvalidParameterError(f"threshold c must be finite and > 0, got {c!r}")
    return _mc_result(normal_means_t_statistics(sigmas, delta, reps, seed), c)
