"""The tail kernel's two quadrature rules against a 30-digit mpmath oracle.

The oracle shares nothing with the kernel but the row it is given: it
bisects for the negative root in mpmath and integrates the original
singular integral in s, without the sin^2 substitution, by tanh-sinh
quadrature split at every ratio inside (0, t).  Rows are sampled the way
`p_max` builds them: m0 <= k - 1 zeros, m1 ratios at 1/rho, and the rest at
a gamma from the search's own candidate range (its ends included).
"""
import math

import mpmath as mp
import numpy as np
import pytest

from stc.charpoly import GammaConfig
from stc.rejection import DEFAULT_SETTINGS, _tails_for_gamma_rows, rejection_probability
from stc.worstcase import _PROBE_SETTINGS, _boundary_rows, _gamma_candidates

# Over 2,000 rows drawn like `_sample_rows` (seeds 7 and 8) the worst errors
# were, where the exact tail is at most 0.5 (every level a critical value
# inverts against): default 2.6e-10, probe 1.5e-8; over all rows: default
# 7.9e-8, probe 1.2e-5.  The large errors sit at tails near 1.
DEFAULT_TOL = {"tail <= 0.5": 1e-9, "any tail": 2e-7}
PROBE_TOL = {"tail <= 0.5": 1e-7, "any tail": 3e-5}


def _oracle(values, counts, c: float) -> float:
    """P0[|T_m| > c] for one grouped row, at 30 significant digits."""
    with mp.workdps(30):
        m = int(sum(counts))
        c = mp.mpf(c)
        kappa = m * c * c / (m - 1)
        tau = (kappa + 1) / (m * kappa)
        groups = [(int(n), kappa * mp.mpf(v) ** 2) for v, n in zip(values, counts) if n > 0]

        def root_gap(t):
            return mp.fsum(n * (1 + tau * x) / (x + t) for n, x in groups) - 1

        hi = mp.fsum(n * (1 + tau * x) for n, x in groups)  # root_gap(hi) <= 0
        lo = hi
        while root_gap(lo) <= 0:
            lo /= 2
        while hi - lo > 16 * mp.eps * hi:
            mid = (lo + hi) / 2
            if root_gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        t = (lo + hi) / 2
        a = [(n, x, (1 + tau * x) / (x + t)) for n, x in groups]

        def integrand(s):
            log_q = mp.fsum(n * mp.log(x + s) for n, x, _ in a)
            ratio_sum = mp.fsum(n * aj / (x + s) for n, x, aj in a)
            log_u = (mp.mpf(m) / 2 - 1) * mp.log(s) - (log_q + mp.log(ratio_sum)) / 2
            return mp.exp(log_u) / mp.sqrt(t - s)

        splits = sorted({x for _, x in groups if 0 < x < t})
        return float(mp.quad(integrand, [0, *splits, t]) / mp.pi)


def _sample_rows(seed: int, n: int):
    """(values, counts, c) rows as `p_max` builds them, m from 2 to 200."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        m = int(round(math.exp(rng.uniform(math.log(2), math.log(200)))))
        k = int(rng.integers(1, m + 1))
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        m0 = int(rng.integers(0, k))
        m1 = int(rng.integers(0, m - m0 + 1))
        rho_lower = 0.0 if m1 >= m - k + 1 else 1.0 / rho
        gamma = 0.0
        if m1 + m0 < m:
            candidates = _gamma_candidates(rho, rho_lower)
            pick = rng.uniform()
            gamma = float(
                candidates[0] if pick < 0.15
                else candidates[-1] if pick < 0.25
                else rng.choice(candidates)
            )
        if m1 == 0 and (gamma == 0.0 or m1 + m0 == m):
            continue  # all-zero ratio vector: not a configuration
        c = m**-0.5 * (1.0 + 1e-6) * math.exp(rng.uniform(0.0, math.log(17.0)))
        values, counts = _boundary_rows(m, rho, m1, m0, gamma)
        rows.append((values, counts, c))
    return rows


def _worst_errors(rule, rows, oracle_values):
    worst = {"tail <= 0.5": 0.0, "any tail": 0.0}
    for (values, counts, c), exact in zip(rows, oracle_values):
        err = abs(float(_tails_for_gamma_rows(values, c, rule, counts=counts)[0]) - exact)
        worst["any tail"] = max(worst["any tail"], err)
        if exact <= 0.5:
            worst["tail <= 0.5"] = max(worst["tail <= 0.5"], err)
    return worst


def test_both_rules_match_the_oracle_on_search_rows():
    rows = _sample_rows(2026, 60)
    exact = [_oracle(v[0], n[0], c) for v, n, c in rows]
    assert sum(e <= 0.5 for e in exact) >= 15  # both regimes are exercised
    default = _worst_errors(DEFAULT_SETTINGS, rows, exact)
    probe = _worst_errors(_PROBE_SETTINGS, rows, exact)
    for regime in DEFAULT_TOL:
        assert default[regime] <= DEFAULT_TOL[regime], (regime, default)
        assert probe[regime] <= PROBE_TOL[regime], (regime, probe)


def test_extreme_rows_match_the_oracle():
    # x up to ~1e10 (gamma at the 1e4/rho truncation with rho = 0.1), exact
    # zeros, gamma at rho_lower, c just above m^-1/2, and m = 200
    cases = [
        (50, 0.1, 1, 48, 1e5, 2.0),
        (200, 1.0, 199, 0, 0.0, 0.2),
        (200, 0.5, 100, 99, 2.0, 0.0707107),
        (10, 2.0, 3, 2, 0.5, 10**-0.5 * (1 + 1e-6)),
        (5, 1.0, 0, 4, 1.0, 3.041),
    ]
    for m, rho, m1, m0, gamma, c in cases:
        values, counts = _boundary_rows(m, rho, m1, m0, gamma)
        exact = _oracle(values[0], counts[0], c)
        got = float(_tails_for_gamma_rows(values, c, DEFAULT_SETTINGS, counts=counts)[0])
        assert abs(got - exact) <= DEFAULT_TOL["any tail"], (m, rho, m1, m0, gamma, c)


@pytest.mark.xfail(
    strict=True,
    reason="tiny positive ratios next to a zero put a kink at u ~ sqrt(x/t) in the "
    "substituted integrand, which 64 panels cannot resolve: the default rule gives "
    "0.99999737 against the oracle's 0.99998562",
)
def test_tiny_ratios_beside_a_zero_match_the_oracle():
    g = 4.36e-5
    cfg = GammaConfig(np.array([0.0, g, g, g, g]), 1.11 / math.sqrt(5))
    exact = _oracle(cfg.gammas, np.ones(5), cfg.c)
    assert abs(rejection_probability(cfg) - exact) <= DEFAULT_TOL["any tail"]


@pytest.mark.xfail(
    strict=True,
    reason="the same kink on a row the search evaluates (m=200, k=200, rho=10, one "
    "ratio at 1/rho, 199 at gamma=0.0079, c = 1.038 m^-1/2): the default rule is "
    "off by 1.2e-5 at a tail of 0.9994",
)
def test_small_gamma_search_row_near_the_degenerate_threshold_matches_the_oracle():
    values, counts = _boundary_rows(200, 10.0, 1, 0, 0.007912342618981319)
    c = 0.0734266482600901
    exact = _oracle(values[0], counts[0], c)
    got = float(_tails_for_gamma_rows(values, c, DEFAULT_SETTINGS, counts=counts)[0])
    assert abs(got - exact) <= DEFAULT_TOL["any tail"]
