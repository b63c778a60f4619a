"""Characteristic-function evaluation and its unique negative root."""
import math

import mpmath as mp
import numpy as np
import pytest

from stc.charpoly import (
    GammaConfig,
    _root_bracket,
    _roots_batch,
    negative_root,
    theta_lower_bound,
)
from stc.errors import InvalidParameterError
from stc.rejection import DEFAULT_SETTINGS, _tail_quadrature
from stc.worstcase import _boundary_rows

RNG_SWEEP = 1000


def g_value(cfg: GammaConfig, theta: float) -> float:
    """g_c(theta) in the product/sum form, the oracle for the root solve.

    The leave-one-out products prod_{j != i}(x_j - theta) are obtained by
    dividing the full product by (x_i - theta) whenever every factor is
    safely away from zero/overflow, and by direct re-multiplication
    otherwise.
    """
    x = cfg.x
    m = cfg.m
    th = float(theta)
    factors = x - th
    full = float(np.prod(factors))
    if math.isfinite(full) and np.all(np.abs(factors) > 1e-150):
        loo = full / factors
    else:
        loo = np.empty(m)
        for i in range(m):
            loo[i] = np.prod(np.delete(factors, i))
    s = float(np.sum(cfg.gammas**2 * loo))
    return -(m + th) * full + (cfg.kappa + (cfg.kappa + 1.0) / m * th) * s


def _random_config(rng):
    m = int(rng.integers(2, 13))
    gammas = rng.uniform(0.0, 4.0, size=m)
    if not np.any(gammas > 0):
        gammas[0] = 1.0
    # keep a sprinkle of exact zeros to exercise the x_i = 0 branch
    zero_out = rng.random(m) < 0.2
    gammas = np.where(zero_out, 0.0, gammas)
    if not np.any(gammas > 0):
        gammas[-1] = rng.uniform(0.5, 2.0)
    c = float(rng.uniform(0.2, 6.0))
    return GammaConfig(gammas, c)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        GammaConfig(np.array([1.0]), 1.0)  # needs m >= 2
    with pytest.raises(InvalidParameterError):
        GammaConfig(np.zeros(3), 1.0)  # all-zero ratios are degenerate
    with pytest.raises(InvalidParameterError):
        GammaConfig(np.array([1.0, -0.5]), 1.0)
    with pytest.raises(InvalidParameterError):
        GammaConfig(np.array([1.0, 1.0]), 0.0)


def test_g_vanishes_at_zero():
    # g(0) is the exact cancellation -m*prod(x) + sum_i x_i*prod_{j!=i} x_j,
    # so judge the residual against the magnitude of the cancelling terms
    rng = np.random.default_rng(7)
    for _ in range(50):
        cfg = _random_config(rng)
        scale = cfg.m * float(np.prod(np.maximum(cfg.x, 1e-300)))
        assert abs(g_value(cfg, 0.0)) <= 1e-12 * max(scale, 1.0)


def test_g_vanishes_at_equal_ratio_root():
    # with m=2, gamma=(1,1), c=1 the negative root is theta = -(m + gamma^2) = -3,
    # so g(-3) must vanish; hand expansion: -(2-3)*5^2 + (2 - 4.5)*2*5 = 25 - 25
    cfg = GammaConfig(np.array([1.0, 1.0]), 1.0)
    assert g_value(cfg, -3.0) == pytest.approx(0.0, abs=1e-12)
    root = negative_root(cfg)
    assert root.abs_value == pytest.approx(3.0, rel=1e-12)


def test_equal_ratio_root_closed_form():
    # equal ratios: t = m + gamma^2 for any c (since m*tau - 1 = 1/kappa)
    for m in (2, 5, 9):
        for gamma in (0.5, 1.0, 2.0):
            for c in (1.0, 2.0, 3.7):
                cfg = GammaConfig(np.full(m, gamma), c)
                t = negative_root(cfg).abs_value
                assert t == pytest.approx(m + gamma * gamma, rel=1e-12)


def test_root_respects_certified_bracket():
    rng = np.random.default_rng(21)
    for _ in range(200):
        cfg = _random_config(rng)
        root = negative_root(cfg)
        hi = cfg.m + float(np.max(cfg.gammas) ** 2)
        assert cfg.m <= root.abs_value <= hi + 1e-9
        assert root.bracket_low <= root.abs_value <= root.bracket_high


def test_g_residual_at_root_is_tiny_relative_to_bracket_scale():
    rng = np.random.default_rng(33)
    for _ in range(RNG_SWEEP):
        cfg = _random_config(rng)
        root = negative_root(cfg)
        thetas = -np.linspace(cfg.m, cfg.m + float(np.max(cfg.gammas) ** 2) + 1e-8, 9)
        scale = max(abs(g_value(cfg, th)) for th in thetas)
        residual = abs(g_value(cfg, -root.abs_value))
        assert residual <= 1e-9 * max(scale, 1.0)


def test_root_dominates_quadratic_lower_bound_for_every_k():
    rng = np.random.default_rng(99)
    for _ in range(300):
        cfg = _random_config(rng)
        t = negative_root(cfg).abs_value
        for k in range(1, cfg.m + 1):
            assert t >= theta_lower_bound(cfg, k) - 1e-9


def test_root_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cfg = _random_config(rng)
        t = negative_root(cfg).abs_value
        shuffled = GammaConfig(rng.permutation(cfg.gammas), cfg.c)
        assert negative_root(shuffled).abs_value == pytest.approx(t, rel=1e-13)


def test_root_exceeds_one_over_tau():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cfg = _random_config(rng)
        kappa = cfg.m * cfg.c**2 / (cfg.m - 1)
        tau = (kappa + 1.0) / (cfg.m * kappa)
        assert negative_root(cfg).abs_value > 1.0 / tau


def test_single_active_ratio_upper_bound():
    # one nonzero ratio g: the root obeys t <= m + g^2
    for g in (0.3, 1.0, 4.0):
        cfg = GammaConfig(np.array([0.0, 0.0, 0.0, g]), 1.5)
        assert negative_root(cfg).abs_value <= 4 + g * g + 1e-10


def test_lower_bound_closed_forms():
    cfg = GammaConfig(np.array([1.0, 2.0, 0.7]), 2.0)
    kappa = cfg.m * cfg.c**2 / (cfg.m - 1)
    # k=1 uses the smallest ratio: theta(x, 1) = m + x/kappa = m + gamma_(1)^2
    assert theta_lower_bound(cfg, 1) == pytest.approx(3 + 0.7**2, rel=1e-12)
    # x = 0 gives exactly m for any k
    zero_cfg = GammaConfig(np.array([0.0, 1.0, 2.0]), 2.0)
    for k in (1,):
        assert theta_lower_bound(zero_cfg, k) == pytest.approx(3.0, rel=1e-12)


def test_lower_bound_hand_quadratic():
    # m=4, k=2, x=1, tau=1/2: positive root of theta^2 - 4.5*theta - 1
    expected = (4.5 + math.sqrt(4.5**2 + 4.0)) / 2.0
    # tau = (kappa+1)/(m*kappa) = 1/2 requires kappa = 1, i.e. c^2 = (m-1)/m,
    # and then x_i = gamma_i^2, so the second-smallest x is 1 here
    c = math.sqrt(3.0 / 4.0)
    cfg = GammaConfig(np.array([0.5, 1.0, 5.0, 5.0]), c)
    assert theta_lower_bound(cfg, 2) == pytest.approx(expected, rel=1e-12)


def _extreme_config(rng):
    # ratios over 1e-6..1e5 with exact zeros, m up to 200, c down to
    # m^{-1/2}(1 + 1e-6)
    m = int(rng.choice([2, 3, 5, 10, 20, 50, 100, 200]))
    gammas = 10.0 ** rng.uniform(-6.0, 5.0, size=m)
    gammas[rng.random(m) < 0.25] = 0.0
    if not np.any(gammas > 0):
        gammas[0] = 10.0 ** rng.uniform(-6.0, 5.0)
    c = m**-0.5 * (1.0 + 10.0 ** rng.uniform(-6.0, 1.0))
    return GammaConfig(gammas, c)


def _root_window(cfg, t):
    # relative width 16 eps / (t |f'(t)|) that the constraint's float
    # rounding leaves the root, floored at 1e-12
    w = 1.0 + cfg.tau * cfg.x
    slope = t * float(np.sum(w / (cfg.x + t) ** 2))  # -t * f'(t)
    return max(1e-12, 16.0 * np.finfo(float).eps / slope)


def test_root_extreme_range_sweep():
    # on extreme configurations the computed root must sit where the
    # monotone constraint changes sign, within 1e-12 relative.  Where the
    # constraint is so flat that its float rounding (a few eps) moves the
    # root by more than that, the window widens to the width that rounding
    # allows.
    rng = np.random.default_rng(2025)
    for _ in range(600):
        cfg = _extreme_config(rng)
        m, gammas = cfg.m, cfg.gammas
        t = negative_root(cfg).abs_value
        w = 1.0 + cfg.tau * cfg.x
        f = lambda s: float(np.sum(w / (cfg.x + s))) - 1.0
        r = _root_window(cfg, t)
        assert f(t * (1.0 - r)) >= 0.0 >= f(t * (1.0 + r))
        # g's products stay finite for m <= 20; a bracket narrower than
        # 1e-6 * m is finer than the float grid near t can resolve to the
        # bound's 1e-9 of g's scale over the bracket
        width = float(np.max(gammas)) ** 2
        if m <= 20 and width >= 1e-6 * m:
            thetas = -np.linspace(m, m + width + 1e-8, 9)
            scale = max(abs(g_value(cfg, th)) for th in thetas)
            assert abs(g_value(cfg, -t)) <= 1e-9 * max(scale, 1.0)


def test_flat_root_uncertainty_barely_moves_the_tail():
    # where the root is only resolved to the window r > 1e-12, the tail
    # integral must move by no more than the quadrature's own 1e-9 bound
    # (test_panel_doubling_is_converged) between t(1 - r) and t(1 + r)
    rng = np.random.default_rng(77)
    flat = 0
    for _ in range(3000):
        cfg = _extreme_config(rng)
        t = negative_root(cfg).abs_value
        r = _root_window(cfg, t)
        if r <= 1e-12:
            continue
        flat += 1
        ends = np.array([t * (1.0 - r), t * (1.0 + r)])
        x = np.broadcast_to(cfg.x, (2, cfg.m))
        tails = _tail_quadrature(x, np.ones_like(x), ends, cfg.tau, cfg.m, DEFAULT_SETTINGS)
        assert abs(tails[1] - tails[0]) <= 1e-9
    assert flat >= 50


def _bisection_newton_roots(x, n, tau, m):
    # the root solver this one replaced, kept as an oracle: 40 rounds of
    # arithmetic bisection on the certified bracket, then 4 Newton steps on
    # the constraint itself
    lo, hi = _root_bracket(x, n, tau, m)
    w = n * (1.0 + tau * x)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        take_lo = np.sum(w / (x + mid[:, None]), axis=1) - 1.0 > 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    t = lo
    for _ in range(4):
        xt = x + t[:, None]
        f = np.sum(w / xt, axis=1) - 1.0
        fp = np.sum(w / (xt * xt), axis=1)
        t = np.minimum(t + f / fp, hi)
    return t


def _search_root_batches(rng, batches, size):
    # boundary rows as p_max builds them, one (m, rho, c) per batch: m from 2
    # to 200, rho from 1e-3 to 30, c down to m^{-1/2}(1 + 1e-8), and the free
    # ratio anywhere on its grid's range, its ends included
    for _ in range(batches):
        m = int(round(math.exp(rng.uniform(math.log(2), math.log(200)))))
        k = int(rng.integers(1, m + 1))
        rho = float(10.0 ** rng.uniform(-3.0, math.log10(30.0)))
        c = m**-0.5 * (1.0 + 10.0 ** rng.uniform(-8.0, 1.2))
        m0 = rng.integers(0, k, size=size)
        m1 = rng.integers(0, m - m0 + 1)
        lower = np.where(m1 >= m - k + 1, 1e-6, 1.0 / rho)
        top = 1e4 * max(1.0, 1.0 / rho)
        gamma = np.exp(rng.uniform(np.log(lower), math.log(top)))
        gamma[rng.random(size) < 0.1] = top
        keep = (m1 > 0) | (m1 + m0 < m)
        values, counts = _boundary_rows(m, rho, m1[keep], m0[keep], gamma[keep])
        yield m, c, values, counts


def _mp_root(values, counts, c):
    # |theta_{m+1}| of one grouped row by bisection at 30 digits
    with mp.workdps(30):
        m = int(sum(counts))
        kappa = m * mp.mpf(c) ** 2 / (m - 1)
        tau = (kappa + 1) / (m * kappa)
        groups = [(int(n), kappa * mp.mpf(v) ** 2) for v, n in zip(values, counts) if n > 0]
        lo, hi = mp.mpf(m), m + max(x for _, x in groups) / kappa + 1
        while hi - lo > 1e-25 * hi:
            mid = (lo + hi) / 2
            if mp.fsum(n * (1 + tau * x) / (x + mid) for n, x in groups) > 1:
                lo = mid
            else:
                hi = mid
        return float(lo)


def test_root_solve_matches_bisection_then_newton():
    # the geometric bisection + Newton-on-1/F solver against the solver it
    # replaced: the two must agree within the window that the constraint's
    # float rounding leaves the root.  Where they do not, the old solver's
    # four Newton steps had not converged (a far root at small rho), so a
    # 30-digit root must put the new one inside that window and the old one
    # outside.
    rng = np.random.default_rng(1101)
    checked = unconverged = 0
    for m, c, values, counts in _search_root_batches(rng, 60, 40):
        kappa = m * c * c / (m - 1)
        tau = (kappa + 1.0) / (m * kappa)
        x = kappa * values * values
        new, old = _roots_batch(x, counts, tau, m), _bisection_newton_roots(x, counts, tau, m)
        for i in range(x.shape[0]):
            cfg = GammaConfig(np.repeat(values[i], counts[i].astype(int)), c)
            r = _root_window(cfg, old[i])
            checked += 1
            if abs(new[i] - old[i]) > r * old[i]:
                exact = _mp_root(values[i], counts[i], c)
                assert abs(new[i] - exact) <= r * exact < abs(old[i] - exact), cfg
                unconverged += 1
    assert checked >= 2000 and unconverged <= 5
    for _ in range(600):
        cfg = _extreme_config(rng)
        x = cfg.x[None, :]
        n = np.ones_like(x)
        new = _roots_batch(x, n, cfg.tau, cfg.m)[0]
        old = _bisection_newton_roots(x, n, cfg.tau, cfg.m)[0]
        assert abs(new - old) <= _root_window(cfg, old) * old, (cfg, new, old)
