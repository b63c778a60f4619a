"""Characteristic-function evaluation and its unique negative root."""
import math

import numpy as np
import pytest

from stc.charpoly import GammaConfig, g_value, negative_root, theta_lower_bound
from stc.errors import InvalidParameterError
from stc.rejection import DEFAULT_SETTINGS, _tail_quadrature

RNG_SWEEP = 1000


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
