"""Worst-case rejection probability: branches, optimizer, and the maximum."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stc.charpoly import GammaConfig
from stc.critical_values import _closed_form_k1
from stc.distributions import t_quantile, t_two_sided_tail
from stc.errors import InvalidParameterError, NumericalFailureError
from stc.rejection import DEFAULT_SETTINGS, _tails_for_gamma_rows, rejection_probability
from stc.simulate import empirical_rejection_rate
from stc.worstcase import (
    Boundary,
    HeterogeneitySpec,
    ZeroTreated,
    _boundary_rows,
    _branch_order,
    _branch_value,
    _optimize_gamma_branches,
    p_bar,
    p_max,
    p_tilde,
    p_zero_treated,
)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        HeterogeneitySpec(m=1, k=1, rho=1.0)
    with pytest.raises(InvalidParameterError):
        HeterogeneitySpec(m=5, k=0, rho=1.0)
    with pytest.raises(InvalidParameterError):
        HeterogeneitySpec(m=5, k=6, rho=1.0)
    with pytest.raises(InvalidParameterError):
        HeterogeneitySpec(m=5, k=1, rho=-0.5)


def test_zero_treated_regimes():
    # below the degeneracy threshold every configuration rejects surely
    assert p_zero_treated(4, 0.49) == 1.0
    assert p_zero_treated(4, 0.5) == 1.0  # at c = m^{-1/2} too, as in p_max
    val = p_zero_treated(4, 1.2)
    assert 0.0 < val < 0.5
    # recompute the finite max over the active-control count directly
    m, c = 4, 1.2
    r = m * m * c * c / (m * c * c + m - 1.0)
    terms = {
        j: t_two_sided_tail(j - 1, math.sqrt((j - 1) * r / (j - r)))
        for j in range(math.floor(r) + 1, m + 1)
    }
    assert val == pytest.approx(max(terms.values()), abs=1e-12)


def test_zero_treated_at_huge_thresholds():
    # r rounds to m from about c = 1e8 (m = 4) and c^2 overflows at 1e200;
    # m - r is formed without cancellation, so the j = m tail is kept, and
    # its threshold sqrt((m-1) r / (m - r)) is exactly sqrt(m) c
    values = [p_zero_treated(4, c) for c in (7e7, 1e8, 1e12, 1e200)]
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values, reverse=True)
    assert values[1] == pytest.approx(t_two_sided_tail(3, 2e8), rel=1e-12)


def test_p_max_past_the_root_bracket_is_a_numerical_failure():
    # 1/kappa = m*tau - 1 rounds to 0 above about c = 1.26e8 at m = 4
    with pytest.raises(NumericalFailureError):
        p_max(4, 1e12, HeterogeneitySpec(m=4, k=1, rho=1.0))


def test_zero_treated_monte_carlo_per_branch():
    # simulate each active-control count: j unit-variance controls, the rest
    # (and the treated draw) at zero variance
    m, c = 4, 1.2
    r = m * m * c * c / (m * c * c + m - 1.0)
    for j in (3, 4):
        analytic = t_two_sided_tail(j - 1, math.sqrt((j - 1) * r / (j - r)))
        sigmas = np.zeros(m + 1)
        sigmas[:j] = 1.0
        mc = empirical_rejection_rate(sigmas, delta=0.0, c=c, reps=300_000, seed=99)
        assert abs(analytic - mc.rejection_rate) <= 4.0 * mc.se


def test_p_bar_matches_direct_tail():
    # the structured boundary row is just a ratio configuration
    m, c, rho = 6, 2.5, 2.0
    direct = rejection_probability(
        GammaConfig(np.array([0.5, 0.5, 0.0, 1.3, 1.3, 1.3]), c)
    )
    assert p_bar(m, c, rho, 1.3, m1=2, m0=1) == pytest.approx(direct, rel=1e-12)


def test_p_bar_continuity_at_pinned_ratio():
    # sending the free ratio to rho^{-1} merges into the fully pinned branch
    m, c, rho = 6, 2.5, 2.0
    pinned = p_bar(m, c, rho, None, m1=m, m0=0)
    nearly = p_bar(m, c, rho, 1.0 / rho, m1=m - 1, m0=0)
    assert nearly == pytest.approx(pinned, rel=1e-12)
    # and without free columns the gamma argument is irrelevant
    assert p_bar(m, c, rho, 5.0, m1=m, m0=0) == pinned


def test_p_bar_rejects_degenerate_branches():
    with pytest.raises(InvalidParameterError):
        p_bar(4, 2.0, 1.5, None, m1=0, m0=4)
    with pytest.raises(InvalidParameterError):
        p_bar(4, 2.0, 1.5, 0.0, m1=0, m0=2)
    with pytest.raises(InvalidParameterError):
        p_bar(4, 2.0, 1.5, None, m1=3, m0=0)  # free columns need gamma


def test_p_tilde_dominates_any_grid():
    m, k, rho = 6, 1, 2.0
    c = math.sqrt(rho * rho + 1.0 / m) * t_quantile(m - 1, 0.975)
    for m1, m0 in ((0, 0), (3, 0), (5, 0)):
        best = p_tilde(m, c, k, rho, m1, m0)
        lower = 0.0 if m1 >= m - k + 1 else 1.0 / rho
        for g in np.geomspace(max(lower, 1e-4), 50.0, 40):
            assert p_bar(m, c, rho, float(g), m1, m0) <= best + 1e-7


def test_p_tilde_finds_boundary_argmax():
    # common-ratio branch: the tail is decreasing in gamma, so the supremum
    # sits at the domain's lower end rho^{-1}
    m, k, rho = 6, 1, 2.0
    c = math.sqrt(rho * rho + 1.0 / m) * t_quantile(m - 1, 0.975)
    got = p_tilde(m, c, k, rho, m1=0, m0=0)
    at_lower = p_bar(m, c, rho, 1.0 / rho, m1=0, m0=0)
    assert got == pytest.approx(at_lower, rel=1e-6)


def test_p_max_degenerate_threshold():
    res = p_max(4, 0.5, HeterogeneitySpec(m=4, k=1, rho=1.0))
    assert res.value == 1.0
    assert res.diagnostics.degenerate
    assert isinstance(res.achieving_config, ZeroTreated)


def test_p_max_rho_zero_reduces_to_zero_treated():
    for m, c in ((4, 1.2), (7, 2.0)):
        res = p_max(m, c, HeterogeneitySpec(m=m, k=2, rho=0.0))
        assert res.value == p_zero_treated(m, c)
        assert isinstance(res.achieving_config, ZeroTreated)
        assert res.achieving_config.j == res.diagnostics.zero_treated_j


def test_p_max_k1_closed_form():
    # at k=1 and moderate alpha the maximum is every control pinned at
    # rho^{-1}, where T is an exact scaled t_{m-1}
    for m, rho in ((4, 1.0), (6, 2.0), (10, 1.0), (10, 2.0)):
        c = math.sqrt(rho * rho + 1.0 / m) * t_quantile(m - 1, 0.975)
        res = p_max(m, c, HeterogeneitySpec(m=m, k=1, rho=rho))
        assert res.value == pytest.approx(0.05, abs=1e-6)
        # ties may be reported through an equivalent branch whose free ratio
        # landed on rho^{-1}; either way the achieving point is all-pinned
        cfg = res.achieving_config
        assert isinstance(cfg, Boundary) and cfg.m0 == 0
        assert cfg.m1 == m or cfg.gamma == pytest.approx(1.0 / rho, rel=1e-4)


def test_k1_closed_form_ties_report_the_pinned_branch():
    # a free ratio equal to rho^{-1} is merged into the pinned group, so
    # every branch that reaches the all-pinned vector ties bit for bit and
    # the first branch in order, (m, 0), is reported
    for m in (4, 10, 100):
        c = _closed_form_k1(m, 0.05, 1.0)
        res = p_max(m, c, HeterogeneitySpec(m=m, k=1, rho=1.0))
        assert res.achieving_config == Boundary(m1=m, m0=0, gamma=None)


def test_p_max_anchor_values():
    res = p_max(5, 3.041, HeterogeneitySpec(m=5, k=1, rho=1.0))
    assert res.value == pytest.approx(0.05, abs=2e-4)
    c = math.sqrt(4.0 + 0.1) * t_quantile(9, 0.995)
    assert c == pytest.approx(6.580, abs=5e-4)
    res = p_max(10, c, HeterogeneitySpec(m=10, k=1, rho=2.0))
    assert res.value == pytest.approx(0.01, abs=1e-6)


def test_random_feasible_configs_never_beat_maximum():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, m + 1))
        rho = float(rng.uniform(0.4, 3.0))
        c = float(rng.uniform(1.05 / math.sqrt(m), 4.0))
        res = p_max(m, c, HeterogeneitySpec(m=m, k=k, rho=rho))
        for _ in range(8):
            gammas = rng.uniform(1.0 / rho, 4.0 / rho, size=m)
            n_below = int(rng.integers(0, k))  # at most k-1 may dip below
            if n_below:
                idx = rng.choice(m, size=n_below, replace=False)
                gammas[idx] = rng.uniform(0.0, 1.0 / rho, size=n_below)
            if not np.any(gammas > 0):
                continue
            p = rejection_probability(GammaConfig(gammas, c))
            assert p <= res.value + 1e-6


def test_p_max_monotone_in_rho_k_and_c():
    m = 6
    spec = lambda k, rho: HeterogeneitySpec(m=m, k=k, rho=rho)
    vals_rho = [p_max(m, 2.5, spec(2, rho)).value for rho in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-9 for a, b in zip(vals_rho, vals_rho[1:]))
    vals_k = [p_max(m, 2.5, spec(k, 1.5)).value for k in (1, 2, 3, 4)]
    assert all(a <= b + 1e-9 for a, b in zip(vals_k, vals_k[1:]))
    vals_c = [p_max(m, c, spec(2, 1.5)).value for c in (1.0, 1.8, 2.6, 3.4)]
    assert all(a >= b - 1e-9 for a, b in zip(vals_c, vals_c[1:]))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 8),
    k_frac=st.floats(0.0, 1.0),
    rho=st.floats(0.0, 3.0),  # subnormals included
    c_scale=st.floats(1.01, 8.0),
    step=st.floats(1.01, 1.5),
)
def test_p_max_is_monotone(m, k_frac, rho, c_scale, step):
    # the certified inversions replay a bisection on branch values; that it
    # is p_max's own bisection rests on this monotonicity
    k = min(1 + int(k_frac * m), m)
    c = c_scale / math.sqrt(m)

    def p(c=c, k=k, rho=rho):
        return p_max(m, c, HeterogeneitySpec(m=m, k=k, rho=rho)).value

    here = p()
    assert p(c=c * step) <= here + 1e-9
    assert p(rho=rho * step + 0.01) >= here - 1e-9
    if k < m:
        assert p(k=k + 1) >= here - 1e-9


@pytest.mark.parametrize("rho", [1e-75, 1e-160, 1e-200])
def test_p_max_at_tiny_rho_is_the_zero_treated_limit(rho):
    # at 1e-75 the kernel still runs on boundary ratios near 1e79; below
    # about 1e-150 they would overflow, and p_max is its rho -> 0+ limit
    spec = HeterogeneitySpec(m=3, k=1, rho=rho)
    res = p_max(3, 2.0, spec)
    assert abs(res.value - p_zero_treated(3, 2.0)) <= 1e-12
    # the certified inversions read the same value branch by branch
    traces = {(tr.m1, tr.m0): tr.value for tr in res.diagnostics.branches}
    assert _branch_value(3, 2.0, spec, (3, 0)) == traces.get((3, 0), res.value)


def test_branch_value_equals_each_p_max_trace():
    rng = np.random.default_rng(10)
    for _ in range(12):
        m = int(rng.integers(2, 9))
        k = int(rng.integers(1, m + 1))
        rho = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        c = float(rng.uniform(1.01, 6.0)) / math.sqrt(m)
        spec = HeterogeneitySpec(m=m, k=k, rho=rho)
        res = p_max(m, c, spec)
        assert _branch_value(m, c, spec, None) == res.diagnostics.zero_treated_value
        for tr in res.diagnostics.branches:
            assert _branch_value(m, c, spec, (tr.m1, tr.m0)) == tr.value, (m, k, rho, c, tr)
        if rho == 0.0:  # no boundary branch: each reads the zero-treated value
            assert _branch_value(m, c, spec, (m - k + 1, k - 1)) == res.value
    # at a worthless threshold every branch is 1, as p_max is
    spec = HeterogeneitySpec(m=4, k=2, rho=1.0)
    assert _branch_value(4, 0.5, spec, (3, 1)) == _branch_value(4, 0.5, spec, None) == 1.0


def test_stop_above_certifies_exceedance():
    m, c = 6, 2.5
    spec = HeterogeneitySpec(m=m, k=2, rho=2.0)
    exact = p_max(m, c, spec)
    assert exact.diagnostics.complete
    early = p_max(m, c, spec, stop_above=exact.value * 0.5)
    assert not early.diagnostics.complete
    assert exact.value * 0.5 < early.value <= exact.value + 1e-12
    # a threshold above the maximum cannot trigger the early exit
    full = p_max(m, c, spec, stop_above=exact.value + 0.1)
    assert full.diagnostics.complete
    assert full.value == pytest.approx(exact.value, rel=1e-12)


def test_stop_above_exits_early_in_its_one_pass():
    # p_max searches every branch in one pass, the fixed ones (m1 + m0 = m)
    # first; a free branch wins here, above every fixed one
    m, c = 8, 2.0
    spec = HeterogeneitySpec(m=m, k=2, rho=0.3)
    exact = p_max(m, c, spec)
    fixed = tuple(tr for tr in exact.diagnostics.branches if tr.gamma is None)
    top_fixed = max(tr.value for tr in fixed)
    top_free = max(tr.value for tr in exact.diagnostics.branches if tr.gamma is not None)
    assert top_free > top_fixed
    # below the fixed maximum: no free search starts
    early = p_max(m, c, spec, stop_above=0.5 * top_fixed)
    assert not early.diagnostics.complete
    assert early.diagnostics.branches == fixed
    assert all(tr.n_evals == 1 for tr in fixed)
    assert early.value == top_fixed
    # between the two: the free search's grid phase certifies it and adds
    # exactly one free trace
    threshold = 0.5 * (top_fixed + top_free)
    early = p_max(m, c, spec, stop_above=threshold)
    assert not early.diagnostics.complete
    assert tuple(tr for tr in early.diagnostics.branches if tr.gamma is None) == fixed
    (added,) = (tr for tr in early.diagnostics.branches if tr.gamma is not None)
    assert early.value == added.value > threshold
    assert early.achieving_config == Boundary(added.m1, added.m0, added.gamma)


def test_branch_budget_respected():
    # the enumeration solves at most k(2m+1-k)/2 free-ratio problems
    m, c = 9, 2.8
    for k in (1, 3, 5):
        res = p_max(m, c, HeterogeneitySpec(m=m, k=k, rho=1.7))
        n_free = sum(1 for tr in res.diagnostics.branches if tr.gamma is not None)
        assert n_free <= k * (2 * m + 1 - k) // 2


def test_p_max_branches_match_single_branch_p_tilde():
    # p_max optimizes its free-ratio branches in one lock-step group; each
    # branch's trace must equal the branch optimized alone (p_tilde), with
    # the same number of kernel evaluations
    for m, k, rho, c in ((6, 2, 2.0, 2.5), (8, 3, 0.7, 3.0), (11, 2, 1.5, 2.2)):
        res = p_max(m, c, HeterogeneitySpec(m=m, k=k, rho=rho))
        assert res.diagnostics.complete
        free = [tr for tr in res.diagnostics.branches if tr.gamma is not None]
        assert len(free) >= 2
        for tr in free:
            assert p_tilde(m, c, k, rho, tr.m1, tr.m0) == pytest.approx(tr.value, abs=1e-12)
            (alone,) = _optimize_gamma_branches(m, c, rho, [(tr.m1, tr.m0, tr.rho_lower)], None)
            assert alone.n_evals == tr.n_evals
            assert alone.gamma == tr.gamma


def _dense_sweep_cases():
    rng = np.random.default_rng(61)
    for _ in range(12):
        m = int(rng.integers(2, 13))
        k = int(rng.integers(1, m + 1))
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        c = m**-0.5 * math.exp(rng.uniform(math.log(1.0 + 1e-6), math.log(17.0)))
        yield m, k, rho, c
    # a narrow interior bump above the domain end gamma = 0: a 12-point grid
    # never samples the first two; in the third the grid ranks the end
    # first, so refining the grid argmax alone misses the bump
    yield 10, 8, 0.2416754400488917, 3.0709178757983775
    yield 10, 9, 0.16780754469428982, 1.7495220583374218
    yield 8, 4, 0.15394710861832775, 0.9189355831579725


def test_dense_gamma_sweep_backs_the_coarse_grid():
    # the branch search samples a coarse grid and refines its peaks; this
    # sweeps every free branch over 300 log-spaced gammas on the default
    # rule, independently of the search.  Each branch has at most one
    # interior strict local maximum (steps under 1e-14 count as flat), and
    # the search never reports less than the sweep's maximum.
    for m, k, rho, c in _dense_sweep_cases():
        branches = [
            (m1, m0, 0.0 if m1 >= m - k + 1 else 1.0 / rho)
            for m1, m0 in _branch_order(m, k)
            if m1 + m0 < m
        ]
        traces = _optimize_gamma_branches(m, c, rho, branches, None)
        for (m1, m0, rho_lower), trace in zip(branches, traces):
            gammas = np.geomspace(max(rho_lower, 1e-6), 1e4 * max(1.0, 1.0 / rho), 300)
            if rho_lower == 0.0 and m1 > 0:
                gammas = np.concatenate([[0.0], gammas])
            values, counts = _boundary_rows(m, rho, m1, m0, gammas)
            sweep = _tails_for_gamma_rows(values, c, DEFAULT_SETTINGS, counts=counts)
            steps = np.diff(sweep)
            signs = np.sign(steps[np.abs(steps) >= 1e-14])
            assert np.sum((signs[:-1] > 0) & (signs[1:] < 0)) <= 1, (m, k, rho, c, m1, m0)
            assert trace.value >= sweep.max() - 1e-10, (m, k, rho, c, m1, m0)


def test_gamma_truncation_loses_nothing_beyond_it():
    # the branch search stops at gamma = 1e4 * max(1, 1/rho); every free
    # branch evaluated far beyond it, at 1e5, 1e6 and 1e8 times that scale,
    # stays at or below p_max (the gamma -> inf limit is the zero-treated one)
    rng = np.random.default_rng(10_000)
    points = 0
    for _ in range(16):
        m = int(rng.integers(2, 13))
        k = int(rng.integers(1, m + 1))
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(1.0 + 1e-3, 11.0)) / math.sqrt(m)
        top = p_max(m, c, HeterogeneitySpec(m=m, k=k, rho=rho)).value
        for m1, m0 in _branch_order(m, k):
            if m1 + m0 < m:
                for scale in (1e5, 1e6, 1e8):
                    gamma = scale * max(1.0, 1.0 / rho)
                    assert p_bar(m, c, rho, gamma, m1, m0) <= top + 1e-12, (m, k, rho, c, m1, m0)
                    points += 1
    assert points >= 1000


@pytest.mark.xfail(strict=True, reason="the tail kernel loses relative accuracy above about "
                   "c = 1e6 (root bracket and F(t) - 1 cancellation)")
def test_p_max_keeps_its_c_cubed_tail_at_huge_thresholds():
    # at m = 4, k = 1, rho = 0.5, p_max * c^3 settles at 0.77970: c = 1e4 and
    # 1e5 agree to 3e-7; it reads 0.77979 at 1e6 and 0.77775 at 1e7
    spec = HeterogeneitySpec(m=4, k=1, rho=0.5)
    settled = p_max(4, 1e4, spec).value * 1e12
    for c in (1e5, 1e6, 1e7):
        assert p_max(4, c, spec).value * c**3 == pytest.approx(settled, rel=1e-6), c


def test_branch_search_cost_is_pinned():
    # kernel evaluations per free branch: grid, Brent probes and the
    # default-rule evaluation of each refined peak
    for m, k, rho, c in ((50, 2, 1.0, 2.05), (11, 2, 1.5, 2.2), (10, 4, 3.0, 1.0), (25, 2, 0.2, 2.3)):
        res = p_max(m, c, HeterogeneitySpec(m=m, k=k, rho=rho))
        free = [tr.n_evals for tr in res.diagnostics.branches if tr.gamma is not None]
        assert np.mean(free) <= 32, (m, k, rho, c, np.mean(free))
