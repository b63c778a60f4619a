"""t-statistic, worst-case p-values, intervals, frontiers, and power."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stc.critical_values import _first_true
from stc.errors import InvalidParameterError, NumericalFailureError
from stc.inference import (
    ClusterEstimates,
    RhoFrontier,
    Sided,
    confidence_interval,
    large_m_approx_power,
    p_value,
    power_lower_bound,
    rho_frontier,
    run_test,
    t_statistic,
    t_statistics,
)
from stc.simulate import empirical_rejection_rate
from stc.worstcase import HeterogeneitySpec, p_max

SPEC51 = HeterogeneitySpec(m=5, k=1, rho=1.0)


def _est_with_t(t: float) -> ClusterEstimates:
    # five controls with mean 0 and unit sample SD, treated at t
    return ClusterEstimates(np.array([-1.0, -1.0, 0.0, 1.0, 1.0]), t)


# ------------------------------------------------------------ statistic


def test_t_statistic_hand_values():
    t, effect, s = t_statistic(ClusterEstimates(np.array([1.0, 2.0, 3.0]), 2.0))
    assert (t, effect, s) == (0.0, 0.0, 1.0)
    t, effect, s = t_statistic(ClusterEstimates(np.array([0.0, 2.0]), 4.0))
    assert s == pytest.approx(math.sqrt(2.0))
    assert t == pytest.approx(3.0 / math.sqrt(2.0))
    t, effect, s = t_statistic(ClusterEstimates(np.array([0.0, 0.0]), 5.0))
    assert t == math.inf and effect == 5.0 and s == 0.0
    t, _, _ = t_statistic(ClusterEstimates(np.array([1.0, 1.0]), -2.0))
    assert t == -math.inf


def test_t_statistic_invariances():
    rng = np.random.default_rng(6)
    for _ in range(20):
        controls = rng.normal(size=6)
        treated = float(rng.normal())
        t0, _, _ = t_statistic(ClusterEstimates(controls, treated))
        shift = float(rng.normal()) * 3.0
        scale = float(rng.uniform(0.1, 9.0))
        t1, _, _ = t_statistic(ClusterEstimates(controls + shift, treated + shift))
        t2, _, _ = t_statistic(ClusterEstimates(controls * scale, treated * scale))
        assert t1 == pytest.approx(t0, rel=1e-9, abs=1e-12)
        assert t2 == pytest.approx(t0, rel=1e-9, abs=1e-12)


def test_estimates_validation():
    with pytest.raises(InvalidParameterError):
        ClusterEstimates(np.array([1.0]), 0.0)
    with pytest.raises(InvalidParameterError):
        ClusterEstimates(np.array([1.0, np.nan]), 0.0)
    with pytest.raises(InvalidParameterError):
        ClusterEstimates(np.array([1.0, 2.0]), math.inf)


# -------------------------------------------------------------- p-value


def test_p_value_extremes_and_anchor():
    assert p_value(_est_with_t(0.0), SPEC51) == 1.0
    assert p_value(_est_with_t(3.041), SPEC51) == pytest.approx(0.05, abs=2e-4)
    assert p_value(ClusterEstimates(np.array([0.0] * 5), 1.0), SPEC51) == 0.0


def test_p_value_one_sided_split():
    est = _est_with_t(2.5)
    two = p_value(est, SPEC51)
    assert p_value(est, SPEC51, Sided.ONE_SIDED_GREATER) == 0.5 * two
    assert p_value(est, SPEC51, Sided.ONE_SIDED_LESS) == 1.0 - 0.5 * two
    neg = _est_with_t(-2.5)
    assert p_value(neg, SPEC51, Sided.ONE_SIDED_LESS) == 0.5 * two
    assert p_value(neg, SPEC51, Sided.ONE_SIDED_GREATER) == 1.0 - 0.5 * two


def test_p_value_decreasing_in_t():
    ps = [p_value(_est_with_t(t), SPEC51) for t in (0.5, 1.0, 2.0, 3.0, 5.0)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_p_value_matches_worst_case_tail():
    for t in (1.2, 2.7, 4.0):
        est = _est_with_t(t)
        direct = p_max(5, t, SPEC51).value
        assert p_value(est, SPEC51) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------- test and interval


def test_run_test_report_consistency():
    est = _est_with_t(3.5)
    report = run_test(est, SPEC51, alpha=0.05)
    assert report.t_stat == pytest.approx(3.5)
    assert report.reject is (abs(report.t_stat) > report.cv.cv)
    assert report.reject  # 3.5 clears the ~3.041 critical value
    lo, hi = report.ci
    assert lo == pytest.approx(report.effect - report.cv.cv * report.control_sd)
    assert hi == pytest.approx(report.effect + report.cv.cv * report.control_sd)
    assert not report.degenerate


def test_reject_iff_p_below_alpha():
    # decision/p-value duality, away from the bisection-width boundary
    for t in (0.8, 1.5, 2.9, 3.2, 4.5, 8.0):
        for alpha in (0.01, 0.05, 0.1):
            report = run_test(_est_with_t(t), SPEC51, alpha=alpha)
            if report.p_value <= alpha - 1e-3:
                assert report.reject
            if report.p_value >= alpha + 1e-3:
                assert not report.reject


def test_confidence_interval_anchor_and_nesting():
    est = _est_with_t(0.0)  # effect 0, control sd 1
    lo, hi = confidence_interval(est, SPEC51, 0.05)
    assert hi == pytest.approx(3.0414, abs=2e-4)
    assert lo == pytest.approx(-hi)
    lo99, hi99 = confidence_interval(est, SPEC51, 0.01)
    assert lo99 < lo and hi < hi99  # stricter level widens the interval


def test_confidence_interval_translation_and_scale():
    controls = np.array([0.3, -0.8, 1.1, 0.4, -0.6])
    base = confidence_interval(ClusterEstimates(controls, 1.0), SPEC51, 0.05)
    shifted = confidence_interval(ClusterEstimates(controls, 3.5), SPEC51, 0.05)
    assert shifted[0] == pytest.approx(base[0] + 2.5, rel=1e-9)
    assert shifted[1] == pytest.approx(base[1] + 2.5, rel=1e-9)
    scaled = confidence_interval(ClusterEstimates(2.0 * controls, 2.0), SPEC51, 0.05)
    assert scaled[0] == pytest.approx(2.0 * base[0], rel=1e-9)
    assert scaled[1] == pytest.approx(2.0 * base[1], rel=1e-9)


def test_interval_test_duality():
    # theta0 lies inside the interval iff the test of effect = theta0 accepts
    est = ClusterEstimates(np.array([0.3, -0.8, 1.1, 0.4, -0.6]), 2.0)
    lo, hi = confidence_interval(est, SPEC51, 0.05)
    width = hi - lo
    for theta0, inside in [
        (lo + 0.01 * width, True),
        (hi - 0.01 * width, True),
        (lo - 0.01 * width, False),
        (hi + 0.01 * width, False),
    ]:
        shifted = ClusterEstimates(est.controls, est.treated - theta0)
        report = run_test(shifted, SPEC51, alpha=0.05)
        assert report.reject is (not inside)


def test_degenerate_report():
    est = ClusterEstimates(np.array([0.0, 0.0, 0.0, 0.0, 0.0]), 5.0)
    report = run_test(est, SPEC51, alpha=0.05)
    assert report.degenerate
    assert report.t_stat == math.inf
    assert report.p_value == 0.0
    assert report.reject
    assert report.ci == (5.0, 5.0)
    less = run_test(est, SPEC51, alpha=0.05, sided=Sided.ONE_SIDED_LESS)
    assert not less.reject
    assert less.p_value == 1.0


@pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3, 123.456])
def test_equal_controls_have_exactly_zero_spread(value):
    # the rounded mean of equal controls is not always their value; the
    # spread is still exactly 0 and the effect is measured from the value
    for m in range(2, 201):
        controls = np.full(m, value)
        for treated, t in [(value + 1.0, math.inf), (value - 1.0, -math.inf), (value, 0.0)]:
            assert t_statistic(ClusterEstimates(controls, treated)) == (t, treated - value, 0.0)
    for m in [2, 3, 4, 17, 200]:
        est = ClusterEstimates(np.full(m, value), value + 1.0)
        spec = HeterogeneitySpec(m=m, k=1, rho=1.0)
        point = (est.treated - value,) * 2
        report = run_test(est, spec, alpha=0.05)
        assert report.degenerate and report.reject and report.p_value == 0.0
        assert report.ci == point == confidence_interval(est, spec, alpha=0.05)
        less = run_test(est, spec, alpha=0.05, sided=Sided.ONE_SIDED_LESS)
        assert less.degenerate and not less.reject and less.p_value == 1.0
        assert less.ci == point


def test_huge_spreads_do_not_overflow_the_t_statistic():
    # squared deviations above about 1e308 used to give s = inf and t = 0
    assert t_statistic(ClusterEstimates([0.0, 1e200, -1e200], 5e200)) == (5.0, 5e200, 1e200)
    assert t_statistic(ClusterEstimates([0.0, 1e160, -1e160], 1e160)) == (1.0, 1e160, 1e160)
    est = ClusterEstimates(np.full(7, 1e300), 2e300)
    assert t_statistic(est) == (math.inf, 1e300, 0.0)
    report = run_test(est, HeterogeneitySpec(m=7, k=1, rho=1.0), alpha=0.05)
    assert report.degenerate and report.control_sd == 0.0
    assert report.reject and report.p_value == 0.0
    # ordinary rows beside an overflowing one keep their bits
    rows = np.array([[1.0, 2.0, 4.0, 3.0], [0.0, 1e200, -1e200, 5e200], [0.1, 0.2, 0.7, -1.0]])
    t, effect, s = t_statistics(rows)
    for i in (0, 2):
        assert (t[i], effect[i], s[i]) == tuple(x[0] for x in t_statistics(rows[i:i + 1]))
    assert (t[1], effect[1], s[1]) == (5.0, 5e200, 1e200)


def test_sided_must_be_a_sided():
    # a string used to fall through to the less-side rule
    est = _est_with_t(3.5)
    for sided in ["greater", "TwoSided", None, 1]:
        with pytest.raises(InvalidParameterError, match="sided must be a Sided"):
            p_value(est, SPEC51, sided)
        with pytest.raises(InvalidParameterError, match="sided must be a Sided"):
            run_test(est, SPEC51, alpha=0.05, sided=sided)


def test_spec_for_another_m_is_rejected():
    est = _est_with_t(2.0)
    spec4 = HeterogeneitySpec(m=4, k=1, rho=1.0)
    with pytest.raises(InvalidParameterError, match="does not match data m=5"):
        p_value(est, spec4)
    with pytest.raises(InvalidParameterError, match="does not match data m=5"):
        run_test(est, spec4, alpha=0.05)


def test_confidence_interval_with_zero_control_spread_is_a_point():
    est = ClusterEstimates(np.array([1.0, 1.0, 1.0, 1.0, 1.0]), 3.0)
    assert confidence_interval(est, SPEC51, alpha=0.05) == (2.0, 2.0)
    # the spec and alpha are checked as run_test checks them, spread or not
    with pytest.raises(InvalidParameterError, match="does not match m=3"):
        confidence_interval(ClusterEstimates(np.ones(3), 2.0), SPEC51, alpha=0.05)
    with pytest.raises(InvalidParameterError, match="alpha must lie in"):
        confidence_interval(est, SPEC51, alpha=0.9)


def test_one_sided_intervals():
    est = _est_with_t(3.5)
    greater = run_test(est, SPEC51, alpha=0.05, sided=Sided.ONE_SIDED_GREATER)
    assert greater.ci[1] == math.inf
    less = run_test(est, SPEC51, alpha=0.05, sided=Sided.ONE_SIDED_LESS)
    assert less.ci[0] == -math.inf
    # the one-sided cv at alpha equals the two-sided cv at 2*alpha
    two = run_test(est, SPEC51, alpha=0.1)
    assert greater.cv.cv == two.cv.cv


# -------------------------------------------------------------- frontier


def test_frontier_zero_and_infinite_cases():
    flat = rho_frontier(ClusterEstimates(np.array([1.0, 2.0, 3.0]), 2.0), 0.05)
    assert flat.bounds == (0.0, 0.0, 0.0)
    tiny = rho_frontier(ClusterEstimates(np.array([1.0, 2.0, 3.0]), 2.5), 0.05)
    assert tiny.bounds == (0.0, 0.0, 0.0)  # |t|=0.5 is below the worthless cutoff
    inf = rho_frontier(ClusterEstimates(np.array([1.0, 1.0]), 9.0), 0.05)
    assert inf.bounds == (math.inf, math.inf)
    # |t| = m^{-1/2}: p_max is 1 at every rho, so even alpha = 0.6 breaks at 0
    controls = np.array([-1.0, -1.0, 1.0, 1.0])
    edge = ClusterEstimates(controls, 0.5 * float(np.std(controls, ddof=1)))
    assert rho_frontier(edge, 0.6).bounds == (0.0,) * 4


def test_frontier_shape_and_duality():
    est = ClusterEstimates(np.array([0.1, -0.2, 0.15, -0.05]), 2.4)
    frontier = rho_frontier(est, 0.05)
    m = est.m
    assert isinstance(frontier, RhoFrontier) and len(frontier.bounds) == m
    assert all(
        a >= b - 1e-12 for a, b in zip(frontier.bounds, frontier.bounds[1:])
    )  # nonincreasing in k
    t = abs(t_statistic(est)[0])
    for k, rho_hat in enumerate(frontier.bounds, start=1):
        assert math.isfinite(rho_hat) and rho_hat > 0
        eps = 1e-3 * max(rho_hat, 1.0)
        above = p_max(m, t, HeterogeneitySpec(m=m, k=k, rho=rho_hat + eps)).value
        below = p_max(m, t, HeterogeneitySpec(m=m, k=k, rho=max(rho_hat - eps, 0.0))).value
        assert above > 0.05
        assert below <= 0.05 + 1e-9


def test_frontier_at_m10_brackets_each_bound():
    # one seeded panel with t = 4: every bound is finite, positive and
    # distinct, and p_max crosses alpha within 1e-3 of it (about 11 s)
    rng = np.random.default_rng(2026)
    controls = rng.normal(size=10)
    est = ClusterEstimates(controls, float(np.mean(controls) + 4.0 * np.std(controls, ddof=1)))
    t = abs(t_statistic(est)[0])
    bounds = rho_frontier(est, 0.05).bounds
    assert len(bounds) == 10
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    for k, rho_hat in enumerate(bounds, start=1):
        assert 0.0 < rho_hat < math.inf
        above, below = (p_max(10, t, HeterogeneitySpec(m=10, k=k, rho=rho_hat * f)).value
                        for f in (1 + 1e-3, 1 - 1e-3))
        assert above > 0.05 >= below, k


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    controls=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6),
    treated=st.floats(-8.0, 8.0),
    k=st.integers(1, 3),
    rho=st.sampled_from([0.3, 1.0, 2.0]),
    alpha=st.sampled_from([0.01, 0.05, 0.1, 0.2]),
    sided=st.sampled_from(list(Sided)),
)
def test_reject_is_p_value_at_most_alpha(controls, treated, k, rho, alpha, sided):
    # duality of the test and the p-value: they can disagree only when |t|
    # falls inside the critical value's 5e-5 bisection bracket
    est = ClusterEstimates(np.array(controls), treated)
    spec = HeterogeneitySpec(m=est.m, k=min(k, est.m), rho=rho)
    report = run_test(est, spec, alpha, sided)
    if report.cv.cv - 5e-5 <= abs(report.t_stat) <= report.cv.cv:
        return
    assert report.reject == (report.p_value <= alpha)


def _plain_frontier(est, alpha):
    """`_first_true` on p_max itself, with rho_frontier's brackets and clip."""
    t = abs(t_statistic(est)[0])
    bounds, prev = [], math.inf
    for k in range(1, est.m + 1):
        def exceeds(rho):
            return p_max(est.m, t, HeterogeneitySpec(est.m, k, rho), stop_above=alpha).value > alpha
        _, hi = _first_true(exceeds, 0.0, prev if math.isfinite(prev) else 1.0, rel_tol=1e-4)
        prev = min(hi, prev)
        bounds.append(prev)
    return tuple(bounds)


def _frontier_panels():
    rng = np.random.default_rng(7)
    for m in (3, 3, 4, 5, 5):
        controls = rng.normal(size=m)
        t = rng.uniform(3.0, 8.0)
        yield ClusterEstimates(controls, float(np.mean(controls) + t * np.std(controls, ddof=1)))


@pytest.mark.parametrize("alpha", [0.05, 0.1])
def test_frontier_equals_bisection_on_p_max(alpha):
    for est in _frontier_panels():
        bounds = rho_frontier(est, alpha).bounds
        assert bounds[0] > 0.0 and bounds == _plain_frontier(est, alpha)


@pytest.mark.parametrize("distort", [lambda v: v + 1e-3, lambda v: max(v - 1e-2, 0.0)],
                         ids=["over", "under"])
def test_frontier_branch_that_disagrees_with_p_max_fails_loudly(monkeypatch, distort):
    import stc.inference as inference

    true_value = inference._branch_value
    monkeypatch.setattr(inference, "_branch_value",
                        lambda m, c, spec, branch: distort(true_value(m, c, spec, branch)))
    with pytest.raises(NumericalFailureError):
        rho_frontier(ClusterEstimates(np.array([0.1, -0.2, 0.15, -0.05]), 2.4), 0.05)


def test_frontier_monotone_in_alpha():
    est = ClusterEstimates(np.array([0.1, -0.2, 0.15, -0.05]), 2.4)
    strict = rho_frontier(est, 0.01)
    loose = rho_frontier(est, 0.1)
    for s, l in zip(strict.bounds, loose.bounds):
        assert s <= l + 1e-9


# ----------------------------------------------------------------- power


def test_power_lower_bound_hand_value():
    # 1 - (1 + 2*(4 + 1/4)/4 * 4) / 100 = 0.905
    sigmas = np.ones(5)
    assert power_lower_bound(10.0, sigmas, c=2.0) == pytest.approx(0.905, rel=1e-12)


def test_power_lower_bound_limits_and_clamp():
    sigmas = np.ones(5)
    assert power_lower_bound(1e9, sigmas, c=2.0) == pytest.approx(1.0, abs=1e-9)
    assert power_lower_bound(0.5, sigmas, c=2.0) == 0.0  # clamped at zero
    with pytest.raises(InvalidParameterError):
        power_lower_bound(-1.0, sigmas, c=2.0)


def test_power_lower_bound_via_monte_carlo():
    # the bound must lie below the simulated rejection rate
    sigmas = np.array([1.0, 1.3, 0.7, 1.0, 1.1, 1.0])  # 5 controls + treated
    for delta in (4.0, 6.0, 10.0):
        bound = power_lower_bound(delta, sigmas, c=3.041)
        mc = empirical_rejection_rate(sigmas, delta=delta, c=3.041, reps=200_000, seed=5)
        assert mc.rejection_rate >= bound - 3.0 * mc.se


def test_large_m_power_at_null_is_alpha():
    # with the treated SD on the feasibility boundary the approximation is
    # exact at delta = 0
    m, rho, alpha = 40, 1.5, 0.05
    sig = np.full(m, 0.8)
    sigma_treated = rho * 0.8
    got = large_m_approx_power(1e-300, sigma_treated, sig, m, k=1, rho=rho, alpha=alpha)
    assert got == pytest.approx(alpha, rel=1e-9)


def test_large_m_power_monotone():
    m = 30
    sig = np.ones(m)
    powers = [
        large_m_approx_power(d, 1.0, sig, m, k=1, rho=1.0, alpha=0.05)
        for d in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_large_m_power_matches_simulation():
    m, rho, alpha, delta = 200, 1.0, 0.05, 1.5
    sig = np.ones(m)
    approx = large_m_approx_power(delta, 1.0, sig, m, k=1, rho=rho, alpha=alpha)
    # simulate the actual test at its exact critical value
    from stc.critical_values import critical_value

    cv = critical_value(m, alpha, HeterogeneitySpec(m=m, k=1, rho=rho)).cv
    sigmas = np.ones(m + 1)
    mc = empirical_rejection_rate(sigmas, delta=delta, c=cv, reps=150_000, seed=77)
    assert approx == pytest.approx(mc.rejection_rate, abs=0.02)
