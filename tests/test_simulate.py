"""Monte Carlo harness: determinism, extractor agreement, size and power."""
import math
import threading

import numpy as np
import pytest

from stc import simulate
from stc.critical_values import critical_value
from stc.designs import DesignKind, PanelData, extract
from stc.errors import InvalidParameterError
from stc.inference import ClusterEstimates, t_statistic, t_statistics
from stc.simulate import (
    MCConfig,
    MCResult,
    NormalMeansDesign,
    TwfeDesign,
    empirical_rejection_rate,
    normal_means_t_statistics,
    run,
    twfe_theta_hats,
)
from stc.simulate import (  # white-box checks
    _CHUNK_ROWS,
    _chunk_generator,
    _normal_means_thetas,
    _twfe_chunk_thetas,
    _twfe_draws,
    _twfe_outcomes,
)
from stc.worstcase import HeterogeneitySpec, p_max


def test_design_validation():
    with pytest.raises(InvalidParameterError):
        NormalMeansDesign(dgp=3, m=5)
    with pytest.raises(InvalidParameterError):
        NormalMeansDesign(dgp=1, m=1)
    with pytest.raises(InvalidParameterError):
        TwfeDesign(dgp=6, m=5)
    with pytest.raises(InvalidParameterError):
        TwfeDesign(dgp=1, m=5, sigma=0.0)
    with pytest.raises(InvalidParameterError):
        TwfeDesign(dgp=1, m=5, periods=4, intervention=4)
    with pytest.raises(InvalidParameterError):
        MCConfig(design=NormalMeansDesign(dgp=1, m=5), reps=0, seed=1)


@pytest.mark.parametrize("make", [
    lambda: NormalMeansDesign(dgp=1, m=2.9),
    lambda: TwfeDesign(dgp=1, m=4.5),
    lambda: TwfeDesign(dgp=1, m=4, periods=10.5),
    lambda: TwfeDesign(dgp=1, m=4, intervention=6.5),
    lambda: MCConfig(design=NormalMeansDesign(dgp=1, m=5), reps=2.5, seed=1),
    lambda: MCConfig(design=NormalMeansDesign(dgp=1, m=5), reps=2, seed=1.7),
    lambda: MCConfig(design=NormalMeansDesign(dgp=1, m=5), reps=2, seed=float("nan")),
    lambda: HeterogeneitySpec(5.5, 1, 1.0),
    lambda: HeterogeneitySpec(5, 1.5, 1.0),
    lambda: empirical_rejection_rate(np.ones(4), 0.0, 2.0, reps=10.5, seed=1),
    lambda: normal_means_t_statistics(np.ones(4), 0.0, reps=2.5, seed=1),
    lambda: normal_means_t_statistics(np.ones(4), 0.0, reps=10, seed=1.5),
    lambda: twfe_theta_hats(TwfeDesign(dgp=1, m=4), reps=2.5, seed=1),
    lambda: critical_value(5.5, 0.05, HeterogeneitySpec(5, 1, 1.0)),
    lambda: p_max(5.5, 2.0, HeterogeneitySpec(5, 1, 1.0)),
])
def test_non_integral_counts_are_refused(make):
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        make()


def test_integral_floats_and_numpy_integers_are_accepted():
    config = MCConfig(design=NormalMeansDesign(dgp=1, m=np.int64(5)), reps=10.0,
                      seed=np.uint32(3))
    assert (config.design.m, config.reps, config.seed) == (5, 10, 3)
    assert all(type(v) is int for v in (config.design.m, config.reps, config.seed))
    twfe = TwfeDesign(dgp=1, m=4.0, periods=np.int32(8), intervention=5.0)
    assert (twfe.m, twfe.periods, twfe.intervention) == (4, 8, 5)
    spec = HeterogeneitySpec(np.int16(6), 2.0, 1.0)
    assert (spec.m, spec.k) == (6, 2)


def test_design_parameterizations():
    d2 = NormalMeansDesign(dgp=2, m=5)
    assert d2.control_sigmas() == pytest.approx(
        np.sqrt(1.0 + np.arange(5) / 4.0), rel=1e-12
    )
    assert NormalMeansDesign(dgp=1, m=5).control_sigmas().tolist() == [1.0] * 5
    etas = {dgp: TwfeDesign(dgp=dgp, m=4).eta for dgp in (1, 2, 3, 4, 5)}
    assert etas == {1: 0.5, 2: 0.1, 3: 0.9, 4: 0.5, 5: 0.5}
    assert TwfeDesign(dgp=1, m=4).post_start == 7  # intervention 6, strict start
    assert MCConfig(design=NormalMeansDesign(dgp=1, m=5, rho=1.7), reps=1, seed=0).test_rho == 1.7
    assert MCConfig(design=TwfeDesign(dgp=1, m=5, sigma=2.5), reps=1, seed=0).test_rho == 2.5


def test_t_statistics_degenerate_rows():
    t, _, _ = t_statistics(
        np.array([[1.0, 1.0, 1.0, 4.0], [2.0, 2.0, 2.0, 2.0], [0.0, 2.0, 4.0, 2.0]])
    )
    assert t[0] == math.inf
    assert t[1] == 0.0
    assert t[2] == 0.0
    t, _, _ = t_statistics(np.array([[1.0, 1.0, 1.0, -4.0], [0.0, 1.0, 2.0, 3.0]]))
    assert t[0] == -math.inf
    assert t[1] == pytest.approx(2.0)


def test_each_draws_t_is_the_full_tests_t():
    # the Monte Carlo and the test share one statistic: every draw's t is ==
    # to t_statistic of that draw's estimates, normal and TWFE designs alike
    rng = np.random.default_rng(15)
    draws = 0
    for m in [2, 3, 4, 7, 10, 16, 31, 64, 100, 128, 199, 200]:
        sigmas = rng.uniform(0.2, 3.0, m + 1)
        t = normal_means_t_statistics(sigmas, 0.4, reps=150, seed=m)
        thetas = _normal_means_thetas(150, _chunk_generator(m, 0), sigmas, 0.4)
        hats = twfe_theta_hats(TwfeDesign(dgp=4, m=m, sigma=2.0), reps=40, seed=m)
        pairs = list(zip(thetas, t)) + list(zip(hats, t_statistics(hats)[0]))
        for row, mc_t in pairs:
            assert t_statistic(ClusterEstimates(row[:-1], row[-1]))[0] == mc_t
        draws += len(pairs)
    assert draws >= 2000


@pytest.mark.parametrize("call, message", [
    (lambda: normal_means_t_statistics(np.ones(4), 0.0, reps=-1, seed=1), "reps must be >= 1"),
    (lambda: normal_means_t_statistics(np.ones(4), 0.0, reps=0, seed=1), "reps must be >= 1"),
    (lambda: twfe_theta_hats(TwfeDesign(dgp=1, m=4), reps=-1, seed=1), "reps must be >= 1"),
    (lambda: twfe_theta_hats(TwfeDesign(dgp=1, m=4), reps=0, seed=1), "reps must be >= 1"),
    (lambda: empirical_rejection_rate(np.ones(4), math.nan, 2.0, reps=10, seed=1),
     "delta must be finite"),
    (lambda: empirical_rejection_rate(np.ones(4), 0.0, math.nan, reps=10, seed=1),
     "threshold c must be finite and > 0"),
    (lambda: empirical_rejection_rate(np.ones(4), 0.0, math.inf, reps=10, seed=1),
     "threshold c must be finite and > 0"),
    (lambda: empirical_rejection_rate(np.ones(4), 0.0, 0.0, reps=10, seed=1),
     "threshold c must be finite and > 0"),
])
def test_bad_monte_carlo_inputs_are_refused(call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call()


def test_bitwise_determinism_and_prefix():
    sigmas = np.array([1.0, 1.3, 0.8, 1.0])
    a = normal_means_t_statistics(sigmas, 0.5, reps=5000, seed=123)
    b = normal_means_t_statistics(sigmas, 0.5, reps=5000, seed=123)
    assert np.array_equal(a, b)
    # replication r is a pure function of (seed, r): prefixes agree bitwise
    # even across the internal chunk boundary
    longer = normal_means_t_statistics(sigmas, 0.5, reps=9000, seed=123)
    assert np.array_equal(longer[:5000], a)
    assert not np.array_equal(
        normal_means_t_statistics(sigmas, 0.5, reps=5000, seed=124), a
    )


def test_twfe_prefix_property():
    design = TwfeDesign(dgp=1, m=4)
    short = twfe_theta_hats(design, reps=4100, seed=9)
    longer = twfe_theta_hats(design, reps=8200, seed=9)
    assert np.array_equal(longer[:4100], short)


def test_a_short_chunk_draws_a_full_chunks_first_rows():
    # Philox fills are sequential, and each TWFE estimate is a row-wise sum:
    # a chunk of any length is the first rows of a full chunk, bit for bit
    for dgp in (1, 4, 5):
        design = TwfeDesign(dgp=dgp, m=10, sigma=1.3, theta=0.2)
        full = _twfe_draws(design, _CHUNK_ROWS, _chunk_generator(8, 3))
        thetas = _twfe_chunk_thetas(design, 8)
        full_thetas = thetas(3, _CHUNK_ROWS)
        for rows in (1, 577, _CHUNK_ROWS):
            short = _twfe_draws(design, rows, _chunk_generator(8, 3))
            assert short.shape[0] == rows and np.array_equal(short, full[:rows])
            assert np.array_equal(thetas(3, rows), full_thetas[:rows])
    rows = 577
    sigmas = np.linspace(0.5, 2.0, 11)
    full = _normal_means_thetas(_CHUNK_ROWS, _chunk_generator(8, 3), sigmas, 0.3)
    assert np.array_equal(_normal_means_thetas(rows, _chunk_generator(8, 3), sigmas, 0.3), full[:rows])


def _threaded(cores, call):
    """call() with ``cores`` cores reported, and the threads its t statistics ran on."""
    threads = set()

    def t_statistics_on(rows):
        threads.add(threading.current_thread())
        return t_statistics(rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_cores", lambda: cores)
        patch.setattr(simulate, "t_statistics", t_statistics_on)
        return call(), threads


@pytest.mark.parametrize("reps", [1, 4096, 4097, 9000])
def test_any_thread_count_gives_the_same_bits(reps):
    designs = [NormalMeansDesign(dgp=1, m=5), NormalMeansDesign(dgp=2, m=7, delta=0.4, rho=1.5)]
    designs += [TwfeDesign(dgp=dgp, m=4, sigma=1.3, theta=0.2) for dgp in (1, 2, 3, 4, 5)]
    for design in designs:
        def call():
            config = MCConfig(design=design, reps=reps, seed=71)
            res = run(config, include_stats=True)
            if isinstance(design, TwfeDesign):
                return res.t_stats, twfe_theta_hats(design, reps, seed=72)
            sigmas = np.append(design.control_sigmas(), design.rho)
            return res.t_stats, normal_means_t_statistics(sigmas, design.delta, reps, seed=72)

        (t1, x1), serial = _threaded(1, call)
        (t3, x3), pooled = _threaded(3, call)
        assert np.array_equal(t1, t3) and np.array_equal(x1, x3), design
        assert serial == {threading.main_thread()}
        assert (threading.main_thread() in pooled) == (reps <= _CHUNK_ROWS)


class _ChunkFailure(Exception):
    pass


@pytest.mark.parametrize("cores", [1, 3])
@pytest.mark.parametrize("design", [NormalMeansDesign(dgp=1, m=5), TwfeDesign(dgp=4, m=4)])
def test_an_error_in_one_chunk_comes_out_of_run(monkeypatch, cores, design):
    # 9,000 reps: chunk 2 has 808 rows
    error = _ChunkFailure("chunk 2")

    def failing(rows):
        if len(rows) == 808:
            raise error
        return t_statistics(rows)

    monkeypatch.setattr(simulate, "_cores", lambda: cores)
    monkeypatch.setattr(simulate, "t_statistics", failing)
    with pytest.raises(_ChunkFailure) as raised:
        run(MCConfig(design=design, reps=9000, seed=3))
    assert raised.value is error


def test_twfe_estimates_match_designs_extractor():
    # rebuild the simulated panel as long-format rows and push it through
    # the TwoWayFE extractor; estimates must agree to machine precision
    design = TwfeDesign(dgp=3, m=5, sigma=1.5, theta=0.7)
    reps = 3
    hats = twfe_theta_hats(design, reps=reps, seed=2718)
    y = _twfe_outcomes(design, reps, _chunk_generator(2718, 0))
    m, periods = design.m, design.periods
    ids = [f"c{j:02d}" for j in range(m)] + ["treated"]
    cluster = np.repeat(ids, periods)
    time = np.tile(np.arange(1, periods + 1), m + 1)
    for r in range(reps):
        panel = PanelData(
            cluster=cluster,
            outcome=y[r].ravel(),
            treated_cluster="treated",
            time=time,
            post_start=design.post_start,
        )
        res = extract(panel, DesignKind.TWO_WAY_FE)
        assert res.estimates.controls == pytest.approx(hats[r, :-1], abs=1e-12)
        assert res.estimates.treated == pytest.approx(hats[r, -1], abs=1e-12)


@pytest.mark.parametrize("dgp", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("periods, intervention", [(10, 6), (7, 2)])
def test_twfe_linear_map_matches_full_panels(dgp, periods, intervention):
    # oracle: build every (rows, m+1, periods) panel from the same stream
    # and take post-minus-pre means; 4,100 reps cross a chunk boundary
    design = TwfeDesign(dgp=dgp, m=4, sigma=1.7, theta=-0.6, periods=periods,
                        intervention=intervention)
    reps, seed = 4100, 29
    hats = twfe_theta_hats(design, reps=reps, seed=seed)
    assert hats.shape == (reps, design.m + 1)
    for chunk, start in enumerate(range(0, reps, _CHUNK_ROWS)):
        rows = min(_CHUNK_ROWS, reps - start)
        y = _twfe_outcomes(design, rows, _chunk_generator(seed, chunk))
        oracle = y[:, :, intervention:].mean(axis=2) - y[:, :, :intervention].mean(axis=2)
        np.testing.assert_allclose(hats[start:start + rows], oracle, rtol=0, atol=1e-12)


# Rejection counts of the draw stream as it stands; any change to an RNG
# call, draw shape or chunk key moves them
@pytest.mark.parametrize("design, rejections", [
    (NormalMeansDesign(dgp=2, m=6), 162),
    (TwfeDesign(dgp=1, m=6), 308),
    (TwfeDesign(dgp=4, m=6), 355),
])
def test_draw_stream_is_pinned(design, rejections):
    res = run(MCConfig(design=design, reps=6000, seed=2026))
    assert res.rejections == rejections


def test_run_result_consistency():
    config = MCConfig(design=NormalMeansDesign(dgp=1, m=6), reps=2000, seed=11)
    res = run(config, include_stats=True)
    assert isinstance(res, MCResult)
    assert res.t_stats.shape == (2000,)
    assert res.rejections == int(np.count_nonzero(np.abs(res.t_stats) > res.critical_value.cv))
    assert res.rejection_rate == res.rejections / 2000
    assert res.se == pytest.approx(
        math.sqrt(res.rejection_rate * (1 - res.rejection_rate) / 2000)
    )
    # same config, same seed: bit-identical outcome
    again = run(config)
    assert again.rejections == res.rejections


def test_normal_means_size_is_exact_at_matched_rho():
    # dgp 1 with rho = 1 puts every control exactly on the feasibility
    # boundary, where the worst case is attained: size equals alpha
    config = MCConfig(design=NormalMeansDesign(dgp=1, m=10), reps=40_000, seed=31)
    res = run(config)
    band = 3.5 * math.sqrt(0.05 * 0.95 / config.reps)
    assert abs(res.rejection_rate - 0.05) <= band


def test_normal_means_dgp2_is_conservative():
    # rising control variances push every ratio above the boundary
    config = MCConfig(design=NormalMeansDesign(dgp=2, m=10), reps=40_000, seed=37)
    res = run(config)
    assert 0.003 <= res.rejection_rate < 0.05


def test_twfe_size_normal_innovations():
    # normal-innovation panels at the matched restriction: size <= alpha
    # within simulation noise, for each AR(1) strength
    for dgp in (1, 2, 3):
        config = MCConfig(design=TwfeDesign(dgp=dgp, m=8), reps=20_000, seed=53)
        res = run(config)
        band = 3.5 * math.sqrt(0.05 * 0.95 / config.reps)
        assert res.rejection_rate <= 0.05 + band, dgp
        assert res.rejection_rate >= 0.02, dgp


def test_twfe_size_non_normal_innovations():
    # chi-square and uniform innovations break exact normality of the
    # estimates; finite-sample size then drifts slightly above alpha
    # (documented behavior), so the check allows that drift
    for dgp, ceiling in ((4, 0.071), (5, 0.062)):
        config = MCConfig(design=TwfeDesign(dgp=dgp, m=8), reps=20_000, seed=59)
        res = run(config)
        assert res.rejection_rate <= ceiling, (dgp, res.rejection_rate)


def test_twfe_power_increases_with_effect():
    rates = []
    for theta in (0.0, 2.0, 4.0):
        config = MCConfig(
            design=TwfeDesign(dgp=1, m=8, theta=theta), reps=10_000, seed=61
        )
        rates.append(run(config).rejection_rate)
    assert rates[0] < rates[1] < rates[2]
    assert rates[2] > 0.5


def test_empirical_rejection_rate_matches_t_distribution():
    # unit sigmas: T = sqrt(1 + 1/m) * t_{m-1}; compare against the exact
    # tail at a few thresholds
    from stc.distributions import t_two_sided_tail

    m = 7
    sigmas = np.ones(m + 1)
    for c in (1.0, 2.0):
        exact = t_two_sided_tail(m - 1, c / math.sqrt(1.0 + 1.0 / m))
        mc = empirical_rejection_rate(sigmas, 0.0, c, reps=300_000, seed=404)
        assert abs(mc.rejection_rate - exact) <= 4.0 * mc.se
