"""Tail integral P0[|T_m| > c] against closed forms and Monte Carlo."""
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stc.rejection
from stc.distributions import t_two_sided_tail
from stc.charpoly import GammaConfig, _roots_batch
from stc.errors import InvalidParameterError, NumericalFailureError
from stc.rejection import (
    _CHUNK_ELEMENTS,
    DEFAULT_SETTINGS,
    QuadratureSettings,
    _rule,
    _tail_quadrature,
    _tails_for_gamma_rows,
    rejection_probability,
)
from stc.simulate import empirical_rejection_rate
from stc.worstcase import _PROBE_SETTINGS, HeterogeneitySpec, _boundary_rows, p_bar, p_max, p_tilde


def _equal_ratio_exact(m: int, gamma: float, c: float) -> float:
    # with all ratios equal, T_m = sqrt(gamma^-2 + 1/m) * t_{m-1} exactly
    return t_two_sided_tail(m - 1, c / math.sqrt(gamma**-2 + 1.0 / m))


def test_equal_ratio_closed_form_agreement():
    for m in (2, 3, 5, 6, 10, 25):
        for gamma in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 2.0, 3.0):
                got = rejection_probability(GammaConfig(np.full(m, gamma), c))
                assert got == pytest.approx(_equal_ratio_exact(m, gamma, c), abs=1e-7)


def test_hand_anchor_values():
    # m=2, gammas=(1,1), c=1: P = P[|t_1| > 1/sqrt(1.5)]
    got = rejection_probability(GammaConfig(np.array([1.0, 1.0]), 1.0))
    assert got == pytest.approx(0.5640942168489749, abs=1e-9)
    # m=6, gamma=0.5 for all controls, c=3
    got = rejection_probability(GammaConfig(np.full(6, 0.5), 3.0))
    assert got == pytest.approx(_equal_ratio_exact(6, 0.5, 3.0), abs=1e-9)
    # m=5, unit ratios at the 5% two-sided critical value
    got = rejection_probability(GammaConfig(np.full(5, 1.0), 3.041))
    assert got == pytest.approx(0.05, abs=2e-4)


def test_probability_bounds_and_monotone_in_c():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        gammas = rng.uniform(0.0, 3.0, size=m)
        if not np.any(gammas > 0):
            gammas[0] = 1.0
        cs = np.linspace(0.3, 5.0, 8)
        vals = [rejection_probability(GammaConfig(gammas, c)) for c in cs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    gammas = np.array([0.0, 0.4, 1.3, 2.2, 0.9])
    base = rejection_probability(GammaConfig(gammas, 2.5))
    for _ in range(10):
        shuffled = rejection_probability(GammaConfig(rng.permutation(gammas), 2.5))
        assert shuffled == pytest.approx(base, rel=1e-12)


_RATIO = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    pair=st.lists(_RATIO, min_size=2, max_size=8)
    .filter(lambda ratios: max(ratios) > 0.0)
    .flatmap(lambda ratios: st.tuples(st.just(ratios), st.permutations(ratios))),
    c_scale=st.floats(1.01, 8.0),
)
def test_rejection_probability_is_permutation_invariant(pair, c_scale):
    # the kernel adds the listed ratios' terms in their order, so a
    # permutation may move the value by rounding only
    ratios, permuted = pair
    c = c_scale / math.sqrt(len(ratios))
    base = rejection_probability(GammaConfig(np.array(ratios), c))
    assert abs(rejection_probability(GammaConfig(np.array(permuted), c)) - base) <= 1e-14


def test_panel_doubling_is_converged():
    dense = QuadratureSettings(panels=128, nodes_per_panel=16)
    rng = np.random.default_rng(41)
    for _ in range(12):
        m = int(rng.integers(2, 12))
        gammas = rng.uniform(0.0, 4.0, size=m)
        if not np.any(gammas > 0):
            gammas[0] = 1.0
        cfg = GammaConfig(gammas, float(rng.uniform(0.3, 4.0)))
        a = rejection_probability(cfg)
        b = rejection_probability(cfg, dense)
        assert abs(a - b) < 1e-9


def test_batch_rows_match_single_calls(monkeypatch):
    rng = np.random.default_rng(8)
    rows = rng.uniform(0.0, 3.0, size=(40, 6))
    rows[rows < 0.3] = 0.0
    rows[np.all(rows == 0.0, axis=1), 0] = 1.0
    c = 2.2
    batch = _tails_for_gamma_rows(rows, c)
    for i in range(rows.shape[0]):
        # bit-exact: a row's value must not depend on the batch around it
        assert batch[i] == rejection_probability(GammaConfig(rows[i], c))
    # the same for grouped rows, which the lock-step grid and Brent search rely on
    m1 = rng.integers(1, 10, size=40)
    m0 = rng.integers(0, 10 - m1)
    values, counts = _boundary_rows(9, 1.5, m1, m0, rng.uniform(0.0, 3.0, size=40))
    batch = _tails_for_gamma_rows(values, c, counts=counts)
    for i in range(values.shape[0]):
        alone = _tails_for_gamma_rows(values[i : i + 1], c, counts=counts[i : i + 1])
        assert batch[i] == alone[0]
    # and for a grouped batch that the kernel splits into several chunks
    per_chunk = _CHUNK_ELEMENTS // (DEFAULT_SETTINGS.panels * DEFAULT_SETTINGS.nodes_per_panel * 3)
    m1 = rng.integers(1, 10, size=3 * per_chunk + 5)
    m0 = rng.integers(0, 10 - m1)
    values, counts = _boundary_rows(9, 1.5, m1, m0, rng.uniform(0.0, 3.0, size=m1.size))
    batch = _tails_for_gamma_rows(values, c, counts=counts)
    for i in range(values.shape[0]):
        alone = _tails_for_gamma_rows(values[i : i + 1], c, counts=counts[i : i + 1])
        assert batch[i] == alone[0]
    # the chunk budget sets memory only: one row per chunk gives the same p_max
    spec = HeterogeneitySpec(m=6, k=2, rho=1.0)
    default = p_max(6, 2.5, spec)
    monkeypatch.setattr(stc.rejection, "_CHUNK_ELEMENTS", 1)
    assert p_max(6, 2.5, spec) == default


def _multi_chunk_rows(seed, rule, chunks=3):
    # grouped boundary rows (three groups) for at least `chunks` full kernel chunks
    rng = np.random.default_rng(seed)
    per_chunk = _CHUNK_ELEMENTS // (rule.panels * rule.nodes_per_panel * 3)
    m1 = rng.integers(1, 10, size=chunks * per_chunk + 7)
    m0 = rng.integers(0, 10 - m1)
    return _boundary_rows(9, 1.5, m1, m0, rng.uniform(0.0, 3.0, size=m1.size)), per_chunk


@pytest.mark.parametrize("rule", [_PROBE_SETTINGS, DEFAULT_SETTINGS], ids=["probe", "default"])
def test_kernel_working_set_is_six_reused_buffers(rule):
    # one kernel call allocates its six (chunk, nodes) work buffers once and
    # writes every step into them: its traced peak stays within 7 chunk-sized
    # float64 arrays however many chunks the batch has (a kernel that
    # allocates a temporary per step peaks at about 10)
    (values, counts), per_chunk = _multi_chunk_rows(5, rule)
    c, m = 2.2, 9
    kappa = m * c * c / (m - 1)
    tau = (kappa + 1.0) / (m * kappa)
    x = kappa * values * values
    t = _roots_batch(x, counts, tau, m)
    _tail_quadrature(x, counts, t, tau, m, rule)  # builds the cached nodes
    tracemalloc.start()
    try:
        _tail_quadrature(x, counts, t, tau, m, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_array = per_chunk * rule.panels * rule.nodes_per_panel * 8
    assert chunk_array < peak <= 7 * chunk_array


def test_concurrent_kernel_calls_match_serial_ones():
    # numpy releases the interpreter lock inside each step, so two kernel
    # calls in two threads run at once: they must not share a work buffer
    batches = [_multi_chunk_rows(seed, DEFAULT_SETTINGS)[0] for seed in (11, 12)]
    serial = [_tails_for_gamma_rows(v, 2.2, counts=n) for v, n in batches]
    start = threading.Barrier(2, timeout=60)
    results = [[], []]

    def work(i):
        start.wait()
        for _ in range(5):
            results[i].append(_tails_for_gamma_rows(batches[i][0], 2.2, counts=batches[i][1]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(results, serial):
        assert len(got) == 5 and all(np.array_equal(g, want) for g in got)


def test_overflowing_ratio_is_one_numerical_failure():
    # kappa * ratio^2 past the float range is refused at the kernel entry,
    # before numpy warns of an overflow and the integral turns to nan
    calls = (
        lambda: p_tilde(5, 2.0, 2, 1e-160, 0, 0),
        lambda: p_bar(5, 2.0, 1.0, 1e200, 1, 0),
        lambda: rejection_probability(GammaConfig([1e200, 1, 1], 2.0)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NumericalFailureError, match=r"ratio 1e\+\d+ is too large"):
                call()


def test_zero_count_groups_are_inert():
    # a group with count 0 must not touch the value: not the sums, and not
    # the root bracket, whose top would otherwise jump to x = kappa * 1e10
    values = np.array([[0.5, 0.0, 1.3], [2.0, 0.0, 0.7]])
    counts = np.array([[2.0, 1.0, 3.0], [1.0, 0.0, 5.0]])
    base = _tails_for_gamma_rows(values, 2.5, counts=counts)
    pad_v, pad_n = np.full((2, 1), 1e5), np.zeros((2, 1))
    for v, n in (
        (np.hstack([values, pad_v]), np.hstack([counts, pad_n])),
        (np.hstack([pad_v, values]), np.hstack([pad_n, counts])),
    ):
        assert np.array_equal(_tails_for_gamma_rows(v, 2.5, counts=n), base)


def test_grouped_rows_match_expanded_rows():
    # grouped boundary rows against the same ratio vectors written out in m
    # columns with counts=None, on both the probe and the default rule
    rng = np.random.default_rng(20260)
    for m in (2, 5, 25, 200):
        for rho in (0.2, 1.0, 2.0):
            m1 = rng.integers(0, m + 1, size=16)
            m0 = rng.integers(0, m - m1 + 1)
            gamma = 10.0 ** rng.uniform(-6.0, 4.0, size=16)
            gamma[:4] = (0.0, 1.0 / rho, 1e4, 0.0)
            m1[3] = 0  # with gamma = 0: only zeros unless the free group is empty
            keep = (m1 > 0) | ((gamma > 0) & (m1 + m0 < m))
            values, counts = _boundary_rows(m, rho, m1[keep], m0[keep], gamma[keep])
            expanded = np.array([np.repeat(v, n.astype(int)) for v, n in zip(values, counts)])
            assert expanded.shape == (values.shape[0], m)
            c = m**-0.5 * (1.0 + 10.0 ** rng.uniform(-2.0, 1.0))
            for rule in (_PROBE_SETTINGS, DEFAULT_SETTINGS):
                grouped = _tails_for_gamma_rows(values, c, rule, counts=counts)
                flat = _tails_for_gamma_rows(expanded, c, rule)
                assert np.max(np.abs(grouped - flat)) <= 1e-12


@pytest.mark.parametrize("kwargs, message", [
    ({"panels": 0}, "panels must be >= 1, got 0"),
    ({"nodes_per_panel": 1}, "nodes_per_panel must be >= 2, got 1"),
    ({"panels": 16.5}, "panels must be an integer"),  # was truncated to 16
    ({"nodes_per_panel": 2.9}, "nodes_per_panel must be an integer"),
])
def test_quadrature_settings_are_whole_counts(kwargs, message):
    with pytest.raises(InvalidParameterError, match=message):
        QuadratureSettings(**kwargs)


def test_batch_rows_must_share_m():
    values = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
    counts = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 3.0]])
    with pytest.raises(InvalidParameterError):
        _tails_for_gamma_rows(values, 2.0, counts=counts)


def test_extreme_ratio_magnitudes_stay_finite():
    # log-space accumulation must survive x_i spanning ~20 orders of magnitude
    gammas = np.array([1e-8, 1e-4, 1.0, 1e4, 1e5])
    val = rejection_probability(GammaConfig(gammas, 2.0))
    assert 0.0 <= val <= 1.0
    big = rejection_probability(GammaConfig(np.full(50, 1e5), 2.0))
    assert big == pytest.approx(_equal_ratio_exact(50, 1e5, 2.0), abs=1e-7)


def test_zero_padding_matches_smaller_treated_share():
    # adding a zero ratio is the same as that control having zero variance;
    # probability must still be a proper tail and decrease as c grows
    cfg = GammaConfig(np.array([0.0, 0.0, 1.0]), 1.8)
    val = rejection_probability(cfg)
    assert 0.0 < val < 1.0


def test_monte_carlo_oracle_heterogeneous():
    # independent oracle: simulate the t-statistic directly from normal draws
    cases = [
        (np.array([0.5, 1.0, 2.0]), 2.0),
        (np.array([0.0, 1.0, 1.5, 3.0]), 2.5),
        (np.array([1.0, 1.0, 1.0, 1.0, 1.0]), 3.041),
    ]
    for gammas, c in cases:
        analytic = rejection_probability(GammaConfig(gammas, c))
        sigmas = np.append(gammas, 1.0)  # controls then treated, sigma_{m+1}=1
        mc = empirical_rejection_rate(sigmas, delta=0.0, c=c, reps=400_000, seed=314)
        assert abs(analytic - mc.rejection_rate) <= 4.0 * mc.se


def _axis_sum_tail_quadrature(x, n, t, tau, m, settings):
    # the tail kernel as it was before it summed group by group, kept as an
    # oracle: one (rows, nodes, groups) array per chunk, reduced by np.sum
    # over the group axis
    u, wu = _rule(settings.panels, settings.nodes_per_panel)[:2]
    sin_u = np.sin(u)
    sin2_u = sin_u * sin_u
    out = np.empty(x.shape[0])
    chunk = max(1, 4_000_000 // (u.size * x.shape[1]))
    for start in range(0, x.shape[0], chunk):
        xb, nb, tb = (arr[start : start + chunk] for arr in (x, n, t))
        s = tb[:, None] * sin2_u[None, :]
        xs = xb[:, None, :] + s[:, :, None]
        log_q = np.sum(nb[:, None, :] * np.log(xs), axis=2)
        a = nb * ((1.0 + tau * xb) / (xb + tb[:, None]))
        ratio_sum = np.sum(a[:, None, :] / xs, axis=2)
        log_u_term = (0.5 * m - 1.0) * np.log(s) - 0.5 * (log_q + np.log(ratio_sum))
        integrand = 2.0 * np.sqrt(tb)[:, None] * sin_u[None, :] * np.exp(log_u_term)
        out[start : start + chunk] = np.sum(integrand * wu, axis=1) / math.pi
    return out


def test_group_sums_equal_the_axis_sum_kernel():
    # boundary rows have three groups, one of them x = 0, and the kernel adds
    # groups left to right, as np.sum adds an axis shorter than 8: they must
    # come out bit-identical on both rules.  Rows that list all m ratios were
    # summed pairwise by np.sum once m >= 8 and move by rounding: within 4e-15
    # up to m = 20, and by up to 1.2e-13 at m = 200, where a left-to-right sum
    # of 200 logarithms rounds about ten times more than a pairwise one
    rng = np.random.default_rng(1102)
    grouped = flat = 0
    for _ in range(40):
        m = int(rng.choice([2, 3, 5, 10, 20, 50, 200]))
        k = int(rng.integers(1, m + 1))
        rho = float(10.0 ** rng.uniform(-3.0, math.log10(30.0)))
        c = m**-0.5 * (1.0 + 10.0 ** rng.uniform(-8.0, 1.2))
        kappa = m * c * c / (m - 1)
        tau = (kappa + 1.0) / (m * kappa)
        m0 = rng.integers(0, k, size=60)
        m1 = rng.integers(0, m - m0 + 1)
        gamma = 10.0 ** rng.uniform(-6.0, 4.0, size=60) / min(rho, 1.0)
        gamma[:3] = (0.0, 1.0 / rho, 1e4 * max(1.0, 1.0 / rho))
        keep = (m1 > 0) | ((gamma > 0) & (m1 + m0 < m))
        values, counts = _boundary_rows(m, rho, m1[keep], m0[keep], gamma[keep])
        x = kappa * values * values
        t = _roots_batch(x, counts, tau, m)
        for rule in (_PROBE_SETTINGS, DEFAULT_SETTINGS):
            new = _tail_quadrature(x, counts, t, tau, m, rule)
            assert np.array_equal(new, _axis_sum_tail_quadrature(x, counts, t, tau, m, rule))
        grouped += x.shape[0]
        if m < 8:
            continue
        listed = np.array([rng.permutation(np.repeat(v, n.astype(int)))
                           for v, n in zip(x[:8], counts[:8])])
        ones = np.ones_like(listed)
        t = _roots_batch(listed, ones, tau, m)
        for rule in (_PROBE_SETTINGS, DEFAULT_SETTINGS):
            new = _tail_quadrature(listed, ones, t, tau, m, rule)
            old = _axis_sum_tail_quadrature(listed, ones, t, tau, m, rule)
            assert np.max(np.abs(new - old)) <= (4e-15 if m <= 20 else 2e-13)
        flat += listed.shape[0]
    assert grouped >= 2000 and flat >= 100
