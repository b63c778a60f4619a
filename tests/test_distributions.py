"""Student-t / normal tails and quantiles: pinned values and round trips."""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from stc import distributions
from stc.distributions import (
    _MAX_DOF,
    _as_float,
    _checked_dof,
    _largest_tail,
    _tails as tails_of,
    normal_cdf,
    normal_quantile,
    t_quantile,
    t_two_sided_tail,
)
from stc.errors import InvalidParameterError


def t_cdf(dof, x) -> float | np.ndarray:
    """CDF of the Student-t distribution, the oracle for quantile round trips."""
    v = _checked_dof(dof)
    xa = np.asarray(x, dtype=np.float64)
    out = np.where(v > _MAX_DOF, special.ndtr(xa), special.stdtr(np.minimum(v, _MAX_DOF), xa))
    return _as_float(out, (dof, x))


def test_cauchy_tail_at_one_is_half():
    # dof=1 is Cauchy: quartiles at +-1
    assert t_two_sided_tail(1, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_tail_at_zero_is_full_mass():
    for dof in (1, 2, 7, 50):
        assert t_two_sided_tail(dof, 0.0) == 1.0


def test_tail_matches_published_t_table():
    # P[|t_4| > 2.776445] = 0.05 (10-digit table value for the 97.5% point)
    assert t_two_sided_tail(4, 2.776445105) == pytest.approx(0.05, abs=1e-9)


@pytest.mark.parametrize(
    "dof, p, expected",
    [
        (4, 0.975, 2.776445105),
        (9, 0.995, 3.249835542),
        (1, 0.5, 0.0),
    ],
)
def test_t_quantile_published_values(dof, p, expected):
    assert t_quantile(dof, p) == pytest.approx(expected, abs=5e-9)


@pytest.mark.parametrize(
    "p, expected",
    [(0.975, 1.959963985), (0.5, 0.0), (0.995, 2.575829304)],
)
def test_normal_quantile_published_values(p, expected):
    assert normal_quantile(p) == pytest.approx(expected, abs=1e-9)


def test_low_dof_closed_forms():
    # dof=1: CDF = 1/2 + arctan(x)/pi; dof=2: CDF = 1/2 + x / (2*sqrt(2+x^2))
    for x in (-3.0, -0.5, 0.0, 0.7, 2.5, 10.0):
        assert t_cdf(1, x) == pytest.approx(0.5 + math.atan(x) / math.pi, abs=1e-13)
        assert t_cdf(2, x) == pytest.approx(
            0.5 + x / (2.0 * math.sqrt(2.0 + x * x)), abs=1e-13
        )


def test_round_trip_cdf_of_quantile():
    ps = np.array([0.55, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.9995])
    for dof in range(1, 61):
        q = t_quantile(dof, ps)
        back = t_cdf(dof, q)
        assert np.max(np.abs(back - ps)) <= 1e-9


def test_quantile_symmetry():
    ps = np.linspace(0.05, 0.45, 9)
    for dof in (1, 3, 12, 60):
        left = t_quantile(dof, ps)
        right = t_quantile(dof, 1.0 - ps)
        assert np.max(np.abs(left + right)) <= 1e-12
    assert abs(normal_quantile(0.3) + normal_quantile(0.7)) <= 1e-12


def test_tail_strictly_decreasing_in_threshold():
    cs = np.linspace(0.05, 8.0, 40)
    for dof in (1, 2, 5, 30):
        tails = t_two_sided_tail(dof, cs)
        assert np.all(np.diff(tails) < 0.0)


def test_tail_quantile_composition():
    for dof in (2, 5, 20):
        for alpha in (0.01, 0.05, 0.2):
            c = t_quantile(dof, 1.0 - alpha / 2.0)
            assert t_two_sided_tail(dof, c) == pytest.approx(alpha, abs=1e-9)


def test_huge_dof_delegates_to_normal():
    assert t_quantile(10**7, 0.975) == pytest.approx(normal_quantile(0.975), abs=1e-9)
    assert t_cdf(10**7, 1.3) == pytest.approx(normal_cdf(1.3), abs=1e-9)


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidParameterError):
        t_two_sided_tail(0, 1.0)
    with pytest.raises(InvalidParameterError):
        t_quantile(5, 0.0)
    with pytest.raises(InvalidParameterError):
        t_quantile(5, 1.0)
    with pytest.raises(InvalidParameterError):
        normal_quantile(1.5)
    with pytest.raises(InvalidParameterError):
        t_two_sided_tail(3, -0.5)


# ------------------------------------------------ a 40-digit mpmath oracle

_ORACLE_DOFS = (1, 2, 3, 5, 9, 24, 49, 99, 199, 1000, 10**4, 10**5, 10**6)


def _exact_tail(dof, c):
    """P(|t_dof| > c) at 40 digits, each side of the continued fraction's switch."""
    with mp.workdps(40):
        v, c, half = mp.mpf(dof), mp.mpf(c), mp.mpf(1) / 2
        if v * (v / 2 + 2.5) > (v / 2 + 1) * (v + c * c):  # mpmath's series is slow above it
            return 1 - mp.betainc(half, v / 2, 0, c * c / (v + c * c), regularized=True)
        return mp.betainc(v / 2, half, 0, v / (v + c * c), regularized=True)


def _relative_error(got, exact) -> float:
    return float(abs((mp.mpf(got) - exact) / exact))


def test_tail_matches_a_40_digit_oracle():
    # thresholds 1e-3 ... 1e30 a quarter decade apart, tails down to 1e-300
    cs = 10.0 ** np.arange(-3.0, 30.01, 0.25)
    worst = {}
    for dof in _ORACLE_DOFS:
        worst[dof] = max(_relative_error(g, _exact_tail(dof, c))
                         for c, g in zip(cs, t_two_sided_tail(dof, cs)) if g >= 1e-300)
    # scipy's betainc: 1.1e-11 at (1000, 1e-3) and 8.8e-9 at (1e6, 1e-3)
    assert max(worst.values()) <= 1e-13, worst


def test_t_quantile_matches_the_oracle():
    ps = [0.55, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999] + [1 - 10.0**-e for e in (4, 6, 8, 10, 12)]
    worst = 0.0
    for dof in _ORACLE_DOFS[:10]:  # dof <= 1000
        for p in ps:
            # the upper quantile, and the lower one at the same (exact) tail
            for q, tail in ((t_quantile(dof, p), 1 - p), (-t_quantile(dof, 1 - p), 1 - p)):
                with mp.workdps(40):
                    exact = mp.findroot(lambda x: _exact_tail(dof, x) - 2 * mp.mpf(tail), mp.mpf(q))
                worst = max(worst, _relative_error(q, exact))
    assert worst <= 2e-14


def test_normal_functions_match_the_oracle():
    with mp.workdps(40):
        cdf_error = max(_relative_error(normal_cdf(x), mp.ncdf(x)) for x in np.arange(-37.0, 8.0, 0.37))
        ps = [1e-300, 1e-200, 1e-100, 1e-20, 1e-10, 1e-5, 0.01, 0.1, 0.3, 0.45, 0.55, 0.9, 1 - 1e-12]
        quantile_error = max(_relative_error(normal_quantile(p), mp.findroot(
            lambda z: mp.ncdf(z) - mp.mpf(p), normal_quantile(p))) for p in ps)
    assert cdf_error <= 2e-13  # erfc of a rounded x/sqrt 2, as scipy's ndtr
    assert quantile_error <= 4e-15


def test_tiny_lower_tails_keep_their_digits():
    # a lower-tail p inverts directly; reflecting it through 1 - p rounded
    # 1 - 1e-20 to 1 and returned -inf
    assert normal_quantile(1e-20) == pytest.approx(-9.262340089798408, rel=1e-14)
    assert t_quantile(5, 1e-20) == pytest.approx(-15683.925454365, rel=1e-12)
    assert t_two_sided_tail(5, -t_quantile(5, 1e-20)) == pytest.approx(2e-20, rel=1e-12)
    assert math.isfinite(normal_quantile(5e-324)) and math.isfinite(t_quantile(3, 5e-324))


def test_a_tail_does_not_depend_on_its_batch():
    # every tail runs the same plain-float path, whatever the batch around it,
    # also for dof 1, 2 and 4, whose exponents 0.5, 1 and 2 numpy would take
    # by other ops if both operands were scalars
    rng = np.random.default_rng(17)
    dofs = np.concatenate([[1, 2, 4, 3, 2 * 10**6, 1], np.repeat([1, 2, 4], 40), rng.integers(1, 300, 60)])
    cs = np.concatenate([[0.0, 30.0, 1e6, 1e-3, 2.5, 1e200], 10.0 ** rng.uniform(0.5, 3, 120),
                         10.0 ** rng.uniform(-2, 3, 60)])
    batch = t_two_sided_tail(dofs, cs)
    singles = [t_two_sided_tail(int(v), float(c)) for v, c in zip(dofs, cs)]
    pairs = [t_two_sided_tail(dofs[i:i + 2], cs[i:i + 2]) for i in range(0, len(cs), 2)]
    assert batch.tolist() == singles == np.concatenate(pairs).tolist()
    # and in a batch of thousands
    assert t_two_sided_tail(np.resize(dofs, 5000), np.resize(cs, 5000)).tolist() == np.resize(batch, 5000).tolist()


def test_tail_shapes():
    # 0-d inputs give a float; others broadcast, each element as its own call
    assert type(t_two_sided_tail(np.int64(5), np.float64(2.0))) is float
    assert type(t_two_sided_tail(np.array(5), 2.0)) is float
    dofs, cs = np.array([[1], [7], [3e6]]), np.array([0.0, 0.5, 2.0, 40.0])
    got = t_two_sided_tail(dofs, cs)
    assert got.shape == (3, 4)
    assert got.tolist() == [[t_two_sided_tail(float(v), float(c)) for c in cs] for v in dofs[:, 0]]


def test_low_dof_tails_survive_an_overflowing_square():
    # c^2 overflows above about 1.3e154, where the dof 1 and 2 tails are
    # (2/pi) atan(1/c) ~ 0.64/c and 1 - c/sqrt(c^2+2) ~ 1/c^2, not 0
    def oracle(v, c):
        c = mp.mpf(c)
        if v == 1:
            return 2 / mp.pi * mp.atan(1 / c)
        s = mp.sqrt(1 + 2 / c**2)
        return 2 / (c * c * s * (s + 1))

    cs = np.concatenate([10.0 ** np.arange(0.0, 300.1, 0.5), np.geomspace(6e153, 2e154, 21)])
    with mp.workdps(40):
        for v in (1, 2):
            batch = t_two_sided_tail(np.full(cs.size, v), cs)
            for c, got in zip(cs, batch):
                want = oracle(v, c)
                assert t_two_sided_tail(v, float(c)) == got
                if want > 2.3e-308:
                    assert abs(got - want) <= 1e-14 * want, (v, c)
                else:  # subnormal or below
                    assert abs(got - want) <= 1e-320, (v, c)
    assert t_two_sided_tail(1, 1e200) == pytest.approx(2 / (math.pi * 1e200), rel=1e-15)


def p_zero_treated_thresholds(m, c):
    """(dofs, thresholds) of the tails `p_zero_treated(m, c)` maximizes."""
    r, gap = m * m * c * c / (m * c * c + m - 1.0), m * (m - 1.0) / (m * c * c + m - 1.0)
    j = np.arange(m - math.ceil(gap) + 1, m + 1)
    return j - 1.0, np.sqrt((j - 1) * r / ((j - m) + gap))


def test_largest_tail_is_the_argmax_of_every_tail(monkeypatch):
    # the bounds skip most tails but never the largest, nor change its bits
    rng = np.random.default_rng(7)
    for size in (1, 3, 30, 300):
        dofs = rng.integers(1, 400, size).astype(float)
        dofs[rng.random(size) < 0.1] = 2e6  # normal tails, never skipped
        cs = 10.0 ** rng.uniform(-1.5, 2, size)
        tails = t_two_sided_tail(dofs, cs)
        best = int(np.argmax(tails))
        assert _largest_tail(dofs, cs) == (tails[best], best)
    # the threshold sets of p_zero_treated, where the tails lie close together
    for m, c in ((25, 0.2000001), (25, 0.5), (200, 0.2), (200, 0.5), (200, 2.0)):
        dofs, cs = p_zero_treated_thresholds(m, c)
        tails = t_two_sided_tail(dofs, cs)
        best = int(np.argmax(tails))
        assert _largest_tail(dofs, cs) == (tails[best], best)
    # m = 1000, where the bounds compare as logarithms: at c = 2 every
    # prefactor underflows, and one tail stands for all 200 zeros
    for c in (0.05, 0.1, 0.5, 1.0, 2.0):
        dofs, cs = p_zero_treated_thresholds(1000, c)
        tails = t_two_sided_tail(dofs, cs)
        best = int(np.argmax(tails))
        assert _largest_tail(dofs, cs) == (tails[best], best)
    evaluated = []
    monkeypatch.setattr(distributions, "_tails", lambda v, c: evaluated.append(v.size) or tails_of(v, c))
    assert _largest_tail(*p_zero_treated_thresholds(1000, 2.0)) == (0.0, 0)
    assert evaluated == [1]
    # equal tails: the first one
    assert _largest_tail(np.array([5.0, 5.0]), np.array([2.0, 2.0])) == (t_two_sided_tail(5, 2.0), 0)
