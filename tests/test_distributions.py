"""Student-t / normal tails and quantiles: pinned values and round trips."""
import math

import numpy as np
import pytest
from scipy import special

from stc.distributions import (
    _MAX_DOF,
    _as_float,
    _checked_dof,
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
