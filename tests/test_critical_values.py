"""Critical values, the closed-form validity region, and table generation."""
import json
import math
import types

import pytest

import stc.worstcase
from stc.cli import main
from stc.critical_values import (
    _MAX_DOUBLINGS,
    Table,
    TableCell,
    _closed_form_k1,
    _first_true,
    alpha_underline,
    c_underline,
    critical_value,
    generate_table,
    h_bar,
    one_sided_critical_value,
    round3,
)
from stc.distributions import normal_quantile, t_quantile, t_two_sided_tail
from stc.errors import InvalidParameterError, NoValidCriticalValueError, NumericalFailureError
from stc.worstcase import HeterogeneitySpec, p_max

from _reference_tables import MAX_ALPHA_PERCENT


def _spec(m, k, rho):
    return HeterogeneitySpec(m=m, k=k, rho=rho)


# ------------------------------------------------------ the one inversion


def _counted(threshold):
    calls = []

    def pred(x):
        calls.append(x)
        return x >= threshold
    return pred, calls


@pytest.mark.parametrize(
    "threshold,hi,doublings,abs_tol,rel_tol",
    [
        (math.pi, 1.0, 2, 1e-6, math.inf),   # two failed doublings, absolute width
        (math.pi, 1.0, 2, math.inf, 1e-4),   # relative width
        (0.3, 1.0, 0, 5e-5, 0.99e-4),        # no doubling, the critical-value rule
        (0.3, 1.0, 0, 1e-3, 1e-9),           # the relative width is the tighter one
        (1000.0, 3.0, 9, 1e-8, math.inf),
    ],
)
def test_first_true_finds_the_threshold(threshold, hi, doublings, abs_tol, rel_tol):
    pred, calls = _counted(threshold)
    lo, x = _first_true(pred, 0.0, hi, abs_tol=abs_tol, rel_tol=rel_tol)
    width = min(abs_tol, rel_tol * max(x, 1e-12))
    assert pred(x) and not pred(x - width) and not pred(lo)
    assert x - threshold <= width and 0.0 < x - lo <= width
    assert calls[:doublings + 1] == [hi * 2.0**i for i in range(doublings + 1)]
    # a failed doubling proves the threshold lies above it: bisection starts
    # there, and each later call halves the bracket once
    start = hi * 2.0**(doublings - 1) if doublings else 0.0
    steps = len(calls) - 3 - (doublings + 1)  # the three asserted calls aside
    assert x - lo == pytest.approx((hi * 2.0**doublings - start) / 2.0**steps, rel=1e-9)
    assert all(start < c < hi * 2.0**doublings for c in calls[doublings + 1:-3])


def test_first_true_gives_up_after_its_doublings():
    pred, calls = _counted(math.inf)
    assert _first_true(pred, 0.0, 1.0, abs_tol=1.0) is None
    assert len(calls) == _MAX_DOUBLINGS


def test_critical_value_exhaustion_reports_the_floor(monkeypatch):
    import stc.critical_values as cv_mod

    calls, branch_calls = [], []

    def flat(m, c, spec, stop_above=None):
        calls.append(c)
        return types.SimpleNamespace(value=0.2, diagnostics=types.SimpleNamespace(complete=False))

    def flat_branch(m, c, spec, branch):
        branch_calls.append(c)
        return 0.2

    monkeypatch.setattr(cv_mod, "p_max", flat)
    monkeypatch.setattr(cv_mod, "_branch_value", flat_branch)
    with pytest.raises(NoValidCriticalValueError, match="floor") as info:
        critical_value(5, 0.05, _spec(5, 2, 1.0))
    assert info.value.floor == 0.2
    # p_max at the lowest threshold, the warm-start branch at every
    # doubling, then p_max for the floor beyond the last one
    assert len(calls) == 2 and len(branch_calls) == _MAX_DOUBLINGS
    assert calls[-1] == 2.0 * branch_calls[-1]


# ------------------------------------------ the certified active-set inversion


def _plain_cv(m, alpha, spec):
    """Doubling then bisection on p_max itself, from critical_value's bracket."""
    lo = 1.0 / math.sqrt(m) + 1e-6
    guess = -math.sqrt(m / (m - spec.k + 1.0)) * spec.rho * float(normal_quantile(alpha / 2.0))
    hi = 2.0 * (guess + _closed_form_k1(m, alpha, spec.rho) + 1.0)

    def attains(c):
        return p_max(m, c, spec, stop_above=alpha).value <= alpha

    while not attains(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > min(5e-5, 0.99e-4 * hi):
        mid = 0.5 * (lo + hi)
        if attains(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "m,alpha,k,rho,grows",
    [
        (3, 0.01, 2, 0.2, True),
        (4, 0.1, 3, 0.2, True),
        (5, 0.01, 2, 0.5, True),
        (5, 0.05, 2, 0.0, False),  # the zero-treated branch alone
        (5, 0.01, 2, 0.6, True),   # a free branch decides
        (6, 0.05, 2, 1.0, False),  # the warm-start branch decides
    ],
)
def test_certified_inversion_equals_bisection_on_p_max(m, alpha, k, rho, grows):
    spec = _spec(m, k, rho)
    res = critical_value(m, alpha, spec)
    assert res.method == "Optimized" and res.iterations == 1
    assert res.cv == _plain_cv(m, alpha, spec)
    complete, early = res.p_max_calls
    if rho > 0:
        # certificate and final value; lower probe, refuted certificates
        # (one per branch that joined the active set) and the lower-end check
        assert complete == 2 and (early > 2) == grows
    else:  # at rho = 0 p_max never exits early
        assert (complete, early) == (4, 0)
    if (m, rho) == (5, 0.6):
        assert res.worst_case.achieving_config.gamma is not None


@pytest.mark.parametrize("distort", [lambda v: v + 1e-3, lambda v: max(v - 1e-2, 0.0)],
                         ids=["over", "under"])
def test_a_branch_that_disagrees_with_p_max_fails_loudly(monkeypatch, distort):
    import stc.critical_values as cv_mod

    true_value = cv_mod._branch_value
    monkeypatch.setattr(cv_mod, "_branch_value",
                        lambda m, c, spec, branch: distort(true_value(m, c, spec, branch)))
    with pytest.raises(NumericalFailureError):
        critical_value(5, 0.05, _spec(5, 2, 1.0))


# ---------------------------------------------------------------- h_bar


def test_h_bar_decreasing_in_c():
    for m, rho in ((4, 1.0), (10, 2.0), (25, 0.5)):
        cs = [c_underline(m, rho) * f for f in (0.9, 1.0, 1.3, 2.0, 10.0)]
        vals = [h_bar(m, c, rho) for c in cs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_h_bar_large_c_limit():
    # as c -> infinity: kappa -> infinity, tau -> 1/m, and h_bar tends to
    # 2 + (m-1)/(m-1-max(0, ...)) ... evaluate the algebraic limit directly
    for m, rho in ((4, 1.0), (10, 2.0)):
        kappa_inf = lambda c: m * c * c / (m - 1.0)
        c = 1e3
        kappa = kappa_inf(c)
        tau = (kappa + 1.0) / (m * kappa)
        z_low = 1.0 / (2.0 * max(m * rho * rho + 1.0, kappa + 2.0))
        first = max(
            3.0 * (m * rho * rho + 1.0) / (m * rho * rho + kappa + 1.0),
            (2.0 * kappa + 3.0) / (kappa + 1.0),
        )
        second = (1.0 - tau) / (
            1.0 - tau + min((1.0 - 2.0 * tau) * kappa * z_low - 0.5, 0.0)
        )
        expected = first + second - m * kappa / (m * rho * rho + kappa + 1.0) - 1.0
        assert h_bar(m, c, rho) == pytest.approx(expected, rel=1e-12)
        assert h_bar(m, c, rho) < 0.0  # far past the validity threshold


def test_h_bar_domain_checks():
    with pytest.raises(InvalidParameterError):
        h_bar(3, 2.0, 1.0)  # needs m >= 4
    with pytest.raises(InvalidParameterError):
        h_bar(4, 0.5, 1.0)  # below the domain edge sqrt(3(m-1)/(m(m-3)))
    with pytest.raises(InvalidParameterError):
        h_bar(4, 2.0, 0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_closed_form_validity_needs_m_at_least_4(m):
    # at m = 3 the domain edge divided by zero, at m = 2 it took a negative sqrt
    for validity in (alpha_underline, c_underline):
        with pytest.raises(InvalidParameterError, match="m >= 4"):
            validity(m, 1.0)


def test_c_underline_is_the_sign_change():
    for m, rho in ((4, 1.0), (6, 0.5), (10, 2.0), (25, 1.0)):
        c = c_underline(m, rho)
        assert h_bar(m, c, rho) <= 1e-6
        assert h_bar(m, max(c - 1e-4, 1e-12 + c * 0.999), rho) > -1e-6


def _capped_h_bar(monkeypatch, cap):
    """Count `h_bar` calls inside stc.critical_values; fail past ``cap`` of them."""
    import stc.critical_values as cv_mod

    calls = []

    def counted(m, c, rho):
        calls.append(c)
        assert len(calls) <= cap, f"h_bar called more than {cap} times"
        return h_bar(m, c, rho)
    monkeypatch.setattr(cv_mod, "h_bar", counted)
    return calls


@pytest.mark.parametrize("rho", [3e7, 4e7, 1e8, 1e30, 8e59])
def test_c_underline_stops_at_adjacent_floats(monkeypatch, rho):
    # above c = 6.7e7 floats lie more than the 1e-8 tolerance apart, so the
    # bisection ends when its midpoint rounds to an end: at most the doublings
    # plus one halving per bit
    calls = _capped_h_bar(monkeypatch, _MAX_DOUBLINGS + 60)
    c = c_underline(5, rho)
    assert h_bar(5, c, rho) <= 0.0 < h_bar(5, math.nextafter(c, 0.0), rho)
    if rho == 3e7:  # it ended at this tolerance before the adjacency stop too
        assert c == 57445626.46538031
    del calls[:]
    assert main(["max-alpha", "--ms", "5", "--rhos", repr(rho)]) == 0


def test_c_underline_past_the_last_doubling_names_it(monkeypatch, capsys):
    # 200 doublings from c = 2.19 end near 1.8e60; the crossing grows like 2 * rho
    calls = _capped_h_bar(monkeypatch, _MAX_DOUBLINGS + 1)
    with pytest.raises(NoValidCriticalValueError, match=f"{_MAX_DOUBLINGS} doublings"):
        c_underline(5, 1e100)
    del calls[:]
    assert main(["cv", "--m", "5", "--alpha", "0.05", "--k", "1", "--rho", "1e100"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "doublings" in err and err.count("\n") == 1


def test_alpha_underline_reference_values():
    # percent-scale maxima of the closed-form validity level
    assert 100 * alpha_underline(5, 1.0) == pytest.approx(9.456, abs=5e-3)
    assert 100 * alpha_underline(10, 2.0) == pytest.approx(9.404, abs=5e-3)
    assert 100 * alpha_underline(50, 0.1) == pytest.approx(3.768, abs=5e-3)


def test_alpha_underline_full_reference_grid():
    for (m, rho), pct in MAX_ALPHA_PERCENT.items():
        assert 100 * alpha_underline(m, rho) == pytest.approx(pct, abs=5e-3), (m, rho)


# ------------------------------------------------------- critical_value


@pytest.mark.parametrize("alpha", [1e-12, 1e-17])
def test_tiny_levels_keep_their_size(alpha):
    # the closed form inverts the tail alpha/2 itself: through 1 - alpha/2 it
    # over-rejected by 8.9e-5 (relative) at 1e-12 and refused 1e-17
    res = critical_value(10, alpha, _spec(10, 1, 1.0))
    assert res.method == "ClosedFormK1"
    assert abs(res.worst_case.value / alpha - 1.0) <= 1e-9
    assert res.cv == pytest.approx(-math.sqrt(1.1) * t_quantile(9, alpha / 2), rel=1e-15)


def test_closed_form_k1_path():
    res = critical_value(5, 0.05, _spec(5, 1, 1.0))
    assert res.method == "ClosedFormK1"
    assert res.iterations == 0
    expected = math.sqrt(1.0 + 0.2) * t_quantile(4, 0.975)
    assert res.cv == pytest.approx(expected, rel=1e-12)
    assert round3(res.cv) == "3.041"
    assert res.worst_case.value == pytest.approx(0.05, abs=1e-6)


def test_optimized_path_anchor():
    res = critical_value(5, 0.05, _spec(5, 2, 1.0))
    assert res.method == "Optimized"
    assert res.iterations > 0
    assert res.cv == pytest.approx(3.459, abs=2e-3)


def test_cv_is_tight_inversion():
    # p_max(cv) <= alpha while a threshold just below still over-rejects
    cases = [
        (5, 0.05, _spec(5, 2, 1.0)),
        (8, 0.1, _spec(8, 3, 0.7)),
        (4, 0.01, _spec(4, 1, 2.0)),
    ]
    for m, alpha, spec in cases:
        res = critical_value(m, alpha, spec)
        assert p_max(m, res.cv, spec).value <= alpha + 1e-9
        below = res.cv - max(2.0 * 5e-5, 2.0 * 0.99e-4 * res.cv)
        if below > 1.0 / math.sqrt(m):
            assert p_max(m, below, spec).value > alpha


def test_closed_form_agrees_with_direct_bisection(monkeypatch):
    # independently invert the worst case by bisection where the closed
    # form applies; both must land within the bisection width.  p_max
    # answers the closed form itself wherever h_bar <= 0, so h_bar is held
    # positive in worstcase to make it run the branch search
    m, alpha, spec = 6, 0.05, _spec(6, 1, 1.5)
    res = critical_value(m, alpha, spec)
    assert res.method == "ClosedFormK1"
    monkeypatch.setattr(stc.worstcase, "h_bar", lambda *args: 1.0)
    lo, hi = 1.0 / math.sqrt(m) + 1e-6, 20.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        searched = p_max(m, mid, spec)
        assert all(tr.n_evals > 0 for tr in searched.diagnostics.branches)
        if searched.value > alpha:
            lo = mid
        else:
            hi = mid
    assert res.cv == pytest.approx(hi, abs=5e-5)


def test_cv_monotone_in_rho_k_m():
    cvs_rho = [critical_value(6, 0.05, _spec(6, 1, r)).cv for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(cvs_rho, cvs_rho[1:]))
    cvs_k = [critical_value(6, 0.05, _spec(6, k, 1.0)).cv for k in (1, 2, 3)]
    assert all(a <= b + 5e-5 for a, b in zip(cvs_k, cvs_k[1:]))
    cvs_m = [critical_value(m, 0.05, _spec(m, 1, 1.0)).cv for m in (4, 6, 10, 20)]
    assert all(a > b for a, b in zip(cvs_m, cvs_m[1:]))


def test_cv_exceeds_degeneracy_threshold():
    for m, alpha, spec in [
        (4, 0.05, _spec(4, 1, 0.01)),
        (10, 0.4, _spec(10, 2, 0.5)),
    ]:
        res = critical_value(m, alpha, spec)
        assert res.cv > 1.0 / math.sqrt(m)
        assert p_max(m, res.cv, spec).value <= alpha + 1e-9


def test_alpha_validation():
    with pytest.raises(InvalidParameterError):
        critical_value(5, 0.0, _spec(5, 1, 1.0))
    with pytest.raises(InvalidParameterError):
        critical_value(5, 0.5, _spec(5, 1, 1.0))
    with pytest.raises(InvalidParameterError):
        critical_value(5, 0.05, _spec(6, 1, 1.0))  # m mismatch


def test_one_sided_is_two_sided_at_doubled_level():
    two = critical_value(5, 0.1, _spec(5, 1, 1.0))
    one = one_sided_critical_value(5, 0.05, _spec(5, 1, 1.0))
    assert one.cv == two.cv
    assert one.method == two.method
    with pytest.raises(InvalidParameterError):
        one_sided_critical_value(5, 0.3, _spec(5, 1, 1.0))


def test_rounding_convention():
    assert round3(2.3725) == "2.373"  # halves away from zero
    assert round3(1.0005) == "1.001"
    assert round3(0.8455) == "0.846"
    assert round3(2.0) == "2.000"


# ----------------------------------------------------------------- table


def _table_output(capsys, argv, fmt):
    """`stc table` run on argv, printed as ``fmt``."""
    assert main(["table", *argv, "--output", fmt]) == 0
    return capsys.readouterr().out


def test_generate_table_formats(capsys):
    table = generate_table([0.05], [5, 10], [1.0, 2.0], k=1)
    assert isinstance(table, Table)
    argv = ["--alphas", "0.05", "--ms", "5,10", "--rhos", "1,2", "--k", "1"]
    csv_text = _table_output(capsys, argv, "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "rho,5,10"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
    cells = lines[1].split(",")
    assert cells[1] == "3.041"  # closed-form anchor
    records = json.loads(_table_output(capsys, argv, "json"))
    assert len(records) == 4
    rec = next(r for r in records if r["m"] == 5 and r["rho"] == 1.0)
    assert rec == {
        "alpha": 0.05,
        "m": 5,
        "rho": 1.0,
        "k": 1,
        "cv": 3.041,
        "method": "ClosedFormK1",
    }


def test_generate_table_multi_alpha_blocks(capsys):
    text = _table_output(capsys, ["--alphas", "0.01,0.05", "--ms", "5", "--rhos", "1"], "csv")
    assert "# alpha=0.01" in text and "# alpha=0.05" in text


def test_generate_table_process_pool_matches_serial():
    serial = generate_table([0.05], [5, 6], [1.0], k=2)
    pooled = generate_table([0.05], [5, 6], [1.0], k=2, workers=2)
    assert pooled.cells == serial.cells


def test_table_cell_error_capture(monkeypatch, capsys):
    import stc.critical_values as cv_mod

    def boom(*args, **kwargs):
        raise NoValidCriticalValueError("synthetic failure", floor=0.2)

    monkeypatch.setattr(cv_mod, "critical_value", boom)
    table = cv_mod.generate_table([0.05], [5], [1.0], k=1)
    (cell,) = table.cells
    assert cell.cv is None
    assert "synthetic failure" in cell.error
    argv = ["--alphas", "0.05", "--ms", "5", "--rhos", "1", "--k", "1"]
    assert "ERROR" in _table_output(capsys, argv, "csv")
    records = json.loads(_table_output(capsys, argv, "json"))
    assert records[0]["error"].startswith("NoValidCriticalValueError")


def test_table_lets_programming_errors_through(monkeypatch):
    import stc.critical_values as cv_mod

    def broken(*args, **kwargs):
        raise TypeError("synthetic programming error")

    monkeypatch.setattr(cv_mod, "critical_value", broken)
    with pytest.raises(TypeError, match="synthetic programming error"):
        cv_mod.generate_table([0.05], [5], [1.0], k=1)
