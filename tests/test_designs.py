"""Per-cluster effect extraction for the four supported panel designs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stc.designs import DesignKind, Extraction, PanelData, extract
from stc.errors import (
    DesignViolationError,
    InvalidParameterError,
    RankDeficiencyError,
)


def _mean_panel():
    cluster = np.array(["a", "a", "b", "b", "t", "t"])
    outcome = np.array([1.0, 3.0, 2.0, 6.0, 5.0, 9.0])
    return PanelData(cluster=cluster, outcome=outcome, treated_cluster="t")


def _did_panel():
    # two periods per cluster; gains: a: +1, b: +3, t: +7
    cluster = np.repeat(["a", "b", "t"], 2)
    time = np.tile([1, 2], 3)
    outcome = np.array([0.0, 1.0, 5.0, 8.0, 2.0, 9.0])
    return PanelData(
        cluster=cluster, outcome=outcome, treated_cluster="t", time=time, post_start=2
    )


def _triple_panel(extra_noise=0.0):
    # per cluster: 2 groups x 2 periods x 2 units; the C*Post coefficient is
    # planted directly
    rng = np.random.default_rng(0)
    rows = {"cluster": [], "outcome": [], "time": [], "unit": [], "c": []}
    planted = {"a": 0.5, "b": -1.0, "t": 2.0}
    for cid, beta3 in planted.items():
        for c in (0, 1):
            for time in (1, 2):
                for unit in (1, 2):
                    post = 1.0 if time >= 2 else 0.0
                    y = 1.0 + 0.3 * c + 0.7 * post + beta3 * c * post
                    y += extra_noise * rng.normal()
                    rows["cluster"].append(cid)
                    rows["outcome"].append(y)
                    rows["time"].append(time)
                    rows["unit"].append(unit)
                    rows["c"].append(c)
    return (
        PanelData(
            cluster=np.array(rows["cluster"]),
            outcome=np.array(rows["outcome"]),
            treated_cluster="t",
            time=np.array(rows["time"]),
            post_start=2,
            unit=np.array(rows["unit"]),
            c_indicator=np.array(rows["c"]),
        ),
        planted,
    )


def test_clustered_mean_estimates():
    res = extract(_mean_panel(), DesignKind.CLUSTERED_MEAN)
    assert isinstance(res, Extraction)
    assert res.control_clusters == ("a", "b")
    assert res.estimates.controls.tolist() == [2.0, 4.0]
    assert res.estimates.treated == 7.0
    assert res.delta_hat == 4.0
    assert res.design is DesignKind.CLUSTERED_MEAN


def test_did_estimates_are_gain_scores():
    res = extract(_did_panel(), DesignKind.DID)
    assert res.estimates.controls.tolist() == [1.0, 3.0]
    assert res.estimates.treated == 7.0
    assert res.delta_hat == 5.0


def test_twfe_equals_did_on_balanced_two_period_panels():
    # with common time effects absorbed by differencing, the two coincide
    panel = _did_panel()
    assert (
        extract(panel, DesignKind.TWO_WAY_FE).estimates.controls.tolist()
        == extract(panel, DesignKind.DID).estimates.controls.tolist()
    )


def test_triple_diff_recovers_planted_interaction():
    panel, planted = _triple_panel()
    res = extract(panel, DesignKind.TRIPLE_DIFF)
    assert res.estimates.controls == pytest.approx(
        [planted["a"], planted["b"]], abs=1e-12
    )
    assert res.estimates.treated == pytest.approx(planted["t"], abs=1e-12)


def test_triple_diff_matches_saturated_cell_means():
    # with noise, beta3 equals the difference-in-difference-in-differences of
    # the four cell means within each cluster (the design is saturated)
    panel, _ = _triple_panel(extra_noise=0.4)
    res = extract(panel, DesignKind.TRIPLE_DIFF)
    post = panel.time >= panel.post_start
    for idx, cid in enumerate(res.control_clusters):
        mask = panel.cluster == cid
        cell = lambda cc, pp: panel.outcome[
            mask & (panel.c_indicator == cc) & (post == pp)
        ].mean()
        ddd = (cell(1, True) - cell(1, False)) - (cell(0, True) - cell(0, False))
        assert res.estimates.controls[idx] == pytest.approx(ddd, abs=1e-12)


def test_row_shuffle_is_bit_exact():
    rng = np.random.default_rng(42)
    panel, _ = _triple_panel(extra_noise=1.0)
    base = extract(panel, DesignKind.TRIPLE_DIFF)
    n = panel.cluster.size
    for _ in range(5):
        order = rng.permutation(n)
        shuffled = PanelData(
            cluster=panel.cluster[order],
            outcome=panel.outcome[order],
            treated_cluster="t",
            time=panel.time[order],
            post_start=2,
            unit=panel.unit[order],
            c_indicator=panel.c_indicator[order],
        )
        res = extract(shuffled, DesignKind.TRIPLE_DIFF)
        assert np.array_equal(res.estimates.controls, base.estimates.controls)
        assert res.estimates.treated == base.estimates.treated
        assert res.delta_hat == base.delta_hat


def test_period_shift_is_absorbed_in_the_contrast():
    # a common per-period shift moves every cluster's gain score by the same
    # constant, so the treated-minus-controls contrast is unchanged
    panel = _did_panel()
    shift = np.where(panel.time == 1, 13.25, -4.5)
    shifted = PanelData(
        cluster=panel.cluster,
        outcome=panel.outcome + shift,
        treated_cluster="t",
        time=panel.time,
        post_start=2,
    )
    a = extract(panel, DesignKind.DID)
    b = extract(shifted, DesignKind.DID)
    common = -4.5 - 13.25
    assert b.estimates.controls == pytest.approx(
        a.estimates.controls + common, abs=1e-12
    )
    assert b.estimates.treated == pytest.approx(a.estimates.treated + common, abs=1e-12)
    assert b.delta_hat == pytest.approx(a.delta_hat, abs=1e-12)


def test_errors_name_the_offending_cluster():
    panel = _did_panel()
    # drop cluster b's pre-period observation
    keep = ~((panel.cluster == "b") & (panel.time == 1))
    broken = PanelData(
        cluster=panel.cluster[keep],
        outcome=panel.outcome[keep],
        treated_cluster="t",
        time=panel.time[keep],
        post_start=2,
    )
    with pytest.raises(DesignViolationError, match="'b' has no observations before"):
        extract(broken, DesignKind.DID)


def test_missing_columns_are_reported():
    panel = _mean_panel()
    with pytest.raises(DesignViolationError, match="requires a time column"):
        extract(panel, DesignKind.DID)
    timed = PanelData(
        cluster=panel.cluster,
        outcome=panel.outcome,
        treated_cluster="t",
        time=np.tile([1, 2], 3),
    )
    with pytest.raises(DesignViolationError, match="requires post_start"):
        extract(timed, DesignKind.DID)
    with pytest.raises(DesignViolationError, match="requires a c_indicator column"):
        extract(
            PanelData(
                cluster=panel.cluster,
                outcome=panel.outcome,
                treated_cluster="t",
                time=np.tile([1, 2], 3),
                post_start=2,
            ),
            DesignKind.TRIPLE_DIFF,
        )


def test_one_sided_c_indicator_is_rank_deficient():
    panel, _ = _triple_panel()
    flat_c = np.where(panel.cluster == "a", 1, panel.c_indicator)
    broken = PanelData(
        cluster=panel.cluster,
        outcome=panel.outcome,
        treated_cluster="t",
        time=panel.time,
        post_start=2,
        unit=panel.unit,
        c_indicator=flat_c,
    )
    with pytest.raises(DesignViolationError, match="'a' needs both c_indicator"):
        extract(broken, DesignKind.TRIPLE_DIFF)


def test_panel_validation():
    with pytest.raises(DesignViolationError, match="'zzz' has no observations"):
        PanelData(
            cluster=np.array(["a", "b", "c"]),
            outcome=np.zeros(3),
            treated_cluster="zzz",
        )
    # numpy reads "t\0" as "t"; the id itself names no cluster
    with pytest.raises(DesignViolationError, match=r"'t\\x00' has no observations"):
        PanelData(cluster=np.array(["a", "b", "t"]), outcome=np.zeros(3), treated_cluster="t\0")
    with pytest.raises(DesignViolationError, match="at least 2 control"):
        PanelData(
            cluster=np.array(["a", "t"]), outcome=np.zeros(2), treated_cluster="t"
        )
    with pytest.raises(InvalidParameterError, match="finite"):
        PanelData(
            cluster=np.array(["a", "b", "t"]),
            outcome=np.array([0.0, np.nan, 1.0]),
            treated_cluster="t",
        )
    with pytest.raises(InvalidParameterError, match="only 0 and 1"):
        PanelData(
            cluster=np.array(["a", "b", "t"]),
            outcome=np.zeros(3),
            treated_cluster="t",
            c_indicator=np.array([0, 1, 2]),
        )
    with pytest.raises(InvalidParameterError, match="unknown design kind"):
        extract(_mean_panel(), "mean")


@pytest.mark.parametrize("cluster, found", [(["t", "t"], 0), (["a", "t", "a"], 1)])
def test_too_few_control_clusters_are_counted(cluster, found):
    with pytest.raises(DesignViolationError) as err:
        PanelData(cluster=np.array(cluster), outcome=np.zeros(len(cluster)), treated_cluster="t")
    assert str(err.value) == f"need at least 2 control clusters, found {found}"


def test_rank_deficiency_error_type():
    # RankDeficiencyError is a DesignViolationError specialization
    assert issubclass(RankDeficiencyError, DesignViolationError)


def test_triple_diff_empty_cell_is_rank_deficient():
    # cluster 'b' keeps both c values and both periods but has no (c=1, pre)
    # observation, so the interaction is not identified
    panel, _ = _triple_panel(extra_noise=0.3)
    keep = ~((panel.cluster == "b") & (panel.c_indicator == 1) & (panel.time < 2))
    broken = PanelData(
        cluster=panel.cluster[keep],
        outcome=panel.outcome[keep],
        treated_cluster="t",
        time=panel.time[keep],
        post_start=2,
        unit=panel.unit[keep],
        c_indicator=panel.c_indicator[keep],
    )
    with pytest.raises(RankDeficiencyError, match="'b'"):
        extract(broken, DesignKind.TRIPLE_DIFF)


def _cell_mean_oracle(cluster, time, c, outcome, post_start, kind):
    """Each cluster's estimate from its cell means, one cluster at a time."""
    thetas = {}
    for cid in sorted(set(cluster)):
        rows = [(ci, t >= post_start, y)
                for k, t, ci, y in zip(cluster, time, c, outcome) if k == cid]

        def mean(group=None, post=None):
            ys = [y for ci, p, y in rows
                  if (group is None or ci == group) and (post is None or p == post)]
            return math.fsum(ys) / len(ys)

        if kind is DesignKind.CLUSTERED_MEAN:
            thetas[cid] = mean()
        elif kind is DesignKind.TRIPLE_DIFF:
            thetas[cid] = ((mean(1, True) - mean(1, False))
                           - (mean(0, True) - mean(0, False)))
        else:
            thetas[cid] = mean(post=True) - mean(post=False)
    return thetas


def _draw_panel(data, ys_from, shift):
    """m controls and treated 't', 1-3 rows a (c, post) cell with outcomes
    from ``ys_from`` plus ``shift(j, c, post)``; the columns and a
    ``PanelData`` of them in a given row order."""
    m = data.draw(st.integers(2, 6), label="controls")
    rows = []
    for j, cid in enumerate([f"c{j}" for j in range(m)] + ["t"]):
        for c in (0, 1):
            for post in (0, 1):
                n = data.draw(st.integers(1, 3))
                ys = data.draw(st.lists(ys_from, min_size=n, max_size=n))
                ts = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
                rows += [(cid, t + 2 * post, c, y + shift(j, c, post)) for t, y in zip(ts, ys)]
    cluster, time, c, outcome = (np.array(col) for col in zip(*rows))

    def panel(order):
        return PanelData(cluster=cluster[order], outcome=outcome[order], treated_cluster="t",
                         time=time[order], post_start=3, c_indicator=c[order])

    return m, (cluster, time, c, outcome), panel


def _check_row_order(data, kind, panel, rows, res):
    order = data.draw(st.permutations(range(rows)), label="row order")
    shuffled = extract(panel(np.array(order)), kind)
    assert np.array_equal(shuffled.estimates.controls, res.estimates.controls)
    assert shuffled.estimates.controls.tobytes() == res.estimates.controls.tobytes()
    assert shuffled.estimates.treated == res.estimates.treated
    assert shuffled.delta_hat == res.delta_hat


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(list(DesignKind)))
def test_extract_matches_a_cell_mean_oracle_and_ignores_row_order(data, kind):
    # distinct cell offsets, so a wrong contrast shows even at y = 0
    m, (cluster, time, c, outcome), panel = _draw_panel(
        data, st.floats(-10, 10),
        lambda j, c, post: (j + 1) * (1.0 + 2.0 * c + 4.0 * post + 8.0 * c * post))

    res = extract(panel(np.arange(outcome.size)), kind)
    oracle = _cell_mean_oracle(cluster, time, c, outcome, 3, kind)
    assert res.control_clusters == tuple(f"c{j}" for j in range(m))
    assert res.estimates.controls == pytest.approx(
        [oracle[cid] for cid in res.control_clusters], rel=0, abs=1e-12)
    assert res.estimates.treated == pytest.approx(oracle["t"], rel=0, abs=1e-12)
    _check_row_order(data, kind, panel, outcome.size, res)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(list(DesignKind)))
def test_extract_ignores_row_order_among_tied_outcomes(data, kind):
    # tied outcomes, signed zeros among them, meet in one cell in either order
    _, (*_, outcome), panel = _draw_panel(
        data, st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.7, -2.5]), lambda j, c, post: 0.0)
    _check_row_order(data, kind, panel, outcome.size, extract(panel(slice(None)), kind))


def test_the_first_broken_cluster_in_id_order_is_named():
    # 'b' lacks a post observation and 'c' a pre observation; 'c' would fail
    # the earlier check, but 'b' comes first in id order
    cluster = np.array(["a", "a", "b", "c", "t", "t"])
    time = np.array([1, 2, 1, 2, 1, 2])
    outcome = np.arange(6.0)
    for treated in ("t", "b"):
        broken = PanelData(cluster=cluster, outcome=outcome, treated_cluster=treated,
                           time=time, post_start=2)
        with pytest.raises(DesignViolationError, match="'b' has no observations after"):
            extract(broken, DesignKind.DID)


def test_integer_columns_refuse_fractions_and_non_finite_values():
    def panel(**kwargs):
        base = {"time": np.tile([1, 2], 3), "post_start": 2, "c_indicator": np.zeros(6)}
        return PanelData(cluster=np.repeat(["a", "b", "t"], 2), outcome=np.arange(6.0),
                         treated_cluster="t", **{**base, **kwargs})

    with pytest.raises(InvalidParameterError, match="time must hold whole numbers, got 2.9"):
        panel(time=np.tile([1.0, 2.9], 3))
    with pytest.raises(InvalidParameterError, match="c_indicator must hold whole numbers, got 0.5"):
        panel(c_indicator=np.full(6, 0.5))
    with pytest.raises(InvalidParameterError, match="post_start must be an integer, got 1.7"):
        panel(post_start=1.7)
    with pytest.raises(InvalidParameterError, match="time must hold whole numbers, got nan"):
        panel(time=np.array([1.0, np.nan, 1.0, 2.0, 1.0, 2.0]))
    with pytest.raises(InvalidParameterError, match="time must hold whole numbers"):
        panel(time=np.array(["1", "x"] * 3))
    # whole-valued floats stay accepted
    data = panel(time=np.tile([1.0, 2.0], 3), post_start=2.0, c_indicator=np.tile([0.0, 1.0], 3))
    assert data.time.tolist() == [1, 2] * 3 and data.post_start == 2 and type(data.post_start) is int
    assert data.c_indicator.tolist() == [0, 1] * 3
