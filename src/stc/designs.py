"""Per-cluster effect extraction from raw panel or cross-section data.

Every design reduces to one tiny regression per cluster:

  * ClusteredMean — the cluster mean of the outcome.
  * DiD / TwoWayFE — mean(outcome | t >= post_start) − mean(outcome | t <
    post_start), the OLS coefficient on the post indicator.
  * TripleDiff — the interaction coefficient of the OLS of the outcome on
    {1, C, Post, C·Post}.  That model is saturated (one parameter per
    (C, Post) cell), so the coefficient is the difference-in-differences of
    the four cell means; an empty cell is the rank-deficient case.

The treated cluster's estimate becomes `ClusterEstimates.treated`; control
estimates are ordered by cluster id so row order never matters.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DesignViolationError, InvalidParameterError, RankDeficiencyError
from .inference import ClusterEstimates

__all__ = [
    "DesignKind",
    "PanelData",
    "Extraction",
    "extract",
]


class DesignKind(enum.Enum):
    """Which per-cluster regression produces the effect estimates."""

    CLUSTERED_MEAN = "ClusteredMean"
    DID = "DiD"
    TWO_WAY_FE = "TwoWayFE"
    TRIPLE_DIFF = "TripleDiff"


_TIME_BASED = (DesignKind.DID, DesignKind.TWO_WAY_FE, DesignKind.TRIPLE_DIFF)


@dataclass(frozen=True)
class PanelData:
    """Long-format observations plus the treated-cluster designation.

    ``time``, ``unit`` and ``c_indicator`` are optional columns; designs
    that need them raise a design-violation error when they are absent.
    ``post_start`` is the first period counted as post-treatment.
    """

    cluster: np.ndarray
    outcome: np.ndarray
    treated_cluster: str
    time: np.ndarray | None = None
    post_start: int | None = None
    unit: np.ndarray | None = None
    c_indicator: np.ndarray | None = None

    def __post_init__(self):
        cluster = np.asarray(self.cluster, dtype=str)
        outcome = np.asarray(self.outcome, dtype=float)
        if cluster.ndim != 1 or cluster.size == 0:
            raise InvalidParameterError("cluster column must be a nonempty 1-d array")
        n = cluster.size
        if outcome.shape != (n,):
            raise InvalidParameterError("outcome column must match the cluster column length")
        if not np.all(np.isfinite(outcome)):
            raise InvalidParameterError("outcomes must be finite")
        columns = {"cluster": cluster, "outcome": outcome}
        for name in ("time", "unit", "c_indicator"):
            col = getattr(self, name)
            if col is None:
                continue
            col = np.asarray(col)
            if col.shape != (n,):
                raise InvalidParameterError(f"{name} column must match the cluster column length")
            if name == "time":
                col = col.astype(int)
            if name == "c_indicator":
                col = col.astype(int)
                if not np.isin(col, (0, 1)).all():
                    raise InvalidParameterError("c_indicator must contain only 0 and 1")
            columns[name] = col
        treated = str(self.treated_cluster)
        ids = set(np.unique(cluster))
        if treated not in ids:
            raise DesignViolationError(f"treated cluster {treated!r} has no observations")
        if len(ids) - 1 < 2:
            raise DesignViolationError(
                f"need at least 2 control clusters, found {len(ids) - 1}"
            )
        for name, col in columns.items():
            col = col.copy()
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        object.__setattr__(self, "treated_cluster", treated)
        object.__setattr__(
            self, "post_start", None if self.post_start is None else int(self.post_start)
        )

    @property
    def control_clusters(self) -> tuple[str, ...]:
        ids = np.unique(self.cluster)
        return tuple(str(i) for i in ids if str(i) != self.treated_cluster)


@dataclass(frozen=True)
class Extraction:
    """Cluster estimates plus the headline effect difference.

    ``delta_hat`` = treated estimate − mean of control estimates, the
    quantity the t-test is about.
    """

    estimates: ClusterEstimates
    delta_hat: float
    treated_cluster: str
    control_clusters: tuple[str, ...]
    design: DesignKind


def _canonical(data: PanelData) -> PanelData:
    """Reorder rows into a fixed sort so results are bit-identical under shuffles."""
    keys = [data.outcome]
    if data.c_indicator is not None:
        keys.append(data.c_indicator)
    if data.unit is not None:
        keys.append(data.unit)
    if data.time is not None:
        keys.append(data.time)
    keys.append(data.cluster)
    order = np.lexsort(keys)
    pick = lambda col: None if col is None else col[order]
    return PanelData(
        cluster=data.cluster[order],
        outcome=data.outcome[order],
        treated_cluster=data.treated_cluster,
        time=pick(data.time),
        post_start=data.post_start,
        unit=pick(data.unit),
        c_indicator=pick(data.c_indicator),
    )


def _require(data: PanelData, column: str, kind: DesignKind) -> np.ndarray:
    col = getattr(data, column)
    if col is None:
        raise DesignViolationError(f"{kind.value} requires a {column} column")
    return col


def _post_mask(data: PanelData, kind: DesignKind) -> np.ndarray:
    time = _require(data, "time", kind)
    if data.post_start is None:
        raise DesignViolationError(f"{kind.value} requires post_start")
    return time >= data.post_start


def _cluster_theta(
    data: PanelData, kind: DesignKind, mask: np.ndarray, cluster_id: str
) -> float:
    y = data.outcome[mask]
    if kind is DesignKind.CLUSTERED_MEAN:
        return float(np.mean(y))

    post = _post_mask(data, kind)[mask]
    for label, period in (("before", ~post), ("after", post)):
        if not period.any():
            raise DesignViolationError(
                f"cluster {cluster_id!r} has no observations {label} post_start"
            )
    if kind in (DesignKind.DID, DesignKind.TWO_WAY_FE):
        return float(np.mean(y[post]) - np.mean(y[~post]))

    c = _require(data, "c_indicator", kind)[mask]
    if c.min() == c.max():
        raise DesignViolationError(
            f"cluster {cluster_id!r} needs both c_indicator values for {kind.value}"
        )
    means = {}
    for cv in (0, 1):
        for label, period in (("before", ~post), ("after", post)):
            cell = y[(c == cv) & period]
            if cell.size == 0:
                raise RankDeficiencyError(
                    f"cluster {cluster_id!r}: design is rank deficient "
                    f"(no observations with c_indicator={cv} {label} post_start)"
                )
            means[cv, label] = np.mean(cell)
    return float(
        (means[1, "after"] - means[1, "before"]) - (means[0, "after"] - means[0, "before"])
    )


def extract(data: PanelData, kind: DesignKind) -> Extraction:
    """Per-cluster effect estimates for the chosen design.

    Controls are ordered by cluster id.  Raises a design-violation error
    naming the offending cluster when its observations cannot identify the
    design's coefficient, and a rank-deficiency error when one of a
    TripleDiff cluster's four (C, Post) cells is empty.
    """
    if not isinstance(kind, DesignKind):
        raise InvalidParameterError(f"unknown design kind: {kind!r}")
    data = _canonical(data)
    controls = []
    for cid in data.control_clusters:
        mask = data.cluster == cid
        controls.append(_cluster_theta(data, kind, mask, cid))
    treated = _cluster_theta(
        data, kind, data.cluster == data.treated_cluster, data.treated_cluster
    )
    estimates = ClusterEstimates(np.array(controls), treated)
    return Extraction(
        estimates=estimates,
        delta_hat=treated - float(np.mean(controls)),
        treated_cluster=data.treated_cluster,
        control_clusters=data.control_clusters,
        design=kind,
    )
