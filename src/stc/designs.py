"""Per-cluster effect extraction from raw panel or cross-section data.

Every design's estimate is a fixed contrast of the cluster's (C, Post) cell
means, Post meaning t >= post_start:

  * ClusteredMean — the mean of one cell (C and Post unused).
  * DiD / TwoWayFE — mean(Post) − mean(Pre), the OLS coefficient on the post
    indicator.
  * TripleDiff — (mean(C=1, Post) − mean(C=1, Pre)) − (mean(C=0, Post) −
    mean(C=0, Pre)), the interaction coefficient of the OLS of the outcome on
    {1, C, Post, C·Post}.  That model is saturated (one parameter per cell),
    so an empty cell is the rank-deficient case.

One grouped pass computes every cluster's cell sums and counts, and the
design's row of ``_CONTRASTS`` weighs the cell means.  Each cell sums its
rows in outcome order, so row order never changes a bit of the result.  The
treated cluster's estimate becomes `ClusterEstimates.treated`; control
estimates are ordered by cluster id.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DesignViolationError, InvalidParameterError, RankDeficiencyError, as_integer
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


@dataclass(frozen=True)
class PanelData:
    """Long-format observations plus the treated-cluster designation.

    ``time``, ``unit`` and ``c_indicator`` are optional columns; designs
    that need them raise a design-violation error when they are absent.
    ``post_start`` is the first period counted as post-treatment.  ``time``,
    ``c_indicator`` and ``post_start`` must be whole numbers: 2.9 is refused,
    not truncated.
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
            if name != "unit":
                col = _whole_numbers(name, col)
            if name == "c_indicator" and not np.isin(col, (0, 1)).all():
                raise InvalidParameterError("c_indicator must contain only 0 and 1")
            columns[name] = col
        treated = str(self.treated_cluster)
        # numpy drops a string's trailing NULs, which no id in ``cluster`` keeps
        others = cluster[cluster != treated]
        if others.size == n or treated.endswith("\0"):
            raise DesignViolationError(f"treated cluster {treated!r} has no observations")
        controls = 0 if others.size == 0 else 1 if np.all(others == others[0]) else 2
        if controls < 2:
            raise DesignViolationError(f"need at least 2 control clusters, found {controls}")
        for name, col in columns.items():
            col = col.copy()
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        object.__setattr__(self, "treated_cluster", treated)
        if self.post_start is not None:
            object.__setattr__(self, "post_start", as_integer("post_start", self.post_start))


def _whole_numbers(name: str, col: np.ndarray) -> np.ndarray:
    """``col`` as ints; InvalidParameterError on a value that is not a finite
    whole number within 64 bits."""
    if col.dtype.kind in "biu":
        return col.astype(int)
    try:
        values = np.asarray(col, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must hold whole numbers") from None
    bad = ~(np.isfinite(values) & (values == np.round(values)) & (np.abs(values) < 2.0**63))
    if bad.any():
        raise InvalidParameterError(f"{name} must hold whole numbers, got {float(values[bad][0])!r}")
    return values.astype(int)


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


# each design's weights on a cluster's cell means, cell = 2·C + Post
_CONTRASTS = {
    DesignKind.CLUSTERED_MEAN: np.array([1.0]),
    DesignKind.DID: np.array([-1.0, 1.0]),
    DesignKind.TWO_WAY_FE: np.array([-1.0, 1.0]),
    DesignKind.TRIPLE_DIFF: np.array([1.0, -1.0, -1.0, 1.0]),
}


def _cell_codes(data: PanelData, kind: DesignKind):
    """Each row's cell, 2·C + Post, using only the columns the design reads."""
    if kind is DesignKind.CLUSTERED_MEAN:
        return 0
    if data.time is None:
        raise DesignViolationError(f"{kind.value} requires a time column")
    if data.post_start is None:
        raise DesignViolationError(f"{kind.value} requires post_start")
    post = (data.time >= data.post_start).astype(np.intp)
    if kind is not DesignKind.TRIPLE_DIFF:
        return post
    if data.c_indicator is None:
        raise DesignViolationError(f"{kind.value} requires a c_indicator column")
    return post + 2 * data.c_indicator


def _check_cells(kind: DesignKind, ids: np.ndarray, counts: np.ndarray) -> None:
    """Raise for the first cluster, in id order, missing a cell its design needs."""
    if kind is DesignKind.CLUSTERED_MEAN:
        return
    cells = counts.reshape(ids.size, -1, 2)  # (cluster, C, Post)
    periods = ("before", "after")
    checks = [(DesignViolationError, cells[:, :, post].sum(axis=1) == 0,
               f" has no observations {label} post_start")
              for post, label in enumerate(periods)]
    if kind is DesignKind.TRIPLE_DIFF:
        checks.append((DesignViolationError, (cells.sum(axis=2) == 0).any(axis=1),
                       f" needs both c_indicator values for {kind.value}"))
        checks += [(RankDeficiencyError, cells[:, c, post] == 0,
                    ": design is rank deficient "
                    f"(no observations with c_indicator={c} {label} post_start)")
                   for c in (0, 1) for post, label in enumerate(periods)]
    bad = np.array([mask for _, mask, _ in checks])  # (check, cluster)
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        error, _, message = checks[int(np.argmax(bad[:, j]))]
        raise error(f"cluster {str(ids[j])!r}{message}")


def extract(data: PanelData, kind: DesignKind) -> Extraction:
    """Per-cluster effect estimates for the chosen design.

    Controls are ordered by cluster id.  Clusters are checked in id order,
    the treated one among them, and the first whose observations cannot
    identify the design's coefficient raises: a design-violation error
    naming it, or a rank-deficiency error when one of a TripleDiff
    cluster's four (C, Post) cells is empty.
    """
    if not isinstance(kind, DesignKind):
        raise InvalidParameterError(f"unknown design kind: {kind!r}")
    weights = _CONTRASTS[kind]
    ids, index = np.unique(data.cluster, return_inverse=True)
    cell = index * weights.size + _cell_codes(data, kind)
    size = ids.size * weights.size
    counts = np.bincount(cell, minlength=size).reshape(ids.size, -1)
    _check_cells(kind, ids, counts)
    # every cell sums its rows in ascending outcome order, whatever the row order;
    # ties add equal values onto bincount's +0.0, so their order moves no bit
    order = np.argsort(data.outcome)
    sums = np.bincount(cell[order], weights=data.outcome[order], minlength=size)
    theta = (sums.reshape(ids.size, -1) / counts) @ weights
    treated = int(np.searchsorted(ids, data.treated_cluster))
    controls = np.delete(theta, treated)
    return Extraction(
        estimates=ClusterEstimates(controls, theta[treated]),
        delta_hat=float(theta[treated]) - float(np.mean(controls)),
        treated_cluster=data.treated_cluster,
        control_clusters=tuple(np.delete(ids, treated).tolist()),
        design=kind,
    )
