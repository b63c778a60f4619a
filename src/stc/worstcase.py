"""Worst-case rejection probability over feasible variance configurations.

Under the relative-heterogeneity restriction sigma_{m+1} <= rho * sigma_(k)
(k-th smallest control SD), the worst-case null rejection probability of the
two-sided t-test at threshold c is attained either

  * with a zero treated variance (`p_zero_treated`: a finite max of t tails
    over the number j of active controls), or
  * on the boundary of the feasible set, at a ratio configuration with m1
    controls at rho^{-1}, m0 at zero (m0 <= k-1), and the remaining
    m - m1 - m0 at a common free value gamma; the branch (m1, m0) takes the
    largest rejection probability over gamma.

`p_max` takes the maximum over all such branches; at most k*(2m+1-k)/2 of
them are needed for one (k, rho).  Each branch is a cheap one-dimensional
maximization: a log grid of 4 points a decade, then Brent's method from
every peak of that grid.  A branch has at most one interior local maximum,
but either domain end can be a second or third one, so the search refines
each grid peak rather than the argmax alone (tests/test_worstcase.py checks
both facts against a dense sweep).  Boundary rows reach the tail kernel as
three (value, count) groups (`_boundary_rows`), so a kernel evaluation
costs the same at every m.  One optimizer, `_optimize_gamma_branches`, runs
that search for a group of branches in lock-step, so that each Brent step
costs one vectorized tail evaluation for the whole group.  One producer,
`_branch_traces`, turns branches into kernel rows: it hands the optimizer the
free branches of `p_max` (all in one group) and of the inversions'
`_branch_value` (one branch each).  The tail kernel's values do not depend
on the batch a row is evaluated in, so a branch's trace is the same either
way.  At a domain end a branch's row is one of the k fixed configurations
(free count 0), which many branches name: a kernel call evaluates each such
configuration once, and a search that ends on one takes `p_max`'s own
fixed-branch value rather than a new row.

At k = 1 (m >= 4, rho > 0), wherever the validity function h_bar(m, c, rho)
is <= 0, the worst case is the all-equal branch (m, 0), every control at
rho^{-1}: the closed form P[|sqrt(rho^2 + 1/m) t_{m-1}| > c].  `p_max` itself
returns it there, via `_branch_traces`, with no search.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _largest_tail, t_two_sided_tail
from .errors import InvalidParameterError, as_integer
from .rejection import DEFAULT_SETTINGS, QuadratureSettings, _tails_for_gamma_rows

__all__ = [
    "HeterogeneitySpec",
    "WorstCaseResult",
    "ZeroTreated",
    "Boundary",
    "BranchTrace",
    "h_bar",
    "p_zero_treated",
    "p_max",
]

_GRID_POINTS_PER_DECADE = 4
_BRENT_REL_TOL = 1e-6
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0
# Search probes run on a coarse 16-panel rule, because probes dominate the
# runtime.  Against a 30-digit oracle on 2,000 rows sampled like the search's
# own (tests/test_quadrature_oracle.py), probes were within 1.5e-8 of the
# exact tail wherever it is at most 0.5, and within 1.2e-5 at tails near 1
# (the default rule: 2.6e-10 and 7.9e-8).  Probe error never reaches a
# reported value: every branch value is re-evaluated on DEFAULT_SETTINGS;
# probes only choose the gamma at which that happens.
_PROBE_SETTINGS = QuadratureSettings(panels=16, nodes_per_panel=16)


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Relative-heterogeneity restriction: sigma_{m+1} <= rho * sigma_(k)."""

    m: int
    k: int
    rho: float

    def __post_init__(self):
        m, k = as_integer("m", self.m, 2), as_integer("k", self.k)
        if not 1 <= k <= m:
            raise InvalidParameterError(f"k must lie in 1..{self.m}, got {self.k}")
        rho = float(self.rho)
        if not math.isfinite(rho) or rho < 0:
            raise InvalidParameterError(f"rho must be finite and >= 0, got {self.rho!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class ZeroTreated:
    """Worst case attained with zero treated variance and j active controls."""

    j: int


@dataclass(frozen=True)
class Boundary:
    """Worst case attained at (m1 ratios at rho^{-1}, m0 zeros, rest gamma)."""

    m1: int
    m0: int
    gamma: float | None  # None when m1 + m0 = m (no free ratio)


@dataclass(frozen=True)
class BranchTrace:
    """Optimizer trace for one (m1, m0) boundary branch (n_evals = 0: the k = 1 closed form)."""

    m1: int
    m0: int
    rho_lower: float
    gamma: float | None
    value: float
    n_evals: int


@dataclass(frozen=True)
class WorstCaseDiagnostics:
    """Per-branch traces plus the zero-treated branch and degeneracy flag.

    ``complete`` is False only when the value exceeds `p_max`'s
    ``stop_above``: a certified lower bound, exact unless the search stopped
    before the free branches, at the zero-treated value or the fixed ones.
    """

    degenerate: bool
    zero_treated_value: float
    zero_treated_j: int
    branches: tuple[BranchTrace, ...]
    complete: bool = True


@dataclass(frozen=True)
class WorstCaseResult:
    """Maximum rejection probability and the configuration attaining it."""

    value: float
    achieving_config: ZeroTreated | Boundary
    diagnostics: WorstCaseDiagnostics


def _validate_mc(m: int, c: float) -> tuple[int, float]:
    m, c = as_integer("m", m, 2), float(c)
    if not math.isfinite(c) or c <= 0:
        raise InvalidParameterError(f"threshold c must be finite and > 0, got {c!r}")
    return m, c


def _worthless(m: int, c: float) -> bool:
    """c <= m^{-1/2}, with a small relative fuzz so that the nearest float to
    m^{-1/2} counts: every test at such a threshold rejects with probability 1."""
    return c * c * m <= 1.0 + 1e-12


def _p_zero_treated_detail(m: int, c: float) -> tuple[float, int]:
    """Worst case with sigma_{m+1} = 0: value and the attaining j."""
    m, c = _validate_mc(m, c)
    if _worthless(m, c):
        return 1.0, 1
    if not math.isfinite(m * m * c * c):  # every tail is below 1e-150
        return 0.0, m
    r = m * m * c * c / (m * c * c + m - 1.0)
    gap = m * (m - 1.0) / (m * c * c + m - 1.0)  # m - r, which rounds to 0 at large c
    j = np.arange(m - math.ceil(gap) + 1, m + 1)  # the j > r
    thresholds = np.sqrt((j - 1) * r / ((j - m) + gap))
    value, best = _largest_tail(j - 1, thresholds)
    return value, int(j[best])


def p_zero_treated(m: int, c: float) -> float:
    """Worst-case rejection probability when the treated variance is zero.

    Equals 1 for c <= m^{-1/2} (as `p_max` does there) and a finite maximum
    of t tails over the active-control count j otherwise.
    """
    return _p_zero_treated_detail(m, c)[0]


def _h_bar_domain(m: int) -> float:
    if m < 4:
        raise InvalidParameterError(f"the k = 1 closed form requires m >= 4, got {m}")
    return math.sqrt(3.0 * (m - 1) / (m * (m - 3)))


def h_bar(m: int, c: float, rho: float) -> float:
    """Validity function for the k = 1 closed form; decreasing in c.

    The closed form holds at threshold c whenever h_bar(m, c, rho) <= 0.
    Defined for m >= 4, rho > 0 and c > sqrt(3(m-1)/(m(m-3))).
    """
    if not (math.isfinite(rho) and rho > 0):
        raise InvalidParameterError(f"h_bar requires rho > 0, got {rho!r}")
    if not c > _h_bar_domain(int(m)):
        raise InvalidParameterError(f"h_bar requires c > {_h_bar_domain(int(m))!r}, got {c!r}")
    m = int(m)
    kappa = m * c * c / (m - 1.0)
    tau = (kappa + 1.0) / (m * kappa)
    z_low = 1.0 / (2.0 * max(m * rho * rho + 1.0, kappa + 2.0))
    first = max(
        3.0 * (m * rho * rho + 1.0) / (m * rho * rho + kappa + 1.0),
        (2.0 * kappa + 3.0) / (kappa + 1.0),
    )
    second = (1.0 - tau) / (
        1.0 - tau + min((1.0 - 2.0 * tau) * kappa * z_low - 0.5, 0.0)
    )
    return first + second - m * kappa / (m * rho * rho + kappa + 1.0) - 1.0


def _boundary_rows(m: int, rho: float, m1, m0, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Grouped rows (values, counts), one per (m1, m0, gamma) triple (broadcast).

    Row i has values [rho^{-1}, 0, gamma[i]] with counts
    [m1[i], m0[i], m - m1[i] - m0[i]].  A free ratio equal to a pinned value
    is merged into that group (free count 0), so that equal ratio vectors
    give bit-identical rows and ties fall to the first branch in order.  A
    merged row is a fixed configuration, set by its count at 1/rho whatever
    its inert free value, so `_optimize_gamma_branches` evaluates it once
    per kernel call for all the branches that name it.
    """
    rows = np.broadcast(m1, m0, gamma).size  # raises where the shapes do not broadcast
    values, counts = np.empty((rows, 3)), np.empty((rows, 3))
    values[:, 0], values[:, 1], values[:, 2] = 1.0 / rho, 0.0, gamma
    counts[:, 0], counts[:, 1] = m1, m0
    counts[:, 2] = m - counts[:, 0] - counts[:, 1]
    merge = values[:, :2] == values[:, 2:]  # at most one pinned group per row
    counts[:, :2] += merge * counts[:, 2:]
    counts[merge.any(axis=1), 2] = 0.0
    return values, counts


def _gamma_candidates(rho: float, rho_lower: float) -> np.ndarray:
    """Log grid over the free-ratio domain, 4 points a decade, ends included."""
    lower, gamma_max = max(rho_lower, 1e-6), 1e4 * max(1.0, 1.0 / rho)
    n = math.ceil(_GRID_POINTS_PER_DECADE * math.log10(gamma_max / lower) - 1e-9) + 1
    return np.unique(np.concatenate([[rho_lower], np.geomspace(lower, gamma_max, n)]))


def _branch_traces(m: int, c: float, k: int, rho: float, pairs: list[tuple[int, int]],
                   stop_above: float | None = None) -> list[BranchTrace]:
    """Traces of the (m1, m0) branches asked for, the fixed ones (m1 + m0 = m) first.

    The one producer of branch values for `p_max` and `_branch_value`, so a
    branch's value is the same whichever asks.  One trace per pair, except
    where the k = 1 closed form holds at c and (m, 0) is asked for: that branch
    is then the worst of all, and its one trace, the closed-form tail with
    n_evals = 0, is returned alone; no kernel runs.  Otherwise a fixed branch
    is one default-rule row; the free ones go to one `_optimize_gamma_branches`
    search over gamma in [rho_lower, 1e4 * max(1, 1/rho)], where rho_lower is 0
    if m1 >= m - k + 1 (the k-th smallest ratio is then 1/rho whatever gamma)
    and 1/rho otherwise; the gamma -> inf limit is the zero-treated branch,
    which `p_max` takes on its own.  With ``stop_above`` set, the free search
    is skipped, and only the fixed traces return, when a fixed value is
    already above it; otherwise every pair's trace returns.
    """
    if k == 1 and m >= 4 and rho > 0 and (m, 0) in pairs and c > _h_bar_domain(m) \
            and h_bar(m, c, rho) <= 0.0:
        tail = float(t_two_sided_tail(m - 1, c / math.sqrt(rho * rho + 1.0 / m)))
        return [BranchTrace(m, 0, 0.0, None, tail, 0)]
    branches = [(m1, m0, 0.0 if m1 >= m - k + 1 else 1.0 / rho) for m1, m0 in pairs]
    fixed = [br for br in branches if br[0] + br[1] == m]
    free = [br for br in branches if br[0] + br[1] < m]
    traces = []
    if fixed:
        m1s, m0s, _ = zip(*fixed)
        values, counts = _boundary_rows(m, rho, m1s, m0s, 0.0)
        vals = _tails_for_gamma_rows(values, c, DEFAULT_SETTINGS, counts=counts)
        traces = [BranchTrace(*br, None, float(v), 1) for br, v in zip(fixed, vals)]
        if stop_above is not None and vals.max() > stop_above:
            return traces
    if free:
        traces += _optimize_gamma_branches(m, c, rho, free, {tr.m1: tr.value for tr in traces})
    return traces


def _zero_treated_only(m: int, c: float, rho: float) -> bool:
    """rho = 0, or so small that the boundary rows would overflow the kernel
    (its largest product is below m*(1 + kappa)*gamma^2, gamma up to 1e4/rho);
    `p_max` is then its rho -> 0+ limit, the zero-treated value."""
    top = 1e4 * max(1.0, 1.0 / rho) if rho > 0.0 else math.inf
    return not math.isfinite(m * (1.0 + m * c * c / (m - 1)) * top * top)


def _branch_value(m: int, c: float, spec: HeterogeneitySpec, branch) -> float:
    """Branch (m1, m0), or the zero-treated one (None), == to its `p_max` trace.

    As in `p_max`: 1 at c <= m^{-1/2}, tested before c is validated because
    `rho_frontier` asks at c = |t| = 0; the zero-treated one if
    `_zero_treated_only`."""
    if _worthless(m, c):
        return 1.0
    if branch is None or _zero_treated_only(m, c, spec.rho):
        return p_zero_treated(m, c)
    return _branch_traces(m, c, spec.k, spec.rho, [branch])[0].value


def _branch_order(m: int, k: int) -> list[tuple[int, int]]:
    """(m1, m0) enumeration with the large-m warm start first.

    The warm-start configuration (k-1 zeros, remaining m-k+1 controls at
    rho^{-1}) is the known worst case in the large-m regime.  `p_max`
    evaluates every branch in one pass, so the order only decides which
    branch wins a tie and the order of ``diagnostics.branches``.
    """
    pairs = [(m - k + 1, k - 1)]
    for m0 in range(k):
        for m1 in range(m - m0 + 1):
            if (m1, m0) != pairs[0]:
                pairs.append((m1, m0))
    return pairs


def _brent_max(a: float, x: float, b: float, fx: float):
    """Brent's parabolic-plus-golden search for a maximum in [a, b] from x.

    A generator: it yields each probe gamma, is sent the probe's value, and
    returns the best gamma found once the bracket around it is at most
    1e-6*max(|x|, 1e-9) wide.  ``fx`` is the value at x, so the start costs
    nothing.  x may be a domain end (a == x or x == b); the first probe is
    then one minimal step inside, and if it is no better the search ends
    there.  A probe that only ties x does not replace it, so a flat stretch
    shrinks the bracket toward x.  Brent (1973), ch. 5, written for a maximum.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol = 0.25 * _BRENT_REL_TOL * max(abs(x), 1e-9)
        if max(x - a, b - x) <= 2.0 * tol:
            return x
        golden = True
        if x == a or x == b:  # a domain end: one minimal step inside first
            d = math.copysign(tol, mid - x)
            golden = False
        elif abs(e) > tol:  # try a parabola through x, w and v
            r = (x - w) * (fv - fx)
            q = (x - v) * (fw - fx)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if golden:
            e = (a - x) if x >= mid else (b - x)
            d = _GOLDEN_STEP * e
        u = x + d if abs(d) >= tol else x + math.copysign(tol, d)
        fu = yield u
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _optimize_gamma_branches(
    m: int,
    c: float,
    rho: float,
    branches: list[tuple[int, int, float]],
    fixed: dict[int, float] | None = None,
) -> list[BranchTrace]:
    """Maximize each (m1, m0) branch's row over gamma, several branches in lock-step.

    Each branch evaluates its grid (`_gamma_candidates`) on the probe rule,
    then runs Brent's method (`_brent_max`) from every grid peak, bracketed
    by the peak's two neighbours, then evaluates each search's result on the
    default rule and reports the best.  Every step evaluates one probe per
    unfinished search in a single kernel call; a search's probes depend only
    on its own values, so a branch's trace is the same in any group.  A
    domain end merges the free group into a pinned one (`_boundary_rows`),
    so many branches name the same fixed configuration there: a kernel call
    evaluates each such configuration once, keyed by its count at 1/rho,
    and ``fixed`` (count at 1/rho -> default-rule value) supplies the ones
    the caller has already evaluated.  Returns one trace per branch.
    """
    n = len(branches)
    m1s, m0s, _ = (np.array(col) for col in zip(*branches))
    known = {_PROBE_SETTINGS: {}, DEFAULT_SETTINGS: dict(fixed or {})}

    def tails(idx, gammas, rule):
        values, counts = _boundary_rows(m, rho, m1s[idx], m0s[idx], gammas)
        merged = np.flatnonzero(counts[:, 2] == 0.0)  # fixed configurations
        keys, first, inverse = np.unique(counts[merged, 0], return_index=True, return_inverse=True)
        todo = merged[first[[key not in known[rule] for key in keys.tolist()]]]
        send = np.concatenate([np.flatnonzero(counts[:, 2] > 0.0), todo])
        out = np.empty(len(values))
        if send.size:
            out[send] = _tails_for_gamma_rows(values[send], c, rule, counts=counts[send])
        known[rule].update(zip(counts[todo, 0].tolist(), out[todo].tolist()))
        out[merged] = np.array([known[rule][key] for key in keys.tolist()])[inverse]
        return out

    grids = {rl: _gamma_candidates(rho, rl) for rl in {rl for *_, rl in branches}}  # shared
    cand_sets = [grids[rl] for *_, rl in branches]
    n_evals = np.array([cs.size for cs in cand_sets])
    offsets = np.concatenate([[0], np.cumsum(n_evals)])
    gammas = np.concatenate(cand_sets)
    grid_vals = tails(np.repeat(np.arange(n), n_evals), gammas, _PROBE_SETTINGS)

    owners, searches = [], []  # one Brent search per peak of a branch's grid
    for i, cs in enumerate(cand_sets):
        vals = grid_vals[offsets[i] : offsets[i + 1]]
        rise = np.concatenate([[True], vals[1:] > vals[:-1]])
        fall = np.concatenate([vals[:-1] >= vals[1:], [True]])
        for p in np.flatnonzero(rise & fall):  # the grid argmax is always one
            a, b = cs[max(p - 1, 0)], cs[min(p + 1, cs.size - 1)]
            owners.append(i)
            searches.append(_brent_max(a, cs[p], b, vals[p]))
    owners = np.array(owners)

    probes: dict[int, float] = {}
    finals = np.empty(len(searches))

    def advance(s: int, value: float | None) -> None:
        try:
            probes[s] = searches[s].send(value)
        except StopIteration as done:
            finals[s] = done.value

    for s in range(len(searches)):
        advance(s, None)
    while probes:
        idx = np.fromiter(probes, dtype=int)
        vals = tails(owners[idx], np.fromiter(probes.values(), dtype=float), _PROBE_SETTINGS)
        probes.clear()
        np.add.at(n_evals, owners[idx], 1)
        for s, v in zip(idx, vals):
            advance(int(s), float(v))

    final_vals = tails(owners, finals, DEFAULT_SETTINGS)
    np.add.at(n_evals, owners, 1)
    traces = []
    for i, (m1, m0, rl) in enumerate(branches):
        mine = np.flatnonzero(owners == i)
        s = mine[int(np.argmax(final_vals[mine]))]
        gamma, value = float(finals[s]), float(final_vals[s])
        traces.append(BranchTrace(m1, m0, rl, gamma, value, int(n_evals[i])))
    return traces


def p_max(
    m: int,
    c: float,
    spec: HeterogeneitySpec,
    stop_above: float | None = None,
) -> WorstCaseResult:
    """Maximum rejection probability over the (k, rho) feasible set.

    Returns 1 with a degeneracy flag for c <= m^{-1/2} (every test at such a
    threshold is worthless); returns the zero-treated worst case alone at rho
    = 0 or below about 1e-150 (`_zero_treated_only`); otherwise maximizes over
    the zero-treated branch and all boundary branches, of which only (m, 0)
    is evaluated, as the k = 1 closed form, where that holds at c.  Ties
    between the zero-treated branch and a boundary branch report the
    boundary branch.

    ``stop_above`` asks only whether the maximum exceeds a threshold.  The
    search stops early only before any free branch is searched: at the
    zero-treated value (no traces) or the fixed branches (their traces
    alone), when one exceeds it; otherwise the result is the unthresholded
    one.  diagnostics.complete is False only when the value exceeds
    stop_above.  The certified inversions use this; exact values always pass
    stop_above = None.
    """
    m, c = _validate_mc(m, c)
    if spec.m != m:
        raise InvalidParameterError(f"spec.m={spec.m} does not match m={m}")
    k, rho = spec.k, spec.rho
    p0, j0 = _p_zero_treated_detail(m, c)
    degenerate = _worthless(m, c)
    if degenerate or _zero_treated_only(m, c, rho):
        return WorstCaseResult(p0, ZeroTreated(j=j0), WorstCaseDiagnostics(degenerate, p0, j0, ()))
    if stop_above is not None and p0 > stop_above:
        return WorstCaseResult(p0, ZeroTreated(j=j0), WorstCaseDiagnostics(False, p0, j0, (), False))

    order = _branch_order(m, k)
    traces = _branch_traces(m, c, k, rho, order, stop_above)
    best = max(traces, key=lambda tr: tr.value)  # ties: the first, fixed branches first
    rank = {pair: i for i, pair in enumerate(order)}
    branches = tuple(sorted(traces, key=lambda tr: rank[tr.m1, tr.m0]))
    complete = stop_above is None or best.value <= stop_above
    diagnostics = WorstCaseDiagnostics(False, p0, j0, branches, complete)
    if best.value < p0:
        return WorstCaseResult(p0, ZeroTreated(j=j0), diagnostics)
    return WorstCaseResult(best.value, Boundary(best.m1, best.m0, best.gamma), diagnostics)
