"""Worst-case rejection probability over feasible variance configurations.

Under the relative-heterogeneity restriction sigma_{m+1} <= rho * sigma_(k)
(k-th smallest control SD), the worst-case null rejection probability of the
two-sided t-test at threshold c is attained either

  * with a zero treated variance (`p_zero_treated`: a finite max of t tails
    over the number j of active controls), or
  * on the boundary of the feasible set, at a ratio configuration with m1
    controls at rho^{-1}, m0 at zero (m0 <= k-1), and the remaining
    m - m1 - m0 at a common free value gamma (`p_bar`), maximized over
    gamma (`p_tilde`).

`p_max` takes the maximum over all such branches.  Each branch is a cheap
one-dimensional maximization (log-spaced grid, then golden-section
refinement); at most k*(2m+1-k)/2 of them are needed for one (k, rho), and
a memo keyed by (m1, m0, gamma-domain) lets an all-k sweep share work.
Boundary rows reach the tail kernel as three (value, count) groups
(`_boundary_rows`), so a kernel evaluation costs the same at every m.  One
optimizer, `_optimize_gamma_branches`, runs that search for a group of
branches in lock-step, so that each golden-section iteration costs one
vectorized tail evaluation for the whole group; `p_max` calls it on growing
groups and `p_tilde` on a single branch.  The tail kernel's values do not
depend on the batch a row is evaluated in, so a branch's trace is the same
either way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import t_two_sided_tail
from .errors import InvalidParameterError
from .rejection import DEFAULT_SETTINGS, QuadratureSettings, _tails_for_gamma_rows

__all__ = [
    "HeterogeneitySpec",
    "WorstCaseResult",
    "ZeroTreated",
    "Boundary",
    "BranchTrace",
    "p_zero_treated",
    "p_bar",
    "p_tilde",
    "p_max",
    "p_max_all_k",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 60
_GOLDEN_REL_TOL = 1e-6
# Search probes run on a coarse 16-panel rule, because probes dominate the
# runtime.  Against a 30-digit oracle on 2,000 rows sampled like the search's
# own (tests/test_quadrature_oracle.py), probes were within 1.5e-8 of the
# exact tail wherever it is at most 0.5, and within 1.2e-5 at tails near 1
# (the default rule: 2.6e-10 and 7.9e-8).  Probe error never reaches a
# reported value: every branch value, and the certificate of an early exit,
# is re-evaluated on DEFAULT_SETTINGS; probes only choose the gamma at which
# that happens.
_PROBE_SETTINGS = QuadratureSettings(panels=16, nodes_per_panel=16)


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Relative-heterogeneity restriction: sigma_{m+1} <= rho * sigma_(k)."""

    m: int
    k: int
    rho: float

    def __post_init__(self):
        if int(self.m) < 2:
            raise InvalidParameterError(f"m must be >= 2, got {self.m}")
        if not 1 <= int(self.k) <= int(self.m):
            raise InvalidParameterError(f"k must lie in 1..{self.m}, got {self.k}")
        rho = float(self.rho)
        if not math.isfinite(rho) or rho < 0:
            raise InvalidParameterError(f"rho must be finite and >= 0, got {self.rho!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "k", int(self.k))
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
    """Optimizer trace for one (m1, m0) boundary branch."""

    m1: int
    m0: int
    rho_lower: float
    gamma: float | None
    value: float
    n_evals: int


@dataclass(frozen=True)
class WorstCaseDiagnostics:
    """Per-branch traces plus the zero-treated branch and degeneracy flag.

    ``complete`` is False when the search stopped early because the running
    maximum already exceeded a caller-supplied threshold; the value is then
    a certified lower bound rather than the exact maximum.
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
    if int(m) < 2:
        raise InvalidParameterError(f"m must be >= 2, got {m}")
    c = float(c)
    if not math.isfinite(c) or c <= 0:
        raise InvalidParameterError(f"threshold c must be finite and > 0, got {c!r}")
    return int(m), c


def _p_zero_treated_detail(m: int, c: float) -> tuple[float, int]:
    """Worst case with sigma_{m+1} = 0: value and the attaining j."""
    m, c = _validate_mc(m, c)
    # the boundary c = m^{-1/2} is detected with a small relative fuzz so
    # that the nearest representable float still lands on the 0.5 case
    boundary = c * c * m
    if boundary < 1.0 - 1e-12:
        return 1.0, 1
    if boundary <= 1.0 + 1e-12:
        return 0.5, 2
    r = m * m * c * c / (m * c * c + m - 1.0)
    j = np.arange(math.floor(r) + 1, m + 1)
    thresholds = np.sqrt((j - 1) * r / (j - r))
    tails = np.atleast_1d(t_two_sided_tail(j - 1, thresholds))
    best = int(np.argmax(tails))
    return float(tails[best]), int(j[best])


def p_zero_treated(m: int, c: float) -> float:
    """Worst-case rejection probability when the treated variance is zero.

    Equals 1 for c < m^{-1/2}, exactly 0.5 at c = m^{-1/2}, and a finite
    maximum of t tails over the active-control count j otherwise.
    """
    return _p_zero_treated_detail(m, c)[0]


def _boundary_rows(m: int, rho: float, m1, m0, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Grouped rows (values, counts), one per (m1, m0, gamma) triple (broadcast).

    Row i has values [rho^{-1}, 0, gamma[i]] with counts
    [m1[i], m0[i], m - m1[i] - m0[i]].  A free ratio equal to a pinned value
    is merged into that group (free count 0), so that equal ratio vectors
    give bit-identical rows and ties fall to the first branch in order.
    """
    m1, m0, gamma = np.broadcast_arrays(*map(np.atleast_1d, (m1, m0, gamma)))
    values = np.stack(np.broadcast_arrays(1.0 / rho, 0.0, gamma), axis=1).astype(np.float64)
    counts = np.stack([m1, m0, m - m1 - m0], axis=1).astype(np.float64)
    merge = values[:, :2] == values[:, 2:]  # at most one pinned group per row
    counts[:, :2] += merge * counts[:, 2:]
    counts[merge.any(axis=1), 2] = 0.0
    return values, counts


def _check_branch(m: int, rho: float, m1: int, m0: int) -> None:
    if not (0 <= m0 and 0 <= m1 and m0 + m1 <= m):
        raise InvalidParameterError(f"invalid branch counts m1={m1}, m0={m0} for m={m}")
    if not (math.isfinite(rho) and rho > 0):
        raise InvalidParameterError(f"rho must be finite and > 0, got {rho!r}")


def p_bar(
    m: int,
    c: float,
    rho: float,
    gamma: float | None,
    m1: int,
    m0: int,
) -> float:
    """Rejection probability at the structured boundary configuration.

    The ratio vector has m1 entries at rho^{-1}, m0 zeros, and the remaining
    m - m1 - m0 entries at ``gamma`` (required iff that remainder is
    positive; ignored otherwise).
    """
    m, c = _validate_mc(m, c)
    _check_branch(m, rho, m1, m0)
    rest = m - m1 - m0
    if rest > 0:
        if gamma is None:
            raise InvalidParameterError("gamma required when m1 + m0 < m")
        gamma = float(gamma)
        if not math.isfinite(gamma) or gamma < 0:
            raise InvalidParameterError(f"gamma must be finite and >= 0, got {gamma!r}")
        if gamma == 0.0 and m1 == 0:
            raise InvalidParameterError("all-zero ratio configuration (m1=0, gamma=0)")
    else:
        if m1 == 0:
            raise InvalidParameterError("all-zero ratio configuration (m1=0, m0=m)")
        gamma = 0.0  # no remaining columns exist; value unused
    values, counts = _boundary_rows(m, rho, m1, m0, gamma)
    return float(_tails_for_gamma_rows(values, c, DEFAULT_SETTINGS, counts=counts)[0])


def _gamma_candidates(rho: float, rho_lower: float, m1: int) -> np.ndarray:
    """Log-spaced grid over the free-ratio domain, boundary point included."""
    gamma_max = 1e4 * max(1.0, 1.0 / rho)
    grid = np.geomspace(max(rho_lower, 1e-6), gamma_max, _GRID_POINTS)
    candidates = np.unique(np.concatenate([[rho_lower], grid]))
    if candidates[0] == 0.0 and m1 == 0:
        candidates = candidates[1:]  # gamma = 0 with no rho^{-1} entries is degenerate
    return candidates


def p_tilde(
    m: int,
    c: float,
    k: int,
    rho: float,
    m1: int,
    m0: int,
) -> float:
    """Supremum of p_bar over the free ratio gamma in [rho_lower, inf).

    The domain lower end is 0 when m1 >= m - k + 1 (the k-th smallest ratio
    is then pinned at rho^{-1} regardless of gamma) and rho^{-1} otherwise.
    The search truncates at 1e4 * max(1, rho^{-1}); the gamma -> infinity
    limit is dominated by the zero-treated branch, which `p_max` includes
    explicitly, so truncation cannot lose the supremum.
    """
    m, c = _validate_mc(m, c)
    _check_branch(m, rho, m1, m0)
    if not 1 <= k <= m:
        raise InvalidParameterError(f"k must lie in 1..{m}, got {k}")
    if m1 + m0 == m:
        return p_bar(m, c, rho, None, m1, m0)
    rho_lower = 0.0 if m1 >= m - k + 1 else 1.0 / rho
    traces, _ = _optimize_gamma_branches(m, c, rho, [(m1, m0, rho_lower)], None)
    return traces[0].value


def _branch_order(m: int, k: int) -> list[tuple[int, int]]:
    """(m1, m0) enumeration with the large-m warm start first.

    The warm-start configuration (k-1 zeros, remaining m-k+1 controls at
    rho^{-1}) is the known worst case in the large-m regime; evaluating it
    first seeds the incumbent.
    """
    pairs = [(m - k + 1, k - 1)]
    for m0 in range(k):
        for m1 in range(m - m0 + 1):
            if (m1, m0) != pairs[0]:
                pairs.append((m1, m0))
    return pairs


def _optimize_gamma_branches(
    m: int,
    c: float,
    rho: float,
    branches: list[tuple[int, int, float]],
    stop_above: float | None,
) -> tuple[list[BranchTrace], BranchTrace | None]:
    """Maximize p_bar over gamma for several (m1, m0) branches in lock-step.

    Each branch runs a log-spaced grid on the probe rule, then golden-section
    refinement around the grid argmax, then one evaluation of the best gamma
    on the default rule; every branch's probe points share one
    vectorized kernel call per step.  Returns (traces, early): either every
    branch finished (`early` is None) or the grid phase already certified a
    value above ``stop_above`` and `early` carries that single confirmed
    trace (traces is then empty and nothing should be memoized).
    """
    n = len(branches)
    m1s, m0s, _ = (np.array(col) for col in zip(*branches))

    def tails(idx, gammas, rule):
        values, counts = _boundary_rows(m, rho, m1s[idx], m0s[idx], gammas)
        return _tails_for_gamma_rows(values, c, rule, counts=counts)

    cand_sets = [_gamma_candidates(rho, rl, m1) for (m1, m0, rl) in branches]
    n_evals = np.array([cs.size for cs in cand_sets])
    offsets = np.concatenate([[0], np.cumsum(n_evals)])
    grid_vals = tails(
        np.repeat(np.arange(n), n_evals), np.concatenate(cand_sets), _PROBE_SETTINGS
    )

    best_gamma = np.empty(n)
    best_val = np.empty(n)
    a = np.empty(n)
    b = np.empty(n)
    for i, cs in enumerate(cand_sets):
        vals = grid_vals[offsets[i] : offsets[i + 1]]
        j = int(np.argmax(vals))
        best_gamma[i] = cs[j]
        best_val[i] = vals[j]
        a[i] = cs[j - 1] if j > 0 else cs[0]
        b[i] = cs[j + 1] if j + 1 < cs.size else cs[-1]

    if stop_above is not None:
        i = int(np.argmax(best_val))
        if best_val[i] > stop_above:
            m1, m0, rl = branches[i]
            confirmed = float(tails(i, best_gamma[i], DEFAULT_SETTINGS)[0])
            if confirmed > stop_above:
                early = BranchTrace(
                    m1, m0, rl, float(best_gamma[i]), confirmed, int(n_evals[i]) + 1
                )
                return [], early
            best_val[i] = confirmed

    # golden-section refinement, all branches advanced one probe per sweep
    has_bracket = b > a
    x1 = np.where(has_bracket, b - _INVPHI * (b - a), best_gamma)
    x2 = np.where(has_bracket, a + _INVPHI * (b - a), best_gamma)
    f1 = np.full(n, -np.inf)
    f2 = np.full(n, -np.inf)
    start = np.nonzero(has_bracket)[0]
    if start.size:
        pts = np.concatenate([x1[start], x2[start]])
        vals = tails(np.concatenate([start, start]), pts, _PROBE_SETTINGS)
        f1[start] = vals[: start.size]
        f2[start] = vals[start.size :]
        n_evals[start] += 2
    while True:
        active = has_bracket & ((b - a) > _GOLDEN_REL_TOL * np.maximum(0.5 * (a + b), 1e-9))
        if not active.any():
            break
        ia = np.nonzero(active)[0]
        left = f1[ia] >= f2[ia]
        il, ir = ia[left], ia[~left]
        b[il] = x2[il]
        x2[il] = x1[il]
        f2[il] = f1[il]
        x1[il] = b[il] - _INVPHI * (b[il] - a[il])
        a[ir] = x1[ir]
        x1[ir] = x2[ir]
        f1[ir] = f2[ir]
        x2[ir] = a[ir] + _INVPHI * (b[ir] - a[ir])
        pts = np.concatenate([x1[il], x2[ir]])
        vals = tails(np.concatenate([il, ir]), pts, _PROBE_SETTINGS)
        f1[il] = vals[: il.size]
        f2[ir] = vals[il.size :]
        n_evals[ia] += 1
        for fv, xv in ((f1, x1), (f2, x2)):
            upd = active & (fv > best_val)
            best_val[upd] = fv[upd]
            best_gamma[upd] = xv[upd]

    final_vals = tails(np.arange(n), best_gamma, DEFAULT_SETTINGS)
    n_evals += 1
    traces = [
        BranchTrace(m1, m0, rl, float(g), float(v), int(ne))
        for (m1, m0, rl), g, v, ne in zip(branches, best_gamma, final_vals, n_evals)
    ]
    return traces, None


def p_max(
    m: int,
    c: float,
    spec: HeterogeneitySpec,
    stop_above: float | None = None,
    _memo: dict | None = None,
) -> WorstCaseResult:
    """Maximum rejection probability over the (k, rho) feasible set.

    Returns 1 with a degeneracy flag for c <= m^{-1/2} (every test at such a
    threshold is worthless); returns the zero-treated worst case alone when
    rho = 0; otherwise maximizes over the zero-treated branch and all
    boundary branches.  Ties between the zero-treated branch and a boundary
    branch report the boundary branch.

    ``stop_above`` allows the caller to ask only whether the maximum exceeds
    a threshold: the search returns early (diagnostics.complete = False,
    value a certified lower bound) once that is established.  Critical-value
    bisection uses this; exact values always pass stop_above = None.
    """
    m, c = _validate_mc(m, c)
    if spec.m != m:
        raise InvalidParameterError(f"spec.m={spec.m} does not match m={m}")
    k, rho = spec.k, spec.rho

    if c * c * m <= 1.0 + 1e-12:
        return WorstCaseResult(
            value=1.0,
            achieving_config=ZeroTreated(j=1),
            diagnostics=WorstCaseDiagnostics(True, 1.0, 1, ()),
        )

    p0, j0 = _p_zero_treated_detail(m, c)
    if rho == 0.0:
        return WorstCaseResult(
            value=p0,
            achieving_config=ZeroTreated(j=j0),
            diagnostics=WorstCaseDiagnostics(False, p0, j0, ()),
        )

    memo = _memo if _memo is not None else {}
    order = _branch_order(m, k)
    trace_map: dict[tuple[int, int], BranchTrace] = {}
    pending_fixed: list[tuple[int, int, float]] = []
    pending_gamma: list[tuple[int, int, float]] = []
    for m1, m0 in order:
        rho_lower = 0.0 if m1 >= m - k + 1 else 1.0 / rho
        trace = memo.get((m1, m0, rho_lower))
        if trace is not None:
            trace_map[(m1, m0)] = trace
        elif m1 + m0 == m:
            pending_fixed.append((m1, m0, rho_lower))
        else:
            pending_gamma.append((m1, m0, rho_lower))

    def result(value: float, achieving, complete: bool) -> WorstCaseResult:
        branches = tuple(
            trace_map[pair] for pair in order if pair in trace_map
        )
        return WorstCaseResult(
            value=value,
            achieving_config=achieving,
            diagnostics=WorstCaseDiagnostics(False, p0, j0, branches, complete),
        )

    def boundary_result(trace: BranchTrace, complete: bool) -> WorstCaseResult:
        achieving = Boundary(m1=trace.m1, m0=trace.m0, gamma=trace.gamma)
        return result(trace.value, achieving, complete)

    if stop_above is not None and p0 > stop_above:
        return result(p0, ZeroTreated(j=j0), False)

    best_trace: BranchTrace | None = None
    for trace in trace_map.values():
        if best_trace is None or trace.value > best_trace.value:
            best_trace = trace
    if stop_above is not None and best_trace is not None and best_trace.value > stop_above:
        return boundary_result(best_trace, False)

    def absorb(new_traces: list[BranchTrace]) -> BranchTrace | None:
        nonlocal best_trace
        for trace in new_traces:
            memo[(trace.m1, trace.m0, trace.rho_lower)] = trace
            trace_map[(trace.m1, trace.m0)] = trace
            if best_trace is None or trace.value > best_trace.value:
                best_trace = trace
        if stop_above is not None and best_trace is not None:
            if best_trace.value > stop_above:
                return best_trace
        return None

    # fixed configurations (no free ratio) are single evaluations; they also
    # contain the usual maximizer, so they run first to seed early exits
    if pending_fixed:
        m1s, m0s, _ = zip(*pending_fixed)
        values, counts = _boundary_rows(m, rho, m1s, m0s, 0.0)
        vals = _tails_for_gamma_rows(values, c, DEFAULT_SETTINGS, counts=counts)
        exceeded = absorb(
            [
                BranchTrace(m1, m0, rl, None, float(v), 1)
                for (m1, m0, rl), v in zip(pending_fixed, vals)
            ]
        )
        if exceeded is not None:
            return boundary_result(exceeded, False)

    # free-ratio branches in ramped group sizes: a tiny first group keeps the
    # certify-early path cheap, large later groups keep the batch kernel busy
    n_opt = 0
    pos, group_size = 0, 1
    while pos < len(pending_gamma):
        group = pending_gamma[pos : pos + group_size]
        traces, early = _optimize_gamma_branches(m, c, rho, group, stop_above)
        if early is not None:
            trace_map[(early.m1, early.m0)] = early  # not memoized: bound only
            return boundary_result(early, False)
        n_opt += len(group)
        exceeded = absorb(traces)
        if exceeded is not None:
            return boundary_result(exceeded, False)
        pos += group_size
        group_size = min(4 * group_size, 48)
    assert n_opt <= k * (2 * m + 1 - k) // 2

    if best_trace is not None and best_trace.value >= p0:
        return boundary_result(best_trace, True)
    return result(p0, ZeroTreated(j=j0), True)


def p_max_all_k(m: int, c: float, rho: float) -> tuple[WorstCaseResult, ...]:
    """p_max for every k in 1..m at fixed (m, c, rho), sharing branch work.

    The branch memo is keyed by (m1, m0, gamma-domain lower end), so the
    full sweep solves at most m*(m+1) distinct one-dimensional problems.
    """
    m, c = _validate_mc(m, c)
    memo: dict = {}
    return tuple(
        p_max(m, c, HeterogeneitySpec(m=m, k=k, rho=rho), _memo=memo)
        for k in range(1, m + 1)
    )
