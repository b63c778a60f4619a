"""Critical values: inversion of the worst-case rejection probability.

The critical value cv_{m,alpha,k,rho} is the smallest threshold c whose
worst-case rejection probability is at most alpha.  Two routes exist:

  * ClosedFormK1 — for k = 1, m >= 4, rho > 0 the worst case is attained at
    the all-equal configuration (every control SD at rho^{-1}) whenever the
    validity function `worstcase.h_bar` is nonpositive at the candidate
    threshold, and `p_max` returns that closed form there itself.  Here the
    rule is the published grids' convention, alpha <= `alpha_underline`(m,
    rho), with the cutoff rounded up to 0.01; the critical value is then
    sqrt(rho^2 + 1/m) * t_{m-1, 1-alpha/2} exactly.
  * Optimized — the first c at which `worstcase.p_max`, nonincreasing in
    c, is at most alpha.  The upper end starts at the large-m guess
    sqrt(m/(m-k+1)) * rho * z_{alpha/2} (never trusted as final) plus the
    k=1 closed-form value.

`_first_true` is the one monotone inversion, doubling then bisection: it
finds `c_underline`'s sign change of `h_bar`, and via `_certified_first_true`
the critical value here and `inference.rho_frontier`'s bounds in rho.  That
bisects on the few p_max branches that decide where p_max crosses alpha and
certifies the bracket with two p_max calls, so a critical value makes 2
complete p_max calls (with the reported one).

`generate_table` evaluates grids of critical values with per-cell error
capture; `Table.records` rounds each cv to 3 decimals, half away from zero.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .distributions import normal_quantile, t_quantile, t_two_sided_tail
from .errors import (InvalidParameterError, NoValidCriticalValueError, NumericalFailureError,
                     as_integer)
from .worstcase import (Boundary, HeterogeneitySpec, WorstCaseResult, _branch_value, _h_bar_domain,
                        h_bar, p_max)

__all__ = [
    "CriticalValueResult",
    "c_underline",
    "alpha_underline",
    "critical_value",
    "one_sided_critical_value",
    "TableCell",
    "Table",
    "generate_table",
]

# bisection stops when the cv bracket is this tight (absolute), further
# narrowed so that cv*(1 - 1e-4) provably falls below the bracket
_CV_WIDTH = 5e-5
# doublings of the upper end before an inversion gives up
_MAX_DOUBLINGS = 200


def _first_true(pred, lo: float, hi: float, abs_tol: float = math.inf,
                rel_tol: float = math.inf) -> tuple[float, float] | None:
    """Final (lo, hi) bracket of where the monotone ``pred`` first holds.

    ``pred(lo)`` must be false.  A false ``pred(hi)`` puts the answer above
    hi, so lo rises to hi and hi doubles (None after `_MAX_DOUBLINGS`).  Then
    bisection until hi - lo <= min(abs_tol, rel_tol * max(hi, 1e-12)), or until
    lo and hi are adjacent floats (the midpoint rounds to an end); the answer
    is hi, and pred is false at lo.
    """
    for _ in range(_MAX_DOUBLINGS):
        if pred(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        return None
    while hi - lo > min(abs_tol, rel_tol * max(hi, 1e-12)):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _certified_first_true(p_at, branch_at, start, alpha: float, rising: bool,
                          lo: float, hi: float, **tol) -> tuple[float, float] | None:
    """`_first_true` of "p_max > alpha" (``rising``) or "p_max <= alpha".

    The bisection runs on an active set of branches (``start`` at first):
    the set is above alpha at x when some ``branch_at(x, branch)`` is.
    ``p_at`` (p_max with stop_above=alpha) then certifies the bracket: at
    the end where the set is at most alpha it must be too (else the branch
    it finds joins the set and the bisection replays), and at the other end
    it must be above alpha.  NumericalFailureError if either check fails.
    """
    active, value = [start], functools.cache(branch_at)  # memo of one inversion

    def above(x: float) -> bool:
        return any(value(x, branch) > alpha for branch in active)

    while True:
        found = _first_true(above if rising else lambda x: not above(x), lo, hi, **tol)
        if found is None:
            return None
        at_most, beyond = found if rising else found[::-1]
        cert = p_at(at_most)
        if cert.value <= alpha:
            break
        cfg = cert.achieving_config
        branch = (cfg.m1, cfg.m0) if isinstance(cfg, Boundary) else None
        if branch in active:
            raise NumericalFailureError(f"branch {branch} <= {alpha} at {at_most!r}, p_max is not")
        active.append(branch)
    if not p_at(beyond).value > alpha:
        raise NumericalFailureError(f"branches {active} > {alpha} at {beyond!r}, p_max is not")
    return found


def c_underline(m: int, rho: float) -> float:
    """Smallest threshold from which the k = 1 closed form is valid.

    The first c above the domain edge with h_bar(m, c, rho) <= 0 (h_bar is
    decreasing), found by `_first_true` from c = max(2 * edge, 2) to an
    absolute tolerance of 1e-8 on c, or to adjacent floats above c = 6.7e7.

    Raises:
        NoValidCriticalValueError: the crossing lies beyond the last doubling,
            c = max(2 * edge, 2) * 2^199 (1.6e60 to 2.4e60); the crossing
            grows about as 2 * rho, so this happens for rho above about 1e60.
    """
    lo = _h_bar_domain(int(m)) + 1e-9
    if h_bar(m, lo, rho) <= 0.0:
        return lo
    start = max(2.0 * lo, 2.0)
    found = _first_true(lambda c: h_bar(m, c, rho) <= 0.0, lo, start, abs_tol=1e-8)
    if found is None:
        raise NoValidCriticalValueError(
            f"h_bar(m={m}, c, rho={rho!r}) is still positive at c ="
            f" {math.ldexp(start, _MAX_DOUBLINGS - 1)!r}, the last of {_MAX_DOUBLINGS} doublings")
    return found[1]


def _c_underline_grid(m: int, rho: float, step: float = 0.01) -> float:
    """Smallest multiple of ``step`` at which h_bar is nonpositive.

    A conservative (rounded-up) version of `c_underline`; this coarser
    convention is what the frozen reference grids use for the cutoff.
    """
    edge = _h_bar_domain(int(m))
    n = math.floor(c_underline(m, rho) / step)
    for cand in (n - 1, n, n + 1, n + 2):
        c = cand * step
        if c > edge and h_bar(m, c, rho) <= 0.0:
            return c
    raise NoValidCriticalValueError(  # pragma: no cover - exact root brackets the grid
        f"no grid threshold near the h_bar crossing for m={m}, rho={rho}"
    )


def alpha_underline(m: int, rho: float) -> float:
    """Largest level alpha for which the k = 1 closed form is used.

    Equals the two-sided tail of sqrt(rho^2 + 1/m) * t_{m-1} at the
    validity threshold, with the threshold rounded up to the next 0.01
    grid point (a conservative quantization; the exact crossing is
    available via `c_underline`).
    """
    c_min = _c_underline_grid(m, rho)
    return float(t_two_sided_tail(int(m) - 1, c_min / math.sqrt(rho * rho + 1.0 / m)))


@dataclass(frozen=True)
class CriticalValueResult:
    """Critical value with its inversion diagnostics.

    Attributes:
        cv: the critical value.
        method: "ClosedFormK1" or "Optimized".
        alpha: two-sided level inverted.
        spec: the heterogeneity restriction used.
        worst_case: full worst-case evaluation at cv.
        iterations: p_max calls inside the certified bracket (1 on the
            Optimized path, 0 for the closed form or a lowest-c hit).
        p_max_calls: (complete, incomplete: above alpha) `p_max` calls made.
    """

    cv: float
    method: str
    alpha: float
    spec: HeterogeneitySpec
    worst_case: WorstCaseResult
    iterations: int
    p_max_calls: tuple[int, int]


def _closed_form_k1(m: int, alpha: float, rho: float) -> float:
    return -math.sqrt(rho * rho + 1.0 / m) * float(t_quantile(m - 1, alpha / 2.0))


def critical_value(m: int, alpha: float, spec: HeterogeneitySpec) -> CriticalValueResult:
    """Smallest c with worst-case rejection probability <= alpha (two-sided).

    Uses the exact closed form when its validity condition holds (k = 1,
    m >= 4, rho > 0 and alpha <= alpha_underline); otherwise inverts
    `p_max` with `_certified_first_true` to a bracket width of 5e-5
    (returning its upper end).  Either way one complete `p_max` at the
    returned cv fills ``worst_case``; on the ClosedFormK1 path that call is
    itself the closed-form tail, alpha up to rounding, with no search.

    Raises:
        InvalidParameterError: alpha outside (0, 0.5) or mismatched spec.
        NoValidCriticalValueError: no threshold attains level alpha (the
            attainable floor is attached).
    """
    if not (0.0 < alpha < 0.5):
        raise InvalidParameterError(f"alpha must lie in (0, 0.5), got {alpha!r}")
    m = as_integer("m", m)
    if spec.m != m:
        raise InvalidParameterError(f"spec.m={spec.m} does not match m={m}")
    k, rho = spec.k, spec.rho

    calls = [0, 0]  # complete and incomplete (above alpha) p_max calls

    def p_at(c: float, stop_above: float | None = alpha) -> WorstCaseResult:
        res = p_max(m, c, spec, stop_above=stop_above)
        calls[not res.diagnostics.complete] += 1
        return res

    if k == 1 and m >= 4 and rho > 0 and alpha <= alpha_underline(m, rho):
        cv, method, iterations = _closed_form_k1(m, alpha, rho), "ClosedFormK1", 0
    else:
        method = "Optimized"
        cv, iterations = 1.0 / math.sqrt(m) + 1e-6, 0
        # at the lowest admissible threshold the level may already be attained
        if p_at(cv).value > alpha:
            guess = -math.sqrt(m / (m - k + 1.0)) * rho * float(normal_quantile(alpha / 2.0))
            hi = 2.0 * (guess + _closed_form_k1(m, alpha, max(rho, 0.0)) + 1.0)
            found = _certified_first_true(
                p_at, lambda c, branch: _branch_value(m, c, spec, branch),
                (m - k + 1, k - 1), alpha, False,
                cv, hi, abs_tol=_CV_WIDTH, rel_tol=0.99e-4)
            if found is None:
                floor = p_max(m, math.ldexp(hi, _MAX_DOUBLINGS), spec).value
                raise NoValidCriticalValueError(
                    f"worst-case rejection probability stays above alpha={alpha}"
                    f" for all thresholds searched (floor ~{floor})", floor=floor)
            cv, iterations = found[1], 1
    worst_case = p_at(cv, None)
    return CriticalValueResult(cv=cv, method=method, alpha=alpha, spec=spec, worst_case=worst_case,
                               iterations=iterations, p_max_calls=tuple(calls))


def one_sided_critical_value(m: int, alpha: float, spec: HeterogeneitySpec) -> CriticalValueResult:
    """One-sided critical value at level alpha: the two-sided value at 2*alpha."""
    if not (0.0 < alpha < 0.25):
        raise InvalidParameterError(f"one-sided alpha must lie in (0, 0.25), got {alpha!r}")
    return critical_value(m, 2.0 * alpha, spec)


def round3(x: float) -> str:
    """Format to 3 decimals, rounding halves away from zero."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class TableCell:
    """One grid cell; exactly one of cv/error is set."""

    alpha: float
    m: int
    rho: float
    cv: float | None
    method: str | None
    error: str | None


@dataclass(frozen=True)
class Table:
    """Critical-value grid: its cells, and `records` for rendering them."""

    k: int
    alphas: tuple[float, ...]
    ms: tuple[int, ...]
    rhos: tuple[float, ...]
    cells: tuple[TableCell, ...]

    def records(self) -> list[dict]:
        """One dict per cell with a 3-decimal cv; stable field order."""
        records = []
        for cell in self.cells:
            rec: dict = {"alpha": cell.alpha, "m": cell.m, "rho": cell.rho, "k": self.k}
            if cell.cv is not None:
                rec["cv"] = float(round3(cell.cv))
                rec["method"] = cell.method
            else:
                rec["error"] = cell.error
            records.append(rec)
        return records


def _table_cell(args: tuple) -> TableCell:
    alpha, m, rho, k = args
    try:
        res = critical_value(m, alpha, HeterogeneitySpec(m=m, k=k, rho=rho))
        return TableCell(alpha, m, rho, res.cv, res.method, None)
    except (NoValidCriticalValueError, NumericalFailureError) as exc:  # unsolvable: not fatal
        return TableCell(alpha, m, rho, None, None, f"{type(exc).__name__}: {exc}")


def generate_table(
    alphas: list[float],
    ms: list[int],
    rhos: list[float],
    k: int,
    workers: int | None = None,
) -> Table:
    """Grid of critical values over alphas x rhos x ms at a fixed k.

    Cells are independent; an unsolvable cell (`NoValidCriticalValueError`,
    `NumericalFailureError`) records its error, and any other exception
    propagates, `InvalidParameterError` among them.  ``workers`` > 1
    evaluates cells in a process pool (deterministic output order).
    """
    jobs = [
        (float(alpha), int(m), float(rho), int(k))
        for alpha in alphas
        for rho in rhos
        for m in ms
    ]
    if workers is not None and workers > 1:
        # imported here: loading the process-pool machinery costs every start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_table_cell, jobs, chunksize=1))
    else:
        cells = [_table_cell(job) for job in jobs]
    return Table(
        k=int(k),
        alphas=tuple(float(a) for a in alphas),
        ms=tuple(int(m) for m in ms),
        rhos=tuple(float(r) for r in rhos),
        cells=tuple(cells),
    )
