"""Spans around the seams between stc's layers, recorded from outside the package.

A traced run replaces, for its duration, the module-level functions through
which one layer of ``stc`` calls the next with wrappers that record a span:
layer, name, start, end, the enclosing span, and a few counts read from the
call's arguments and result.  Nothing inside ``src/stc`` changes.  Spans nest
strictly (the benchmark is single-threaded), so a span's self time is its
duration minus the durations of its direct children.

A seam that no longer exists is listed as absent, and the metrics of its
layer then read 0, instead of the run failing.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("rejection", "worstcase", "critical_values", "inference", "designs", "simulate", "cli")


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """In-memory span recorder; `call` runs a function inside a span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def call(self, layer, name, info, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(layer, name, parent, 0.0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += span.dur
        if info is not None:
            span.info = info(args, kwargs, result)
        return result

    def patch(self, module, attr, layer, info=None):
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            return self.call(layer, attr, info, original, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    @contextmanager
    def seams(self):
        """Wrap every seam for the duration of the block."""
        import stc.cli
        import stc.critical_values
        import stc.inference
        import stc.simulate
        import stc.worstcase

        self.patch(stc.cli, "read_panel_csv", "cli", csv_info)
        self.patch(stc.cli, "extract", "designs", extract_info)
        self.patch(stc.cli, "run_test", "inference")
        self.patch(stc.cli, "rho_frontier", "inference", frontier_info)
        self.patch(stc.inference, "p_max", "worstcase", pmax_info)
        self.patch(stc.inference, "critical_value", "critical_values", cv_info)
        self.patch(stc.critical_values, "p_max", "worstcase", pmax_info)
        self.patch(stc.simulate, "critical_value", "critical_values", cv_info)
        self.patch(stc.simulate, "normal_means_t_statistics", "simulate", reps_info(2))
        self.patch(stc.simulate, "twfe_theta_hats", "simulate", reps_info(1))
        self.patch(stc.worstcase, "_tails_for_gamma_rows", "rejection", kernel_info)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def dump(self) -> list:
        return [[s.layer, s.name, s.parent, s.start, s.end, s.info] for s in self.spans]


# ---------------------------------------------------------------------------
# counts read from a call's arguments and result


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def kernel_info(args, kwargs, result):
    from stc.rejection import DEFAULT_SETTINGS

    rows, m = np.shape(args[0])
    settings = _arg(args, kwargs, 2, "settings") or DEFAULT_SETTINGS
    return {"rows": rows, "m": m, "panels": settings.panels,
            "nodes": rows * settings.panels * settings.nodes_per_panel}


def pmax_info(args, kwargs, result):
    branches = result.diagnostics.branches
    return {"c": float(args[1]), "stop_above": _arg(args, kwargs, 4, "stop_above"),
            "value": result.value, "complete": result.diagnostics.complete,
            "branches": len(branches), "evals": sum(b.n_evals for b in branches)}


def cv_info(args, kwargs, result):
    return {"m": int(args[0]), "alpha": float(args[1]), "cv": result.cv,
            "method": result.method, "iterations": result.iterations}


def frontier_info(args, kwargs, result):
    return {"bounds": len(result.bounds)}


def csv_info(args, kwargs, result):
    return {"rows": len(result["cluster"])}


def extract_info(args, kwargs, result):
    return {"rows": int(args[0].cluster.size)}


def reps_info(index):
    def info(args, kwargs, result):
        return {"reps": int(_arg(args, kwargs, index, "reps"))}
    return info


def run_info(args, kwargs, result):
    return {"reps": result.reps}


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict:
    """Per-layer counts and times; totals are per traced round."""
    by_layer = {layer: [s for s in spans if s.layer == layer] for layer in LAYERS}

    def per_round(x):
        return x / rounds

    def children(parents, layer):
        ids = {id(p) for p in parents}
        return [s for s in spans if s.layer == layer and s.parent is not None
                and id(spans[s.parent]) in ids]

    def total(group, key):
        return sum(s.info.get(key, 0) for s in group)

    kern = by_layer["rejection"]
    pmax = by_layer["worstcase"]
    complete = [s for s in pmax if s.info.get("complete")]
    early = [s for s in pmax if not s.info.get("complete")]
    cvs = by_layer["critical_values"]
    frontiers = [s for s in by_layer["inference"] if s.name == "rho_frontier"]
    tests = [s for s in by_layer["inference"] if s.name == "run_test"]
    extracts = by_layer["designs"]
    reads = [s for s in by_layer["cli"] if s.name == "read_panel_csv"]
    mains = [s for s in by_layer["cli"] if s.name != "read_panel_csv"]
    sim = by_layer["simulate"]
    sim_runs = [s for s in sim if s.parent is None or spans[s.parent].layer != "simulate"]
    cv_pmax = children(cvs, "worstcase")

    row_nodes = total(kern, "nodes")
    kern_self = sum(s.self_s for s in kern)
    extract_s = sum(s.dur for s in extracts)
    read_s = sum(s.dur for s in reads)
    tstat_s = sum(s.self_s for s in sim)
    return {
        "rejection.calls": per_round(len(kern)),
        "rejection.rows": per_round(total(kern, "rows")),
        "rejection.probe_rows": per_round(
            total([s for s in kern if s.info.get("panels") == 16], "rows")),
        "rejection.row_nodes": per_round(row_nodes),
        "rejection.row_node_m": per_round(
            sum(s.info.get("nodes", 0) * s.info.get("m", 0) for s in kern)),
        "rejection.self_s": per_round(kern_self),
        "rejection.row_nodes_per_s": _ratio(row_nodes, kern_self),
        "worstcase.pmax_complete_calls": per_round(len(complete)),
        "worstcase.pmax_early_calls": per_round(len(early)),
        "worstcase.pmax_complete_s": per_round(sum(s.dur for s in complete)),
        "worstcase.pmax_early_s": per_round(sum(s.dur for s in early)),
        "worstcase.branches": per_round(total(pmax, "branches")),
        "worstcase.branch_evals": per_round(total(pmax, "evals")),
        "worstcase.self_s": per_round(sum(s.self_s for s in pmax)),
        "critical_values.cv_calls": per_round(len(cvs)),
        "critical_values.closed_form_calls": per_round(
            sum(s.info.get("method") == "ClosedFormK1" for s in cvs)),
        "critical_values.pmax_per_cv": _ratio(len(cv_pmax), len(cvs)),
        "critical_values.complete_pmax_per_cv": _ratio(
            sum(bool(s.info.get("complete")) for s in cv_pmax), len(cvs)),
        "critical_values.iterations": per_round(total(cvs, "iterations")),
        "critical_values.self_s": per_round(sum(s.self_s for s in cvs)),
        "inference.pmax_per_frontier_bound": _ratio(
            len(children(frontiers, "worstcase")), total(frontiers, "bounds")),
        "inference.run_test_s": _median([s.dur for s in tests]),
        "inference.frontier_s": _median([s.dur for s in frontiers]),
        "inference.self_s": per_round(sum(s.self_s for s in by_layer["inference"])),
        "designs.extract_s": _median([s.dur for s in extracts]),
        "designs.rows_per_s": _ratio(total(extracts, "rows"), extract_s),
        "cli.read_csv_s": _median([s.dur for s in reads]),
        "cli.csv_rows_per_s": _ratio(total(reads, "rows"), read_s),
        "cli.self_s": per_round(sum(s.self_s for s in mains)),
        "simulate.tstat_s": per_round(tstat_s),
        "simulate.draws_per_s": _ratio(total(sim_runs, "reps"), tstat_s),
        "simulate.cv_s": per_round(sum(s.dur for s in children(sim_runs, "critical_values"))),
    }


def layer_shares(spans: list[Span]) -> dict:
    """Each layer's share of the total self time, for the summary."""
    totals = {layer: sum(s.self_s for s in spans if s.layer == layer) for layer in LAYERS}
    whole = sum(totals.values())
    return {layer: _ratio(t, whole) for layer, t in totals.items()}


# ---------------------------------------------------------------------------
# reconciliation of traced counters with what is visible from outside


def reconcile(spans: list[Span]) -> list[str]:
    """Check each critical value's p_max calls against its reported result.

    An Optimized cv makes one lower probe, upper-bracket probes until one
    comes in at or below alpha, one call per bisection iteration, and one
    final complete call at the returned cv.  A closed-form cv makes exactly
    one complete call.  Returns one message per critical value that does
    not reconcile.
    """
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.layer == "worstcase" and s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    problems = []
    for i, cv in enumerate(spans):
        if cv.layer != "critical_values" or not cv.info:
            continue  # a call that raised is already counted as failed
        calls = kids.get(i, [])
        info = cv.info
        label = f"cv(m={info['m']}, alpha={info['alpha']}, {info['method']})"
        if info["method"] == "ClosedFormK1":
            if len(calls) != 1 or calls[0].info.get("stop_above") is not None \
                    or not calls[0].info.get("complete"):
                problems.append(f"{label}: expected one complete p_max, got {len(calls)} calls")
            continue
        if len(calls) < 2:
            problems.append(f"{label}: only {len(calls)} p_max calls")
            continue
        alpha = info["alpha"]
        upper = 0
        if calls[0].info["value"] > alpha:
            for call in calls[1:]:
                upper += 1
                if call.info["value"] <= alpha:
                    break
        final = calls[-1].info
        expected = 1 + upper + info["iterations"] + 1
        if len(calls) != expected or final["stop_above"] is not None or final["c"] != info["cv"]:
            problems.append(
                f"{label}: {len(calls)} p_max calls, expected 1 + {upper} upper"
                f" + {info['iterations']} iterations + 1 final = {expected}")
    return problems
