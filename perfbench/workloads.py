"""The four benchmark workloads: seeded inputs, one round of user calls, checks.

Every workload is a closed loop: one caller in one process issues each call
after the previous one returns.  A round is a fixed list of jobs made from
the seed; the runner times each job and the whole round, then checks every
output.  Jobs are stratified so that the cost of a round barely depends on
the seed: the seed picks inputs within each stratum, never the strata.

``smoke=True`` shrinks every workload to a few seconds and adds one
deliberately wrong critical value, which the checks must count as failed.
"""
from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy import stats

import stc
import stc.cli
import stc.simulate
from stc import HeterogeneitySpec
from stc.critical_values import round3

from tracing import cv_info, run_info

HERE = os.path.dirname(os.path.abspath(__file__))

# the reproduction tests' tolerance on 3-decimal reference cells
CELL_TOL = 0.005
PVALUE_TOL = 1e-6
DEFAULT_SEED = 1


@dataclass
class Job:
    """One user call: ``run(invoke)`` returns the output, ``check`` judges it.

    ``check`` returns None for a correct output and a message otherwise.
    """

    kind: str
    label: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], str | None]
    work: int = 0  # replications, for the MC throughput


@functools.cache
def frozen() -> dict:
    """Values frozen from the library by freeze.py."""
    with open(os.path.join(HERE, "frozen.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _reference_tables(root: str):
    path = os.path.join(root, "tests", "_reference_tables.py")
    spec = importlib.util.spec_from_file_location("_reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# cv-optimized


CV_MS = (5, 10, 15, 20, 25)


def cv_optimized(seed: int, smoke: bool, root: str, workdir: str) -> list[Job]:
    """Optimized-path critical values checked against the reference grids.

    One k=2 cell per m in 5..25 plus two of the k=1 cells whose alpha lies
    above alpha_underline (one at m <= 15, one at m > 15), all drawn from the
    seed and run in seeded order.  The seed draws each k=2 cell from that
    m's pool in frozen.json: the cells whose bisection, at the commit that
    froze them, made the most common number of complete p_max calls for
    that m.  How many bisection steps land above the cv varies from cell to
    cell (6 to 19 complete calls across the grid) and sets most of its cost, so
    drawing from the whole grid would make a round's cost depend on the seed.
    """
    rng = np.random.default_rng(seed)
    tables = _reference_tables(root)
    cells = []
    if smoke:
        cells = [(1, 0.05, 5, 0.2, False), (1, 0.05, 5, 0.2, True)]
    else:
        for m in CV_MS:
            pool = frozen()["cv_k2_pool"][str(m)]["cells"]
            alpha, rho = pool[rng.integers(len(pool))]
            cells.append((2, alpha, m, rho, False))
        k1 = [(alpha, m, rho) for alpha, m, rho in sorted(tables.CV_TABLE_K1)
              if m <= max(CV_MS) and alpha > stc.alpha_underline(m, rho)]
        for stratum in ([c for c in k1 if c[1] <= 15], [c for c in k1 if c[1] > 15]):
            alpha, m, rho = stratum[rng.integers(len(stratum))]
            cells.append((1, alpha, m, rho, False))
        cells = [cells[i] for i in rng.permutation(len(cells))]

    jobs = []
    for k, alpha, m, rho, corrupt in cells:
        table = tables.CV_TABLE_K2 if k == 2 else tables.CV_TABLE_K1
        expected = table[(alpha, m, rho)]
        spec = HeterogeneitySpec(m=m, k=k, rho=rho)

        def run(invoke, m=m, alpha=alpha, spec=spec, corrupt=corrupt):
            res = invoke("critical_values", "critical_value", cv_info,
                         stc.critical_value, m, alpha, spec)
            # smoke mode's deliberately wrong cv: the check must catch it
            return (res.cv + 0.01 if corrupt else res.cv), res.method

        def check(out, expected=expected):
            cv, method = out
            if method != "Optimized":
                return f"method {method}, expected Optimized"
            if abs(float(round3(cv)) - expected) > CELL_TOL + 1e-12:
                return f"cv {round3(cv)} vs reference {expected}"
            return None

        label = f"cv m={m} alpha={alpha} k={k} rho={rho}" + (" (corrupted)" if corrupt else "")
        jobs.append(Job("cv", label, run, check))
    return jobs


# ---------------------------------------------------------------------------
# large-m


def _effects_with_t(rng, m: int, t: float) -> np.ndarray:
    """m control effects drawn from the seed, then a treated one at t."""
    controls = rng.normal(size=m)
    return np.append(controls, controls.mean() + t * controls.std(ddof=1))


def large_m(seed: int, smoke: bool, root: str, workdir: str) -> list[Job]:
    """Complete worst-case p-values at m in {100, 200}, k in {1, 2}.

    k=1 points sit at the closed-form critical value of a seeded alpha below
    alpha_underline, computed here from scipy's t quantile, where the
    complete worst case must equal alpha.  k=2 points use a seeded threshold
    from a pool whose p-values are frozen in frozen.json.
    """
    rng = np.random.default_rng(seed)
    points = []
    ms = (10,) if smoke else (100, 200)
    for m in ms:
        rho = 1.0
        alpha = float(rng.choice((0.01, 0.02, 0.03, 0.04)))
        if alpha > stc.alpha_underline(m, rho):
            raise RuntimeError(f"alpha {alpha} is above alpha_underline({m}, {rho})")
        c = math.sqrt(rho * rho + 1.0 / m) * float(stats.t.ppf(1.0 - alpha / 2.0, m - 1))
        points.append((m, 1, rho, c, alpha))
        if not smoke:
            pool = frozen()["large_m_k2"][str(m)]
            c = float(rng.choice(sorted(pool, key=float)))
            points.append((m, 2, rho, c, pool[repr(c)]))
    points = [points[i] for i in rng.permutation(len(points))]

    jobs = []
    for m, k, rho, c, expected in points:
        effects = _effects_with_t(rng, m, c)
        est = stc.ClusterEstimates(effects[:-1], effects[-1])
        spec = HeterogeneitySpec(m=m, k=k, rho=rho)

        def run(invoke, est=est, spec=spec):
            return invoke("inference", "p_value", None, stc.p_value, est, spec)

        def check(p, expected=expected):
            if abs(p - expected) > PVALUE_TOL:
                return f"p {p!r} vs expected {expected!r}"
            return None

        jobs.append(Job("pvalue", f"p_value m={m} k={k} t={c:.6g}", run, check))
    return jobs


# ---------------------------------------------------------------------------
# panel-cli

_PERIODS = 10
_POST_START = 6


def _panel(rng, rows: int, design: str, effects: np.ndarray, noise: float = 1.0):
    """Long-format panel: clusters c1..cm are controls and 't' is treated.

    Unit and period effects cancel in every design's estimator, so each
    cluster's estimate is its entry of ``effects`` plus the mean of its
    row-level noise.
    """
    m = effects.size - 1
    units = rows // ((m + 1) * _PERIODS)
    cluster = np.repeat(np.arange(m + 1), units * _PERIODS)
    unit = np.tile(np.repeat(np.arange(units), _PERIODS), m + 1)
    time = np.tile(np.arange(1, _PERIODS + 1), (m + 1) * units)
    c = (unit % 2).astype(int)
    post = time >= _POST_START
    treated_cell = post & (c == 1) if design == "tripled" else post
    outcome = (rng.normal(size=(m + 1) * units)[cluster * units + unit]
               + rng.normal(scale=0.5, size=_PERIODS)[time - 1]
               + 0.3 * post * c
               + effects[cluster] * treated_cell
               + noise * rng.normal(size=cluster.size))
    order = rng.permutation(cluster.size)
    names = np.array([f"c{j}" for j in range(1, m + 1)] + ["t"])
    return names[cluster[order]], unit[order], time[order], outcome[order], c[order]


def _oracle_delta(cluster, time, outcome, c, design: str) -> float:
    """Treated estimate minus the control mean, from cell means."""
    ids = sorted(set(cluster.tolist()))
    post = time >= _POST_START
    thetas = {}
    for cid in ids:
        sel = cluster == cid

        def gain(mask):
            return outcome[mask & post].mean() - outcome[mask & ~post].mean()

        thetas[cid] = gain(sel & (c == 1)) - gain(sel & (c == 0)) if design == "tripled" \
            else gain(sel)
    controls = [thetas[cid] for cid in ids if cid != "t"]
    return thetas["t"] - float(np.mean(controls))


def _write_csv(path: str, design: str, cluster, unit, time, outcome, c) -> None:
    columns = [("cluster", cluster)]
    if design != "did":
        columns.append(("unit", unit))
    columns += [("time", time), ("outcome", [repr(float(y)) for y in outcome])]
    if design == "tripled":
        columns.append(("c", c))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*(v for _, v in columns)))


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = stc.cli.main(argv)
    return code, buf.getvalue()


def panel_cli(seed: int, smoke: bool, root: str, workdir: str) -> list[Job]:
    """``stc test --output json`` on seeded panels plus two ``stc rho-frontier``.

    Two panels per design (DiD, TWFE, TripleDiff), each with a seeded 5-7
    control clusters and about 1e5 rows.  Each frontier runs on a small DiD
    panel whose 5 control effects and treated effect (t in [3, 6]) the seed
    draws from the frozen pool of effect vectors whose frontier made the
    most common number of complete p_max calls, for the same reason as the
    cv-optimized pools; its rows carry no idiosyncratic noise, so the
    estimates equal the pooled effects and the seed moves only unit and
    period effects and row order.  Smoke mode runs one frontier at m=3.
    """
    rng = np.random.default_rng(seed)
    rows = 2_000 if smoke else 100_000
    alpha = 0.05
    jobs = []
    for i, design in enumerate(("did", "twfe", "tripled") * (1 if smoke else 2)):
        m = int(rng.integers(5, 8))
        rho = float(rng.choice((0.5, 1.0, 2.0)))
        effects = _effects_with_t(rng, m, rng.uniform(0.5, 4.0))
        cluster, unit, time, outcome, c = _panel(rng, rows, design, effects)
        path = os.path.join(workdir, f"test{i}-{design}.csv")
        _write_csv(path, design, cluster, unit, time, outcome, c)
        delta = _oracle_delta(cluster, time, outcome, c, design)
        argv = ["test", "--data", path, "--design", design, "--treated", "t",
                "--post-start", str(_POST_START), "--rho", repr(rho), "--k", "1",
                "--alpha", repr(alpha), "--output", "json"]

        def run(invoke, argv=argv):
            return invoke("cli", "main", None, _cli, argv)

        def check(out, delta=delta, m=m):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            obj = json.loads(text)
            if obj["m"] != m:
                return f"m {obj['m']} vs {m}"
            if abs(obj["delta_hat"] - delta) > 1e-5 * abs(delta) + 1e-12:
                return f"delta_hat {obj['delta_hat']} vs oracle {delta!r}"
            p = obj["p_value"]
            if abs(p - alpha) > 1e-5 * alpha and obj["reject"] != (p <= alpha):
                return f"reject={obj['reject']} but p_value={p}"
            return None

        jobs.append(Job("test", f"stc test {design} m={m} rho={rho}", run, check))

    pool = [[0.3, -1.1, 0.8, 4.0]] if smoke else frozen()["frontier_pool"]["effects"]
    frontiers = []
    for i in range(1 if smoke else 2):
        effects = np.array(pool[rng.integers(len(pool))])
        m = effects.size - 1
        cluster, unit, time, outcome, c = _panel(rng, 1_200, "did", effects, noise=0.0)
        path = os.path.join(workdir, f"frontier{i}-did.csv")
        _write_csv(path, "did", cluster, unit, time, outcome, c)
        argv = ["rho-frontier", "--data", path, "--design", "did", "--treated", "t",
                "--post-start", str(_POST_START), "--alpha-list", repr(alpha),
                "--output", "json"]

        def run_frontier(invoke, argv=argv):
            return invoke("cli", "main", None, _cli, argv)

        def check_frontier(out, m=m):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            cells = [r["rho_hat"] for r in json.loads(text)["frontier"]]
            bounds = [0.0 if b is None else math.inf if b == "inf" else b for b in cells]
            if len(bounds) != m:
                return f"{len(bounds)} bounds for m={m}"
            if any(later > earlier for earlier, later in zip(bounds, bounds[1:])):
                return f"bounds not nonincreasing in k: {bounds}"
            return None

        frontiers.append(Job("frontier", f"stc rho-frontier m={m}", run_frontier,
                             check_frontier))
    # a frontier after each half of the tests, so the tests span the round
    half = len(jobs) // 2
    return jobs[:half] + frontiers[:1] + jobs[half:] + frontiers[1:]


# ---------------------------------------------------------------------------
# mc-size


def mc_configs(seed: int, smoke: bool) -> list:
    """(name, MCConfig) for the four size runs, with seeds drawn from ``seed``."""
    from stc.simulate import MCConfig, NormalMeansDesign, TwfeDesign

    rng = np.random.default_rng(seed)
    scale = 100 if smoke else 1
    designs = [
        ("normal1", NormalMeansDesign(dgp=1, m=MC_M), 1_000_000 // scale),
        ("normal2", NormalMeansDesign(dgp=2, m=MC_M), 1_000_000 // scale),
        ("twfe1", TwfeDesign(dgp=1, m=MC_M), 200_000 // scale),
        ("twfe4", TwfeDesign(dgp=4, m=MC_M), 200_000 // scale),
    ]
    seeds = rng.integers(0, 2**31, size=len(designs))
    return [(name, MCConfig(design=design, reps=reps, seed=int(s), alpha=MC_ALPHA))
            for (name, design, reps), s in zip(designs, seeds)]


MC_M, MC_ALPHA = 10, 0.05


def mc_size(seed: int, smoke: bool, root: str, workdir: str) -> list[Job]:
    """Monte Carlo size runs at m=10, k=1 with seeds drawn from the seed.

    With the default seed the rejection counts must equal the frozen ones
    exactly.  For every seed the size must lie within 4 standard errors of
    the design's expected rate: alpha for the equal-variance normal designs
    (the closed form is exact there), the analytic rejection probability at
    the critical value for NormalMeans dgp 2, and a frozen large-run rate
    for Twfe dgp 4, whose innovations are not normal.
    """
    counts = frozen()["mc_size_counts"] if seed == DEFAULT_SEED and not smoke else {}
    cv = stc.critical_value(MC_M, MC_ALPHA, HeterogeneitySpec(m=MC_M, k=1, rho=1.0)).cv

    jobs = []
    for name, config in mc_configs(seed, smoke):
        if name == "normal2":
            gammas = config.design.control_sigmas() / config.design.rho
            expected, ref_se = stc.rejection_probability(stc.GammaConfig(gammas, cv)), 0.0
        elif name == "twfe4":
            hits, n = frozen()["twfe4_reference"]
            expected = hits / n
            ref_se = math.sqrt(expected * (1.0 - expected) / n)
        else:
            expected, ref_se = MC_ALPHA, 0.0

        def run(invoke, config=config):
            return invoke("simulate", "run", run_info, stc.simulate.run, config)

        def check(res, expected=expected, ref_se=ref_se, count=counts.get(name)):
            if count is not None and res.rejections != count:
                return f"{res.rejections} rejections vs frozen {count}"
            se = math.sqrt(expected * (1.0 - expected) / res.reps + ref_se**2)
            if abs(res.rejection_rate - expected) > 4.0 * se:
                return f"rate {res.rejection_rate} vs expected {expected:.6g} (4 SE = {4 * se:.3g})"
            return None

        label = f"simulate {name} reps={config.reps} seed={config.seed}"
        jobs.append(Job("mc", label, run, check, config.reps))
    return jobs


WORKLOADS = {
    "cv-optimized": cv_optimized,
    "large-m": large_m,
    "panel-cli": panel_cli,
    "mc-size": mc_size,
}
