"""Recompute perfbench/frozen.json from the library in src/ (run from the repo root).

    python3 perfbench/freeze.py

Freezes the cv-optimized k=2 cell pools (for each m, the reference cells
whose inversion makes the most common number of complete p_max calls), the
panel-cli frontier pool (of 40 seeded 5-control effect vectors with t in
[3, 6], those whose frontier makes the most common number), the
complete k=2 worst-case p-values of the large-m threshold pool, the Twfe
dgp 4 reference size from a 4e6-replication run whose seed no workload
draws, and the mc-size rejection counts at the default seed.  Takes about
fifteen minutes on one core, most of it solving the 250 k=2 cells.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import stc  # noqa: E402
from stc.simulate import MCConfig, TwfeDesign, run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CV_MS, DEFAULT_SEED, _reference_tables, mc_configs  # noqa: E402

LARGE_M_POOL = (2.2, 2.6, 3.0)
TWFE4_REFERENCE = MCConfig(design=TwfeDesign(dgp=4, m=10), reps=4_000_000, seed=2**40 + 7)

tables = _reference_tables(os.path.dirname(HERE))
frozen = {"cv_k2_pool": {}, "large_m_k2": {}}


def complete_pmax(fn, *args) -> int:
    """Complete p_max calls one call of ``fn`` makes."""
    tracer = Tracer()
    with tracer.seams():
        fn(*args)
    return sum(bool(s.info["complete"]) for s in tracer.spans if s.layer == "worstcase")


def modal(counts) -> int:
    """The most common count; the smallest one on a tie."""
    counts = sorted(counts)
    return max(sorted(set(counts)), key=counts.count)


for m in CV_MS:
    complete = {(alpha, rho): complete_pmax(stc.critical_value, m, alpha,
                                            stc.HeterogeneitySpec(m=m, k=2, rho=rho))
                for alpha in tables.CV_TABLE_K1_ALPHAS for rho in tables.CV_TABLE_RHOS}
    mode = modal(complete.values())
    frozen["cv_k2_pool"][str(m)] = {
        "complete_pmax": mode,
        "cells": sorted([a, r] for (a, r), n in complete.items() if n == mode)}
frontier_complete = {}
for i in range(40):
    rng = np.random.default_rng([7, i])
    controls = rng.normal(size=5)
    effects = np.append(controls, controls.mean() + rng.uniform(3.0, 6.0) * controls.std(ddof=1))
    frontier_complete[tuple(effects)] = complete_pmax(
        stc.rho_frontier, stc.ClusterEstimates(effects[:-1], effects[-1]), 0.05)
mode = modal(frontier_complete.values())
frozen["frontier_pool"] = {
    "complete_pmax": mode,
    "effects": [list(e) for e, n in frontier_complete.items() if n == mode]}
for m in (100, 200):
    spec = stc.HeterogeneitySpec(m=m, k=2, rho=1.0)
    frozen["large_m_k2"][str(m)] = {repr(c): stc.p_max(m, c, spec).value for c in LARGE_M_POOL}
reference = run(TWFE4_REFERENCE)
frozen["twfe4_reference"] = [reference.rejections, reference.reps]

frozen["mc_size_counts"] = {name: run(config).rejections
                            for name, config in mc_configs(DEFAULT_SEED, smoke=False)}
with open(os.path.join(HERE, "frozen.json"), "w", encoding="utf-8") as fh:
    json.dump(frozen, fh, indent=2)
    fh.write("\n")
