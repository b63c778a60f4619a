"""Tests of the benchmark itself, on smoke sizes (seconds, not minutes).

    PYTHONPATH=src python -m pytest -q perfbench

The cv(50, 0.05, k=2, rho=1) reconciliation takes about 20 s and is marked
slow (run it with ``-m slow``).
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if workload == "cv-optimized":
        # the deliberately wrong cv is counted, once per round that ran it
        assert not result["correct"] and result["failed"] >= 1
        assert "FAILED cv m=5 alpha=0.05 k=1 rho=0.2 (corrupted)" in proc.stdout
    else:
        assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("mc-size", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reconcile_flags_a_miscounted_cv():
    from tracing import Span, reconcile

    cv = Span("critical_values", "critical_value", None, 0.0, 1.0,
              info={"m": 5, "alpha": 0.05, "cv": 2.0, "method": "Optimized", "iterations": 2})

    def pmax(c, value, stop_above=0.05):
        return Span("worstcase", "p_max", 0, 0.0, 0.1,
                    info={"c": c, "value": value, "stop_above": stop_above, "complete": True})

    # lower probe, one upper probe, two bisection steps, final call
    calls = [pmax(0.45, 1.0), pmax(4.0, 0.01), pmax(2.2, 0.04), pmax(1.9, 0.06),
             pmax(2.0, 0.05, None)]
    assert reconcile([cv] + calls) == []
    assert len(reconcile([cv] + calls[:2] + calls[3:])) == 1


def test_missing_seam_is_reported_absent():
    import types

    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.patch(types.SimpleNamespace(__name__="stc.gone"), "kernel", "rejection")
    assert tracer.absent == ["stc.gone.kernel"]
    assert layer_metrics(tracer.spans, 1)["rejection.calls"] == 0


@pytest.mark.slow
def test_cv50_k2_makes_21_pmax_calls():
    import stc
    from tracing import Tracer, cv_info, reconcile

    tracer = Tracer()
    with tracer.seams():
        tracer.call("critical_values", "critical_value", cv_info, stc.critical_value,
                    50, 0.05, stc.HeterogeneitySpec(m=50, k=2, rho=1.0))
    pmax = [s for s in tracer.spans if s.layer == "worstcase"]
    complete = [s for s in pmax if s.info["complete"]]
    assert (len(pmax), len(complete)) == (21, 11)
    assert reconcile(tracer.spans) == []
