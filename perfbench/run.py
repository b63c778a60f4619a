"""stc benchmark: one workload, one seed, timed in whole rounds.

    python3 perfbench/run.py --workload cv-optimized --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` and
the reference grids from ``tests/_reference_tables.py``; without them the
benchmark exits with code 2 and prints no result.

A run makes the workload's jobs from ``--seed``, then times whole rounds of
them: it always measures one round and starts another only while the rounds
so far suggest it will end within ``--seconds``.  Every output is checked.

``--trace 0`` reports the end-to-end metrics, untraced: ``setup_s`` (median
fresh-interpreter start that imports stc and computes one closed-form
critical value), ``wall_s`` (median round) and ``peak_rss_mb``; the summary
lines add the median time of each kind of user call.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
`tracing.layer_metrics` plus ``trace.overhead_s``; it also checks that the
traced p_max counts reconcile with each critical value's iterations.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary, and the full samples (and spans, when traced) are
written to ``perfbench/.work/``.
"""
from __future__ import annotations

import os

# pin BLAS/OpenMP to one thread before numpy loads: a closed loop on one core
THREAD_PIN = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_STARTS = 3
SETUP_CODE = "import stc; stc.critical_value(10, 0.05, stc.HeterogeneitySpec(10, 1, 1.0))"
KIND_NAMES = {"cv": "cv_p50_s", "pvalue": "pvalue_p50_s", "test": "test_p50_s",
              "frontier": "frontier_p50_s", "mc": "mc_run_p50_s"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cv-optimized", "large-m", "panel-cli", "mc-size"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes plus one deliberately wrong cv (for the tests)")
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "stc"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "stc", name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": THREAD_PIN,
        "src_stc_lines": src_lines,
    }


def measure_setup(starts: int) -> tuple[list[float], int]:
    """Fresh-interpreter starts: import stc plus one closed-form cv."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, failed = [], 0
    for _ in range(starts):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failed += 1
            print(f"setup start failed: {proc.stderr.decode()[-500:]}", file=sys.stderr)
    return times, failed


def run_round(jobs, invoke) -> tuple[float, list]:
    """Time each job and the round; outputs are checked afterwards."""
    records = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            out, error = job.run(invoke), None
        except Exception as exc:  # an output that raised counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        records.append([job, time.perf_counter() - t0, out, error])
    return time.perf_counter() - start, records


def check_round(records) -> list[dict]:
    results = []
    for job, seconds, out, error in records:
        if error is None:
            try:
                error = job.check(out)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append({"kind": job.kind, "label": job.label, "seconds": seconds,
                        "work": job.work, "error": error})
    return results


def quantile_summary(values: list[float]) -> dict:
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    ordered = sorted(values)
    for q, need in ((0.99, 1000), (0.9, 100)):
        if len(values) >= need:
            out[f"p{round(q * 100)}"] = ordered[int(q * len(values))]
            break
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    for needed in (os.path.join(SRC, "stc", "__init__.py"),
                   os.path.join(ROOT, "tests", "_reference_tables.py")):
        if not os.path.exists(needed):
            print(f"error: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, HERE]
    from tracing import Tracer, layer_metrics, layer_shares, reconcile
    from workloads import WORKLOADS

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs = WORKLOADS[args.workload](args.seed, args.smoke, ROOT, workdir)
        setup_times, setup_failed = (([], 0) if args.trace
                                     else measure_setup(1 if args.smoke else SETUP_STARTS))

        def direct(layer, name, info, fn, *a, **kw):
            return fn(*a, **kw)

        walls, traced_walls, results = [], [], []
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        while True:
            wall, records = run_round(jobs, direct)
            walls.append(wall)
            results += check_round(records)
            if args.trace:
                with tracer.seams():
                    wall, records = run_round(jobs, tracer.call)
                traced_walls.append(wall)
                results += check_round(records)
            per_round = statistics.median(walls) + statistics.median(traced_walls or [0.0])
            if time.perf_counter() + per_round > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results) + len(setup_times)
    failures = [f"{r['label']}: {r['error']}" for r in results if r["error"]]
    failures += ["setup start failed"] * setup_failed
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "machine": machine(), "rounds": len(walls),
            "round_walls": walls, "traced_round_walls": traced_walls,
            "setup_times": setup_times, "calls": results}
    summary = [f"workload {args.workload} seed {args.seed} trace {args.trace}:"
               f" {len(walls)} round(s) of {len(jobs)} call(s)"]
    if args.trace:
        problems = reconcile(tracer.spans)
        attempted += sum(s.layer == "critical_values" and bool(s.info) for s in tracer.spans)
        failures += problems
        metrics = layer_metrics(tracer.spans, len(traced_walls))
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        units = {name: _layer_unit(name) for name in metrics}
        shares = layer_shares(tracer.spans)
        info.update(spans=tracer.dump(), absent_seams=tracer.absent, layer_shares=shares)
        summary.append("  self-time share: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items()))
        if tracer.absent:
            summary.append(f"  absent seams: {', '.join(tracer.absent)}")
    else:
        metrics, units = end_to_end(setup_times, walls, results, info, summary)
    summary.append(f"  error_rate   {len(failures) / attempted:.4f}"
                   f"  ({len(failures)} failed of {attempted} attempted)")
    summary += [f"  FAILED {problem}" for problem in failures]
    mach = info["machine"]
    summary.append(f"  machine: nproc {mach['nproc']}, Python {mach['python']}, numpy"
                   f" {mach['numpy']}, scipy {mach['scipy']}, {mach['blas']}, BLAS threads 1,"
                   f" src/stc {mach['src_stc_lines']} lines")

    os.makedirs(WORK, exist_ok=True)
    detail = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    print("\n".join(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def end_to_end(setup_times, walls, results, info, summary):
    """The untraced metrics, plus the per-operation medians for the summary."""
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r["kind"], []).append(r["seconds"])
    info["per_kind"] = {kind: quantile_summary(v) for kind, v in by_kind.items()}
    summary.append(f"  setup_s      {metrics['setup_s']:.4f} s"
                   f"  (median of {len(setup_times)} starts)")
    summary.append(f"  wall_s       {metrics['wall_s']:.4f} s  (median of {len(walls)} rounds)")
    for kind, q in info["per_kind"].items():
        extra = "".join(f", {k} {v:.4f} s" for k, v in q.items() if k not in ("n", "p50"))
        summary.append(f"  {KIND_NAMES[kind]}  {q['p50']:.4f} s  (n={q['n']}{extra}"
                       f"{'' if extra else '; no percentile has 10 samples beyond it'})")
    work = [(r["work"], r["seconds"]) for r in results if r["work"]]
    if work:
        rate = sum(w for w, _ in work) / sum(t for _, t in work)
        summary.append(f"  mc_reps_per_s {rate:.6g} 1/s  (replications per second of"
                       " simulate.run)")
    summary.append(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    return metrics, units


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
