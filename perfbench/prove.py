"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --workloads large-m,mc-size --seeds 11-20 [--out FILE]

For every workload and end-to-end metric it prints the median over the
seeds, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  ``--out`` writes the same numbers, every run's metrics and
the machine record (with the ``src/stc`` line count) as JSON.  Runs are
sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(token: str) -> list[int]:
    if "-" in token:
        lo, hi = (int(x) for x in token.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in token.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("11-20"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"machine": machine(), "runs": {}, "spread": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        report["runs"][workload] = runs
        spread = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            share = (q3 - q1) / med if med else 0.0
            spread[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share,
                            "bound": bounds.get(name)}
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  ({share / bound:.2f} of bound)"
            print(f"  {workload} {name}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g},"
                  f" IQR/median {share:.4f}{flag}", flush=True)
        report["spread"][workload] = spread
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
