#!/usr/bin/env python3
"""Run every workload over several seeds and record the baseline.

    python3 perfbench/suite.py [--first-seed 1] [--seconds S] [--workloads a,b]

Each run is a separate `perfbench/run.py` process, ten seeds per
workload. For every workload the suite prints each end-to-end metric's
median, quartiles and quartile spread (IQR over median) against the bound
in BENCHMARK.json, and the median and spread of the times as measured,
before scaling to the reference speed. Then it prints one traced run's
per-layer metrics, and writes all of it, with provenance, to
perfbench/baseline.json, replacing only the entries of the workloads it
ran. Workloads default to every workload
run.py knows, gated by BENCHMARK.json or not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180
SEEDS = 10
BASELINE = os.path.join(HERE, "baseline.json")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=True)
    return load_record(workload, seed, trace)


def load_record(workload: str, seed: int, trace: int) -> dict:
    """The result a run printed last, with its provenance and op record."""
    path = os.path.join(ROOT, ".perfbench_work", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    result = dict(record["result"])
    result["provenance"] = record["provenance"]
    result["op_tail"] = record["op_tail"]
    result["measured"] = record["measured"]
    result["failed_ops"] = [op for op in record["ops"] if not op["ok"]]
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def summarize(workload: str, seeds: range, runs: list[dict], traced: dict,
              bounds: dict) -> dict:
    """Print one workload's table and return its baseline entry."""
    print(f"== {workload}: seeds {seeds.start}..{seeds.stop - 1}, "
          f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} ops failed")
    metrics = {}
    for name in runs[0]["metrics"]:
        stats = quartiles([r["metrics"][name]["value"] for r in runs])
        stats["unit"] = runs[0]["metrics"][name]["unit"]
        metrics[name] = stats
        bound, spread = bounds.get(name), stats["spread"]
        flag = ""
        if bound is not None and (spread is None or spread > bound / 3):
            flag = "  <-- spread above a third of the bound"
        measured = quartiles([r["measured"][name] for r in runs])
        stats["measured"] = {k: v for k, v in measured.items() if k != "values"}
        print(f"  {name:14s} median {stats['median']:.6g} {stats['unit']}  "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
              f"spread {'n/a' if spread is None else f'{spread:.4f}'}"
              f"  bound {bound}{flag}")
        raw_spread = measured["spread"]
        print(f"  {'':14s} as measured, not scaled: median {measured['median']:.6g}  "
              f"spread {'n/a' if raw_spread is None else f'{raw_spread:.4f}'}")
    tails = [r["op_tail"] for r in runs if r["op_tail"]]
    if tails:
        print(f"  op_tail_s percentiles p{min(t['percentile'] for t in tails):.1f}"
              f"..p{max(t['percentile'] for t in tails):.1f}, "
              f"{min(t['samples'] for t in tails)}..{max(t['samples'] for t in tails)} ops")
    for name, entry in traced["metrics"].items():
        print(f"  [traced] {name} = {entry['value']:.6g} {entry['unit']}")
    return {
        "seeds": list(seeds),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "fail_frac": [r["failed"] / r["attempted"] for r in runs],
        "failed_ops_first_seed": runs[0]["failed_ops"],
        "end_to_end": metrics,
        "op_tail": [r["op_tail"] for r in runs],
        "per_layer_first_seed": traced["metrics"],
        "provenance": runs[0]["provenance"],
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"workloads": {}}
    if os.path.exists(BASELINE):  # keep the entries of workloads not run now
        with open(BASELINE, encoding="utf-8") as fh:
            report = json.load(fh)
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + SEEDS)
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, args.first_seed, args.seconds, 1)
        entry = summarize(workload, seeds, runs, traced, bounds)
        report["workloads"][workload] = {"run_seconds": args.seconds, **entry}
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
