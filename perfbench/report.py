"""Run every workload once untraced and once traced; print every metric with its unit.

    python3 perfbench/report.py [--seed 7] [--seconds 10] [--save FILE]

Prints, per workload, each end-to-end metric by name with its unit, the
failed fraction, then the per-layer metrics and a cross-check of the
measured costs against the table of ROADMAP item 1 (a row "agrees"
within a factor of 2; its per-symbol layer rows come from one more traced
pass of each model's as-mode steps).  ``--save`` also writes all of it as JSON, with the
sha256 of every config's results.csv; ``perfbench/baseline.json`` is that
file for the commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import run
import tracer
import workloads
from workloads import GRID_AS, WORKLOADS

MEGA = 1e6


def _per_mega(layers, seconds, symbols):
    return layers[seconds] / layers[symbols] * MEGA if layers[symbols] else None


def _step_s(details, name):
    """Median untraced time of one step, in seconds."""
    index = [s["name"] for s in details["steps"]].index(name)
    return statistics.median(p["step_s"][index] for p in details["passes"] if p["trace"] == 0)


# The ROADMAP's per-symbol rows are for one model, but each workload mixes
# models (m1 with the m1/uniform mixture, h1 with the m1 adversary), so the
# layer rows come from one traced pass of the as-mode steps alone: the first
# AS_STEPS[model][1] steps of workload AS_STEPS[model][0].
AS_STEPS = {"m1": ("markov-pool", 7), "h1": ("hmm-adversarial", 3)}

# (row of ROADMAP item 1's baseline table, its value in s, how to measure it here
# from the as-mode layer metrics ``a`` and the workload results ``r``)
ROADMAP_ROWS = (
    ("sample m1 per 1e6 symbols", 0.39,
     lambda a, r: _per_mega(a["m1"], "measures.sample_s", "measures.sample_symbols")),
    ("sample h1 per 1e6 symbols", 0.43,
     lambda a, r: _per_mega(a["h1"], "measures.sample_s", "measures.sample_symbols")),
    ("prefix scan h1 per 1e6 symbols", 0.61,
     lambda a, r: _per_mega(a["h1"], "measures.prefix_scan_s", "measures.prefix_scan_symbols")),
    ("prefix scan m1 per 1e6 symbols", 0.012,
     lambda a, r: _per_mega(a["m1"], "measures.prefix_scan_s", "measures.prefix_scan_symbols")),
    ("suffix scan h1 per 1e6 symbols", 0.90,
     lambda a, r: _per_mega(a["h1"], "measures.suffix_scan_s", "measures.suffix_scan_symbols")),
    ("block eval m1 per 1e6 symbols", 0.016,
     lambda a, r: _per_mega(a["m1"], "measures.block_eval_s", "measures.block_eval_symbols")),
    ("block eval h1 (log2, lz78, two-limit) per 1e6 symbols", 0.75,
     lambda a, r: _per_mega(a["h1"], "measures.block_eval_s", "measures.block_eval_symbols")),
    ("parse lz78 m1 per 1e6 symbols", 0.28,
     lambda a, r: a["m1"]["parsing.self_s.lz78"] / (sum(GRID_AS) / MEGA)),
    ("simulate as m1 growing sqrt, N<=1e6 (estimation)", 0.71,
     lambda a, r: _step_s(r["markov-pool"], "m1-growing-sqrt")),
    ("simulate as h1 growing log2, N<=1e6 (estimation)", 2.40,
     lambda a, r: _step_s(r["hmm-adversarial"], "h1-growing-log2")),
    ("simulate counterexample h1 K=4, N<=1e6+1 (estimation)", 2.74,
     lambda a, r: _step_s(r["hmm-adversarial"], "h1-two-limit")),
    # The benchmark stops the adversary at N = 3e4 (see workloads.py), so
    # the ROADMAP's adversarial rows at 1e5 and 1e6 have no counterpart here.
    ("simulate as h1 adversarial sqrt, N<=1e5 (estimation)", 10.0, lambda a, r: None),
    ("parse adversarial m1 sqrt at N=1e6", 3.0, lambda a, r: None),
    ("simulate l1 h1 lz78, 20 seeds, N=1e5, 2 workers", 3.2,
     lambda a, r: _step_s(r["hmm-adversarial"], "h1-lz78-l1")),
    ("verify --suite all", 0.4,
     lambda a, r: _step_s(r["markov-pool"], "verify-all")),
)


def as_mode_layers(seed: int) -> dict:
    """Per-layer metrics of one traced pass of each model's as-mode steps."""
    out = {}
    for model, (workload, count) in AS_STEPS.items():
        workdir = run.WORK / f"report-{model}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            run.prepare(workdir, workloads.steps(workload, seed)[:count])
            result = run.spawn(workdir, 1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out[model] = tracer.layer_metrics(result["spans"], result["counts"],
                                          result["pool_capacity_s"])
    if not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    return out


def cross_check(layers: dict, results: dict) -> list:
    rows = []
    for label, roadmap, measure in ROADMAP_ROWS:
        measured = measure(layers, results)
        ratio = None if measured is None else measured / roadmap
        rows.append({"row": label, "roadmap_s": roadmap, "measured_s": measured,
                     "ratio": ratio, "agrees": None if ratio is None else 0.5 <= ratio <= 2.0})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--save", default=None, help="write everything as JSON to this file")
    args = ap.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        details = run.run_workload(workload, args.seed, args.seconds, trace=False)
        traced = run.run_workload(workload, args.seed, args.seconds, trace=True)
        details["per_layer"] = traced["per_layer"]
        results[workload] = details
        print(f"\n{workload} (seed {args.seed}, {len(details['passes'])} passes, "
              f"correct={details['correct']})")
        for name, value in details["end_to_end"].items():
            print(f"  {name:<34} {value:>16.6g} {run.unit_of(name)}")
        print(f"  {'failed_frac':<34} {details['failed_frac']:>16.6g} ratio "
              f"({details['failed']}/{details['attempted']} configs)")
        for name, value in traced["per_layer"].items():
            print(f"  {name:<34} {value:>16.6g} {run.unit_of(name)}")
    rows = cross_check(as_mode_layers(args.seed), results)
    print("\nROADMAP item 1 cross-check (s)")
    for row in rows:
        if row["measured_s"] is None:
            verdict, measured = "not run by the benchmark", "-"
        else:
            verdict = "agrees" if row["agrees"] else "DISAGREES by more than 2x"
            measured = f"{row['measured_s']:.4g}"
        print(f"  {row['row']:<56} roadmap {row['roadmap_s']:<6} measured {measured:<8} {verdict}")
    if args.save:
        record = {
            "seed": args.seed, "seconds": args.seconds,
            "machine": results[WORKLOADS[0]]["machine"],
            "workloads": {w: {k: d[k] for k in ("end_to_end", "per_layer", "failed_frac",
                                                "correct", "passes")}
                          for w, d in results.items()},
            "sha256": {w: {str(args.seed): {s["name"]: s["sha256"] for s in d["steps"]
                                            if s["sha256"]}}
                       for w, d in results.items()},
            "roadmap_cross_check": rows,
        }
        with open(args.save, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(d["correct"] for d in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
