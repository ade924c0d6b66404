"""A/B of two source trees on one benchmark workload, end to end and per step.

    python3 tools/ab_steps.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seconds S] [--seed K] [--label L] [--out DIR]

Pair i runs the workload once in each tree with ``perfbench/run.py``'s
``run_workload`` (untraced, ``--seconds S``, default 55), the parent first in
odd pairs and the change first in even ones.  Every run is a fresh
interpreter started in its own tree.  It imports that tree's ``parsentropy``
before the tree's ``perfbench/run.py``, which puts its own ``src/`` first on
``sys.path`` when imported, and it checks that both came from the tree, so a
run cannot measure the other tree's code.

Writes ``DIR/BENCH_<label>.json`` (label: the workload by default; DIR: the
current directory) with each pair's end-to-end metrics, each side's median
and IQR, the median within-pair ratio change/parent, the number of pairs each
side won, and each side's per-step medians over all its passes.  Changes
nothing in either tree apart from the benchmark's own scratch directory,
which ``run_workload`` removes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Which way each end-to-end metric improves, read from the benchmark's declaration.
BETTER = {metric["name"]: metric["better"] for metric in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["end_to_end"]}

# One run in a fresh interpreter, started in the tree under test.
_RUN = """
import json, sys
from pathlib import Path
tree = Path.cwd().resolve()
sys.path.insert(0, str(tree / "src"))
import parsentropy
assert Path(parsentropy.__file__).resolve().is_relative_to(tree / "src"), parsentropy.__file__
sys.path.insert(0, str(tree / "perfbench"))
import run
assert run.SRC == tree / "src", run.SRC
workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
print(json.dumps(run.run_workload(workload, seed, seconds, False)))
"""


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """``run_workload``'s details of one untraced run of ``workload`` in ``tree``."""
    proc = subprocess.run([sys.executable, "-c", _RUN, workload, str(seed), str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"the run in {tree} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _iqr(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list, steps: dict) -> dict:
    """Medians, IQRs, within-pair ratios and wins of each metric; per-step medians."""
    metrics = {}
    for name, better in BETTER.items():
        value = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        sign = 1 if better == "lower" else -1
        diffs = [sign * (b - a) for a, b in zip(value["parent"], value["change"])]
        metrics[name] = {
            "better": better,
            **{side: {"median": statistics.median(v), "iqr": _iqr(v)} for side, v in value.items()},
            "median_ratio": statistics.median(b / a for a, b in zip(value["parent"],
                                                                   value["change"])),
            "won": {"parent": sum(d > 0 for d in diffs), "change": sum(d < 0 for d in diffs)},
        }
    return {"end_to_end": metrics,
            "step_medians_s": {side: {name: statistics.median(times)
                                      for name, times in by_step.items()}
                               for side, by_step in steps.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--label")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, machine = [], None
    steps = {"parent": {}, "change": {}}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            details = run_once(trees[side], args.workload, args.seed, args.seconds)
            machine = machine or details["machine"]
            pair[side] = {**details["end_to_end"], "correct": details["correct"],
                          "failed": details["failed"], "passes": len(details["passes"])}
            names = [step["name"] for step in details["steps"]]
            for run_pass in details["passes"]:
                for name, t in zip(names, run_pass["step_s"]):
                    steps[side].setdefault(name, []).append(t)
            print(f"pair {i} {side}: wall_s={pair[side]['wall_s']:.4f} "
                  f"correct={details['correct']} failed={details['failed']}", file=sys.stderr)
        pairs.append(pair)
    label = args.label or args.workload
    out = args.out / f"BENCH_{label}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": machine, "pairs": pairs, **summarize(pairs, steps),
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
