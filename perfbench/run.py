"""parsentropy benchmark: fixed `simulate`/`verify` workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass is a fresh interpreter
(``one_pass.py``) that imports ``src/parsentropy``, parses the workload's
configs, then calls ``cli.cmd_simulate`` (``--workers 2``) and
``cli.cmd_verify`` in-process.  Passes repeat while the next one fits in
``--seconds`` (at least three), and every pass is checked: exit code 0, every
verdict in ``summary.json`` is ``pass``, oracle values match their closed
forms, and ``results.csv`` bytes repeat across the passes.

``--trace 0`` reports the end-to-end metrics: the median set-up time (over
the passes plus set-up-only probes), the wall time of a pass (the sum of
each step's median time), symbols scored per second of it and the median
peak RSS of the pass process.  ``--trace 1`` alternates untraced
and traced passes and reports per-layer self times and work counts from
``tracer.py``, plus the tracing overhead.  The last line of stdout is the
JSON result; a line per pass and the machine description go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Two pool workers on two cores: keep numpy's OpenBLAS from adding threads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

MIN_PASSES = 3          # in an untraced run: the per-step median needs three
MIN_TRACED_PASSES = 2   # of each kind (untraced, traced) in a traced run
SETUP_PROBES = 8        # extra set-up-only processes per run
DEADLINE_S = 150.0      # start no pass that would end after this
PASS_TIMEOUT_S = 170.0

H_M1 = 0.4 * -(0.3 * math.log(0.3) + 0.7 * math.log(0.7)) \
    + 0.6 * -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
H_PI_M1 = -(0.4 * math.log(0.4) + 0.6 * math.log(0.6))
LN2 = math.log(2.0)
ORACLE_TOL = 1e-10
HMM_BRACKET_MAX = 1e-4

sys.path[:0] = [str(SRC), str(HERE)]
import workloads  # noqa: E402


def _fmt12(x: float) -> str:
    return f"{x:.12g}"


def machine_info() -> dict:
    """CPU count and model, cache sizes, Python and numpy versions, load average."""
    import numpy

    info = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy.__version__}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    info["loadavg_1m"] = os.getloadavg()[0]
    return info


def prepare(workdir: Path, workload_steps: list) -> list:
    """Write the reference models and the steps' configs; return the steps."""
    from parsentropy import reference_model, save_model

    for name in ("m1", "h1", "mixture_m1_uniform"):
        save_model(reference_model(name), workdir / f"{name}.json")
    steps = []
    for kind, name, body in workload_steps:
        if kind == "verify":
            steps.append({"kind": kind, "name": name, "suite": body})
            continue
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(body, indent=1))
        steps.append({"kind": kind, "name": name, "config": str(path),
                      "model": body["model"][:-len(".json")],
                      "experiment": body["experiment"], "parser": body.get("parser")})
    (workdir / "steps.json").write_text(json.dumps(steps))
    return steps


def spawn(workdir: Path, trace: int) -> dict:
    """Run one_pass.py in a fresh interpreter and return its result."""
    out = workdir / "pass.json"
    out.unlink(missing_ok=True)
    shutil.rmtree(workdir / "out", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    load_before = os.getloadavg()[0]
    spawned_at = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "one_pass.py"), str(workdir),
                           repr(spawned_at), str(trace)],
                          env=env, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"pass process exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    result.update(trace=trace, loadavg_before=load_before, loadavg_after=os.getloadavg()[0])
    return result


def _any_fail(node) -> bool:
    if isinstance(node, dict):
        return any(_any_fail(v) for v in node.values())
    if isinstance(node, list):
        return any(_any_fail(v) for v in node)
    return node == "fail"


def _oracle_problem(step: dict, summary: dict, rows: list) -> str | None:
    """Compare the run's oracle values with their closed forms; None when they match."""
    model, parser = step["model"], step["parser"] or {}
    if step["experiment"] == "birkhoff":
        return None
    if step["experiment"] == "counterexample":
        width = summary["oracle"]["h_bracket_width"]
        return None if width <= HMM_BRACKET_MAX else f"h1 bracket width {width}"
    target = summary["oracle"]["target"]
    if model == "m1":
        expect = (H_PI_M1 + 3 * H_M1) / 4 if parser.get("family") == "fixed" else H_M1
        if abs(target["mid"] - expect) > ORACLE_TOL:
            return f"m1 target {target['mid']!r}, closed form {expect!r}"
    elif model == "h1":
        if target["upper"] - target["lower"] > HMM_BRACKET_MAX:
            return f"h1 bracket width {target['upper'] - target['lower']}"
    elif model == "mixture_m1_uniform":
        rates = {row["target:oracle"] for row in rows}
        if rates != {_fmt12(H_M1), _fmt12(LN2)}:
            return f"mixture component rates {sorted(rates)}"
    return None


def check(workdir: Path, steps: list, result: dict) -> list:
    """Correctness gate for every step of one pass."""
    verdicts = []
    for step, code in zip(steps, result["exit_codes"]):
        v = {"name": step["name"], "ok": code == 0,
             "problem": None if code == 0 else f"exit code {code}"}
        if step["kind"] == "simulate" and code == 0:
            (run_dir,) = (workdir / "out" / step["name"]).iterdir()
            summary = json.loads((run_dir / "summary.json").read_text())
            blob = (run_dir / "results.csv").read_bytes()
            rows = list(csv.DictReader(blob.decode().splitlines()))
            v["sha256"] = hashlib.sha256(blob).hexdigest()
            v["symbols"] = sum(int(row["N"]) for row in rows)
            if _any_fail(summary):
                v["problem"] = "a verdict in summary.json is fail"
            else:
                v["problem"] = _oracle_problem(step, summary, rows)
            v["ok"] = v["problem"] is None
        verdicts.append(v)
    return verdicts


def layer_metrics_of(traced: list) -> dict:
    """Median self times over the traced passes; counts (which repeat) from the first."""
    import tracer

    per_pass = [tracer.layer_metrics(r["spans"], r["counts"], r["pool_capacity_s"])
                for r in traced]
    return {name: value if name in tracer.COUNTS
            else statistics.median([m[name] for m in per_pass])
            for name, value in per_pass[0].items()}


def pass_wall(passes: list) -> float:
    """Wall time of one pass: the sum over its steps of each step's median time.

    On a shared host the CPU's speed drifts by tens of percent within seconds; a
    slow spell that hits part of one pass moves that pass's steps only, and
    the per-step median drops them, where the median of whole passes would not.
    """
    return sum(statistics.median(times) for times in zip(*(r["step_s"] for r in passes)))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes that fit in ``seconds`` (at least MIN_PASSES); return all details."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        steps = prepare(workdir, workloads.steps(workload, seed))
        machine = machine_info()
        print(f"machine {json.dumps(machine)}", file=sys.stderr)
        setups = [spawn(workdir, -1)["setup_s"] for _ in range(SETUP_PROBES)]
        kinds = (0, 1) if trace else (0,)
        passes, checks, durations = [], [], []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            done = len(passes) >= (MIN_TRACED_PASSES * 2 if trace else MIN_PASSES)
            # Start no pass that would end after ``seconds`` (or the deadline).
            longest = max(durations, default=0.0)
            if done and (elapsed + longest > seconds or elapsed + 1.5 * longest > DEADLINE_S):
                break
            started = time.perf_counter()
            result = spawn(workdir, kinds[len(passes) % len(kinds)])
            durations.append(time.perf_counter() - started)
            checks.append(check(workdir, steps, result))
            passes.append(result)
            print(f"pass {len(passes)} trace={result['trace']} wall_s={result['wall_s']:.4f} "
                  f"setup_s={result['setup_s']:.4f} rss_mb={result['peak_rss_mb']:.1f} "
                  f"load={result['loadavg_before']:.2f}->{result['loadavg_after']:.2f} "
                  f"failed={[v['name'] for v in checks[-1] if not v['ok']]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    untraced = [r for r in passes if r["trace"] == 0]
    wall = pass_wall(untraced)
    first = checks[0]
    symbols = sum(v.get("symbols", 0) for v in first)
    hashes_repeat = all([v.get("sha256") for v in c] == [v.get("sha256") for v in first]
                        for c in checks)
    failed = sum(not v["ok"] for c in checks for v in c)
    attempted = sum(len(c) for c in checks)
    details = {
        "workload": workload, "seed": seed, "machine": machine,
        "correct": failed == 0 and hashes_repeat, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in passes]),
            "wall_s": wall,
            "symbols_per_s": symbols / wall,
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
        },
        "steps": [{k: v.get(k) for k in ("name", "sha256", "symbols")} for v in first],
        "passes": [{k: r[k] for k in ("trace", "wall_s", "step_s", "setup_s", "peak_rss_mb",
                                      "loadavg_before", "loadavg_after")} for r in passes],
    }
    if trace:
        traced = [r for r in passes if r["trace"] == 1]
        layers = layer_metrics_of(traced)
        traced_wall = pass_wall(traced)
        layers["trace.overhead_frac"] = traced_wall / wall - 1.0
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        recorded = baseline.get("sha256", {}).get(workload, {}).get(str(seed), {})
        layers["cli.csv_changed"] = sum(
            1 for v in first if v["name"] in recorded and v.get("sha256") != recorded[v["name"]])
        details["per_layer"] = layers
    return details


UNITS = {"setup_s": "s", "wall_s": "s", "symbols_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.endswith("_frac") or name.endswith("_per_cut"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "parsentropy" / "__init__.py").is_file():
        print(f"error: no parsentropy package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = details["per_layer"] if args.trace else details["end_to_end"]
    print(json.dumps({
        "correct": details["correct"], "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
