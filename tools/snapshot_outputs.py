"""Write the output files of the benchmark's runs and of the pinned runs into one tree.

    python3 tools/snapshot_outputs.py OUT [--seed S]

Runs, in this process and with one worker, every step of both workloads in
``perfbench/workloads.py`` at seed S (default 7) and the configs pinned in
``tests/test_pinned_outputs.py``, then ``report`` on each run, and
``verify --suite all``.  It writes:

- ``OUT/<workload>/<step>/`` and ``OUT/pinned/<name>/``: each run's
  results.csv, summary.json, report TSVs and manifest.json, the last
  without its ``wall_clock_s`` object (wall times differ from run to run);
- ``OUT/<workload>/<step>/`` for a verify step, and ``OUT/verify-all/``:
  verify's stdout (``stdout.txt``) and ``verify_results.csv``;
- ``OUT/models/``: the reference model files that the runs read;
- ``OUT/exit_codes.tsv``: the exit code of every command.

Two trees from two versions of the code compare with ``diff -r``.  The
script imports ``parsentropy``, the workloads and the pinned configs from the
repository it sits in, and changes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from parsentropy import reference_model, save_model  # noqa: E402
from parsentropy.measures import REFERENCE_MODEL_NAMES  # noqa: E402
from parsentropy.cli import cmd_report, cmd_simulate, cmd_verify  # noqa: E402


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quiet(fn, *args) -> tuple:
    """``fn(*args)`` with its stdout captured: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fn(*args)
    return code, out.getvalue()


def _simulate(config: dict, work: Path, dest: Path) -> tuple:
    """Run ``config`` and ``report`` on its run; copy what they wrote, the manifest without wall times."""
    path = work / "config.json"
    path.write_text(json.dumps(config))
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    code, _ = _quiet(cmd_simulate, str(path), 1, str(out))
    if code != 0:
        return code, None
    (run,) = out.iterdir()
    report_code, _ = _quiet(cmd_report, str(run))
    dest.mkdir(parents=True)
    for f in sorted(run.iterdir()):
        shutil.copy(f, dest / f.name)
    # Cut the wall-time object out of the text as written: any other change of layout shows.
    manifest = dest / "manifest.json"
    manifest.write_text(re.sub(r'\n  "wall_clock_s": \{[^{}]*\},', "", manifest.read_text()))
    return code, report_code


def _verify(suite: str, dest: Path) -> int:
    dest.mkdir(parents=True)
    code, stdout = _quiet(cmd_verify, suite, (), str(dest))
    (dest / "stdout.txt").write_text(stdout)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="directory to create")
    parser.add_argument("--seed", type=int, default=7, help="the workloads' seed")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True)
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    pinned = _load(ROOT / "tests" / "test_pinned_outputs.py").PINNED

    runs = [(f"{workload}/{name}", kind, body) for workload in workloads.WORKLOADS
            for kind, name, body in workloads.steps(workload, args.seed)]
    runs += [(f"pinned/{name}", "simulate", config) for name, (config, _) in sorted(pinned.items())]
    runs.append(("verify-all", "verify", "all"))
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (out / "models").mkdir()
        for name in REFERENCE_MODEL_NAMES:
            save_model(reference_model(name), work / f"{name}.json")
            shutil.copy(work / f"{name}.json", out / "models")
        for name, kind, body in runs:
            if kind == "verify":
                codes.append((name, "verify", _verify(body, out / name)))
                continue
            code, report_code = _simulate(body, work, out / name)
            codes.append((name, "simulate", code))
            if report_code is not None:
                codes.append((name, "report", report_code))
            print(f"{name}: exit {code}", file=sys.stderr)
    (out / "exit_codes.tsv").write_text(
        "".join(f"{name}\t{kind}\t{code}\n" for name, kind, code in codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
