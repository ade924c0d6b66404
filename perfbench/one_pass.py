"""One benchmark pass in a fresh interpreter.

    python3 perfbench/one_pass.py WORKDIR SPAWNED_AT TRACE

Reads ``WORKDIR/steps.json`` (written by run.py), sets up (imports
parsentropy, parses every config, loads every model), then calls each step
in-process through ``cli.cmd_simulate`` / ``cli.cmd_verify`` and writes
``WORKDIR/pass.json``.  ``SPAWNED_AT`` is the parent's ``time.perf_counter()``
just before it started this process; CLOCK_MONOTONIC is shared by all
processes, so set-up time includes interpreter start-up.  ``TRACE`` 1 wraps
the layers with the tracer after set-up; 0 never imports it.  ``TRACE`` -1
stops after set-up (a set-up probe).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

WORKERS = 2


def setup(workdir: Path):
    """Import the package, parse each config and load each model; return (cli, steps)."""
    from parsentropy import cli

    steps = json.loads((workdir / "steps.json").read_text())
    for step in steps:
        if step["kind"] == "simulate":
            config = cli.parse_config(step["config"])
            cli.load_model(Path(step["config"]).parent / config.model_path)
    return cli, steps


def run_steps(cli, steps, workdir: Path, trace: bool) -> dict:
    """Run every step once; wall time spans the first call to the last verdict."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    codes, step_s = [], []
    try:
        t0 = time.perf_counter()
        for step in steps:
            t = time.perf_counter()
            if step["kind"] == "simulate":
                codes.append(cli.cmd_simulate(step["config"], workers=WORKERS,
                                              out_dir=str(workdir / "out" / step["name"])))
            else:
                codes.append(cli.cmd_verify(step["suite"]))
            step_s.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall, "step_s": step_s, "exit_codes": codes}
    if tracer is not None:
        result.update(spans=tracer.spans, counts=dict(tracer.counts),
                      pool_capacity_s=tracer.pool_capacity_s, pid=os.getpid())
    return result


def main(argv) -> int:
    workdir, spawned_at, trace = Path(argv[0]), float(argv[1]), int(argv[2])
    cli, steps = setup(workdir)
    setup_s = time.perf_counter() - spawned_at
    result = {"setup_s": setup_s}
    if trace >= 0:
        result.update(run_steps(cli, steps, workdir, bool(trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (workdir / "pass.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
