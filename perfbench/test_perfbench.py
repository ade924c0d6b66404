"""Tests of the benchmark's own machinery: the tracer, its counts and its accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench

The steps are small versions of the workloads (short grids) so the tests
take seconds, but they reach every traced layer, the process pool and the
verify suite.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import one_pass  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import convergence_config  # noqa: E402

SQRT = {"family": "growing", "schedule": "sqrt"}
SMALL_STEPS = [
    ("simulate", "m1-sqrt", convergence_config("m1", SQRT, [1000, 10_000], [7])),
    ("simulate", "m1-fixed", convergence_config("m1", {"family": "fixed", "K": 4}, [1000], [7])),
    ("simulate", "h1-adversarial", convergence_config(
        "h1", {"family": "adversarial", "budget": "sqrt"}, [1000, 4000], [7])),
    ("simulate", "h1-two-limit", {
        "schema_version": 1, "experiment": "counterexample", "model": "h1.json",
        "n_grid": [1000, 1001, 4000, 4001], "seeds": [7],
        "counterexample": {"K": 4, "epsilon_schedule": [0.1, 0.05]}}),
    ("simulate", "mixture-l1", convergence_config(
        "mixture_m1_uniform", SQRT, [2000], {"count": 20, "master_seed": 99},
        mode="l1", tolerance=0.02)),
    ("verify", "verify-all", "all"),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("perfbench")
    run.prepare(path, SMALL_STEPS)
    return path


def _pass(workdir, trace):
    cli, steps = one_pass.setup(workdir)
    result = one_pass.run_steps(cli, steps, workdir, trace)
    assert result["exit_codes"] == [0] * len(steps)
    return result


def test_untraced_pass_leaves_every_wrapped_function_identical(workdir):
    before = tracer.traced_bindings()
    assert len(before) > len(tracer.TRACED)  # re-exports are bound in several modules
    _pass(workdir, trace=False)
    assert all(getattr(m, name) is original for m, name, original in before)
    _pass(workdir, trace=True)
    assert all(getattr(m, name) is original for m, name, original in before)


def test_traced_runs_repeat_their_counts_exactly(workdir):
    first, second = _pass(workdir, trace=True), _pass(workdir, trace=True)
    a = tracer.layer_metrics(first["spans"], first["counts"], first["pool_capacity_s"])
    b = tracer.layer_metrics(second["spans"], second["counts"], second["pool_capacity_s"])
    counted = tracer.COUNTS + ("parsing.adversarial_scans_per_cut",)
    assert {k: a[k] for k in counted} == {k: b[k] for k in counted}
    for name in ("measures.sample_symbols", "measures.prefix_scan_calls",
                 "measures.suffix_scan_calls", "measures.block_eval_blocks",
                 "measures.enum_atoms", "parsing.blocks", "estimator.records"):
        assert a[name] > 0, name
    assert a["parsing.adversarial_scans_per_cut"] > 2.0
    # pool-worker spans reach the trace
    assert any(s[6] != first["pid"] for s in first["spans"])
    assert 0.0 < a["cli.pool_busy_frac"] <= 1.0


def test_layer_self_times_sum_to_traced_wall(workdir):
    pairs = [(_pass(workdir, trace=False), _pass(workdir, trace=True)) for _ in range(5)]
    overhead = statistics.median(t["wall_s"] / u["wall_s"] - 1.0 for u, t in pairs)
    for _, traced in pairs:
        own = tracer.self_times(traced["spans"])
        in_pass = sum(own[s[0]] for s in traced["spans"] if s[6] == traced["pid"])
        # what the spans miss is the step loop and the wrappers' own work outside spans
        assert 0.0 <= 1.0 - in_pass / traced["wall_s"] <= overhead
        metrics = tracer.layer_metrics(traced["spans"], traced["counts"],
                                       traced["pool_capacity_s"])
        layers = sum(v for k, v in metrics.items() if k.endswith("_s") or ".self_s." in k)
        # the metrics also hold the worker spans, which overlap the parent's pool wait
        assert layers >= in_pass


def test_pass_wall_drops_a_slow_spell_in_one_pass():
    passes = [{"step_s": [1.0, 2.0]}, {"step_s": [1.1, 5.0]}, {"step_s": [3.0, 2.2]}]
    assert run.pass_wall(passes) == pytest.approx(1.1 + 2.2)
