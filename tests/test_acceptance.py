"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
These tests run the full-scale experiments (trajectories up to 10^6 symbols)
and therefore dominate the suite's runtime; every stated runtime budget is
asserted.
"""

import json
import math
import time

import pytest

from parsentropy import (
    BudgetNotSubextensiveError,
    ParserSpec,
    chain_rule_decomposition,
    convergence_experiment,
    counterexample_experiment,
    discrepancy_gap,
    expected_logz_check,
    perturbation_experiment,
    sample_trajectory,
    save_model,
    sublinear_birkhoff_check,
    verify_martingale_property,
    zmax_tail_check,
)
from parsentropy.cli import cmd_simulate

from conftest import naive_marginal_entropy

H03 = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
H02 = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
H_M1 = 0.4 * H03 + 0.6 * H02               # closed-form rate of the M1 chain
LN2 = math.log(2.0)
GRID_AS = (10**3, 10**4, 10**5, 10**6)

SUBLINEAR_SPECS = {
    "growing sqrt": ParserSpec("growing", {"schedule": "sqrt"}),
    "growing log2": ParserSpec("growing", {"schedule": "log2"}),
    "lz78": ParserSpec("lz78", {}),
    "random sqrt": ParserSpec("random_sublinear", {"budget": "sqrt", "seed": 7}),
    "adversarial sqrt": ParserSpec("adversarial", {"budget": "sqrt"}),
}


def _emit(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def a2_runs(m1):
    t0 = time.perf_counter()
    reports = {
        name: convergence_experiment(m1, spec, GRID_AS, [7], "as", tol=0.01)
        for name, spec in SUBLINEAR_SPECS.items()
    }
    elapsed = time.perf_counter() - t0
    fixed = convergence_experiment(m1, ParserSpec("fixed", {"K": 4}), GRID_AS,
                                   [7], "as", tol=0.01)
    return reports, fixed, elapsed


def test_a1_exact_identity_suite(iid2, m1, h1):
    t0 = time.perf_counter()
    models = {"iid_uniform": iid2, "m1": m1, "h1": h1}
    worst = {"martingale": 0.0, "expected_logz": 0.0, "chain_rule": 0.0, "tail_excess": 0.0}
    for name, model in models.items():
        worst["martingale"] = max(worst["martingale"], verify_martingale_property(model, 8))
        worst["expected_logz"] = max(worst["expected_logz"], expected_logz_check(model, 8))
        traj = sample_trajectory(model, 10_001, seed=7)
        dec = chain_rule_decomposition(model, traj, 10_000)
        worst["chain_rule"] = max(worst["chain_rule"], abs(dec.identity_residual))
        for row in zmax_tail_check(model, 10, (1.5, 2.0, 3.0, 5.0)):
            worst["tail_excess"] = max(worst["tail_excess"],
                                       row.tail_prob - row.ratio_bound,
                                       row.log_tail_prob - row.exp_bound)
    elapsed = time.perf_counter() - t0
    ok = (worst["martingale"] <= 1e-10 and worst["expected_logz"] <= 1e-10
          and worst["chain_rule"] <= 1e-9 and worst["tail_excess"] <= 0.0
          and elapsed < 30.0)
    _emit("A1", ok,
          f"one-step {worst['martingale']:.1e} <= 1e-10, "
          f"E[logZ] {worst['expected_logz']:.1e} <= 1e-10, "
          f"chain rule {worst['chain_rule']:.1e} <= 1e-9, "
          f"tail excess {worst['tail_excess']:.1e} <= 0, {elapsed:.1f}s < 30s")


def test_a2_almost_sure_convergence(a2_runs):
    reports, _, elapsed = a2_runs
    details = []
    ok = elapsed < 120.0
    for name, report in reports.items():
        final = [r for r in report.series if r.N == 10**6][0]
        dev = abs(final.blockwise_info - H_M1)
        details.append(f"{name} {dev:.4f}")
        ok = ok and dev < 0.01 and report.verdict
        ok = ok and abs(report.target.mid - 0.544587) < 5e-7
    _emit("A2", ok, "deviation from 0.544587 at N=1e6: " + ", ".join(details)
          + f"; all < 0.01, {elapsed:.1f}s < 120s")


def test_a3_l1_convergence(m1):
    t0 = time.perf_counter()
    report = convergence_experiment(
        m1, ParserSpec("growing", {"schedule": "sqrt"}), [10**5],
        seeds=list(range(20)), target_mode="l1", tol=0.01)
    elapsed = time.perf_counter() - t0
    ok = report.l1_deviation < 0.01 and report.verdict and elapsed < 60.0
    _emit("A3", ok, f"mean abs deviation over 20 seeds at N=1e5: "
          f"{report.l1_deviation:.5f} < 0.01, {elapsed:.1f}s < 60s")


def test_a4_factorization_residuals(a2_runs):
    reports, fixed, _ = a2_runs
    details = []
    ok = True
    for name, report in reports.items():
        final = [r for r in report.series if r.N == 10**6][0]
        details.append(f"{name} {abs(final.residual):.4f}")
        ok = ok and abs(final.residual) < 0.01
    final_fixed = [r for r in fixed.series if r.N == 10**6][0]
    gap = final_fixed.residual - 0.032106
    ok = ok and abs(gap) < 0.005
    _emit("A4", ok, "sublinear |r_N/N| at N=1e6: " + ", ".join(details)
          + f"; all < 0.01; fixed K=4 residual {final_fixed.residual:.6f}"
          f" within 0.005 of 0.032106")


def test_a5_sharpness_two_limits(h1):
    t0 = time.perf_counter()
    gap_oracle = discrepancy_gap(h1, 4)
    assert gap_oracle.gap > 0, "oracle gap must be positive before the run"
    grid = [1000, 1001, 10_000, 10_001, 50_000, 50_001, 200_000, 200_001,
            500_000, 500_001, 1_000_000, 1_000_001]
    report = counterexample_experiment(h1, 4, [0.1, 0.05, 0.02], grid, seed=7)
    elapsed = time.perf_counter() - t0
    # independent oracle assembly for both limits
    l_u = naive_marginal_entropy(h1, 4) / 4
    l_v = 0.5 * (naive_marginal_entropy(h1, 2) / 2 + report.h_bracket.mid)
    ok = (report.h_bracket.width <= 1e-4
          and abs(report.limit_even - l_u) < 1e-10
          and abs(report.limit_odd.mid - l_v) < 1e-10
          and abs(report.even_tail_avg - l_u) <= 0.02 * l_u
          and abs(report.odd_tail_avg - l_v) <= 0.02 * l_v
          and abs(report.parity_gap - report.gap) <= report.tol_gap
          and report.verdict and elapsed < 300.0)
    _emit("A5", ok,
          f"even avg {report.even_tail_avg:.6f} vs L_u {l_u:.6f} (2% = {0.02 * l_u:.4f}), "
          f"odd avg {report.odd_tail_avg:.6f} vs L_v {l_v:.6f}, "
          f"parity gap {report.parity_gap:.6f} vs oracle {report.gap:.6f} "
          f"(tol {report.tol_gap:.4f}), bracket width {report.h_bracket.width:.1e}, "
          f"{elapsed:.1f}s < 300s")


def test_a6_subextensive_robustness(m1):
    spec = ParserSpec("growing", {"schedule": "sqrt"})
    results = {}
    for plan in ("trim1", "extend1"):
        report = perturbation_experiment(m1, spec, plan, GRID_AS, seed=7, tol=0.01)
        final = [r for r in report.series if r.N == 10**6][0]
        results[plan] = abs(final.blockwise_info - H_M1)
    with pytest.raises(BudgetNotSubextensiveError):
        perturbation_experiment(m1, spec, "trim_half", GRID_AS, seed=7, tol=0.01)
    ok = all(dev < 0.01 for dev in results.values())
    _emit("A6", ok, f"trim1 deviation {results['trim1']:.5f}, "
          f"extend1 deviation {results['extend1']:.5f}, both < 0.01 at N=1e6; "
          f"half-trim plan rejected as not subextensive")


def test_a7_sublinear_index_sums(m1):
    series = sublinear_birkhoff_check(m1, "abs_log_z_d", "prefix_sqrt",
                                      N_grid=[10**4, 10**5, 10**6], seed=7, depth=8)
    values = [v for _, v in series.rows]
    ratios = [values[i] / values[i + 1] for i in range(2)]
    ok = all(2.5 <= r <= 4.0 for r in ratios) and values[-1] < 2e-3
    _emit("A7", ok, f"values {[f'{v:.3e}' for v in values]}, decade factors "
          f"{[f'{r:.2f}' for r in ratios]} in [2.5, 4.0], final < 2e-3")


def test_a8_nonergodic_component_rates(mixture):
    report = convergence_experiment(
        mixture, ParserSpec("growing", {"schedule": "sqrt"}), [10**5],
        seeds=list(range(20)), target_mode="l1", tol=0.02)
    rates = sorted({round(r.target.mid, 9) for r in report.series})
    both_components = rates == [round(H_M1, 9), round(LN2, 9)]
    worst = max(r.deviation for r in report.series)
    # estimates must hug their own component's rate, never the middle ground
    separated = all(
        min(abs(r.blockwise_info - H_M1), abs(r.blockwise_info - LN2)) ==
        pytest.approx(r.deviation, abs=1e-12)
        for r in report.series)
    ok = both_components and worst < 0.02 and separated
    _emit("A8", ok, f"20 seeds split across rates {rates}; "
          f"max deviation from own component {worst:.4f} < 0.02")


def test_a9_byte_identical_runs(m1, tmp_path):
    save_model(m1, tmp_path / "m1.json")
    config = {
        "schema_version": 1,
        "experiment": "convergence",
        "model": "m1.json",
        "parser": {"family": "growing", "schedule": "sqrt"},
        "n_grid": [10_000, 20_000],
        "seeds": {"count": 20, "master_seed": 99},
        "mode": "l1",
        "tolerance": 0.02,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    for i, workers in enumerate((1, 2, 4)):
        out = tmp_path / f"run{i}"
        code = cmd_simulate(str(cfg), workers=workers, out_dir=str(out))
        assert code == 0
        blobs.append((next(out.iterdir()) / "results.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _emit("A9", ok, f"results.csv byte-identical across worker counts 1/2/4 "
          f"({len(blobs[0])} bytes)")
