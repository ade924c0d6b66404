import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsentropy import (
    BirkhoffSeries,
    BudgetNotSubextensiveError,
    GapTooSmallError,
    HiddenMarkovModel,
    IIDModel,
    MixtureModel,
    OutOfSupportError,
    ParserSpec,
    Parsing,
    PreconditionError,
    Trajectory,
    blockwise_info,
    convergence_experiment,
    counterexample_experiment,
    discrepancy_gap,
    entropy_rate,
    estimator,
    factorization_residual,
    marginal_entropy,
    oracle_target,
    parse_fixed,
    parse_growing,
    parse_random_sublinear,
    perturbation_experiment,
    reference_model,
    sample_trajectory,
    smb_info,
    sublinear_birkhoff_check,
    truncated_decomposition,
)
from parsentropy.cli import derive_seeds

from test_tracer_bindings import _enum_atoms

LN2 = math.log(2.0)
H_M1 = 0.4 * (-(0.3 * math.log(0.3) + 0.7 * math.log(0.7))) + \
    0.6 * (-(0.2 * math.log(0.2) + 0.8 * math.log(0.8)))


def _traj(symbols) -> Trajectory:
    return Trajectory(symbols=np.asarray(symbols, dtype=np.int64), seed=0, model_id="-")


# ---------------------------------------------------------------------------
# Pointwise estimators
# ---------------------------------------------------------------------------


def test_blockwise_iid_equals_ln2_for_any_parsing(iid2):
    traj = sample_trajectory(iid2, 300, seed=1)
    for parsing in (parse_fixed(300, 7), parse_growing(300, "sqrt"),
                    parse_random_sublinear(300, 100, seed=2), parse_fixed(300, 300)):
        assert blockwise_info(iid2, traj, parsing) == pytest.approx(LN2, abs=1e-12)


def test_blockwise_markov_two_symbol_examples(m1):
    traj = _traj([0, 1])
    split = blockwise_info(m1, traj, parse_fixed(2, 1))
    assert split == pytest.approx(-(math.log(0.4) + math.log(0.6)) / 2, abs=1e-12)
    assert split == pytest.approx(0.713558, abs=5e-7)
    single = blockwise_info(m1, traj, parse_fixed(2, 2))
    assert single == pytest.approx(-math.log(0.12) / 2, abs=1e-12)
    assert single == pytest.approx(1.060132, abs=5e-7)


def test_blockwise_out_of_support_raises():
    model = IIDModel(p=[1.0, 0.0])
    traj = _traj([0, 1, 0])
    with pytest.raises(OutOfSupportError):
        blockwise_info(model, traj, parse_fixed(3, 2))


def test_smb_info_iid_exact(iid2):
    traj = sample_trajectory(iid2, 1000, seed=3)
    assert smb_info(iid2, traj, 1000) == pytest.approx(LN2, abs=1e-12)


def test_single_block_equals_smb(all_reference_models):
    for model in all_reference_models.values():
        traj = sample_trajectory(model, 2000, seed=5)
        single = blockwise_info(model, traj, parse_fixed(2000, 2000))
        assert single == pytest.approx(smb_info(model, traj, 2000), abs=1e-12)


def test_residual_is_definitional_difference(m1):
    traj = sample_trajectory(m1, 5000, seed=9)
    parsing = parse_growing(5000, "sqrt")
    res = factorization_residual(m1, traj, parsing)
    expected = blockwise_info(m1, traj, parsing) - smb_info(m1, traj, 5000)
    assert res == expected


def test_residual_zero_for_iid(iid2):
    traj = sample_trajectory(iid2, 4000, seed=2)
    for parsing in (parse_fixed(4000, 3), parse_growing(4000, "sqrt")):
        assert factorization_residual(iid2, traj, parsing) == pytest.approx(0.0, abs=1e-12)


def test_refinement_locality_law_markov(m1):
    # splitting one block moves N * residual by exactly
    # log p(boundary transition) - log pi(first symbol of the right part)
    traj = sample_trajectory(m1, 1000, seed=13)
    n = 1000
    coarse = Parsing(boundaries=[400, n])
    t = 217
    fine = Parsing(boundaries=[t, 400, n])
    x = traj.symbols
    a, b = int(x[t - 1]), int(x[t])
    predicted = (math.log(float(m1.transition[a, b])) -
                 math.log(float(m1.initial[b]))) / n
    delta = (factorization_residual(m1, traj, fine) -
             factorization_residual(m1, traj, coarse))
    assert delta == pytest.approx(predicted, abs=1e-12)


def test_fixed_k_residual_matches_entropy_gap(m1):
    # r_N / N for K-blocks approaches H(P_K)/K - h
    traj = sample_trajectory(m1, 10**5, seed=7)
    res = factorization_residual(m1, traj, parse_fixed(10**5, 4))
    expected = marginal_entropy(m1, 4) / 4 - H_M1
    assert res == pytest.approx(expected, abs=0.005)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), budget=st.integers(1, 64))
def test_blockwise_identity_random_parsings(m1, seed, budget):
    traj = sample_trajectory(m1, 64, seed=seed)
    parsing = parse_random_sublinear(64, budget, seed=seed + 1)
    block = blockwise_info(m1, traj, parsing)
    res = factorization_residual(m1, traj, parsing)
    assert res == block - smb_info(m1, traj, 64)
    assert block >= 0.0


# ---------------------------------------------------------------------------
# Oracle targets
# ---------------------------------------------------------------------------


def test_oracle_target_fixed_k(m1):
    target = oracle_target(m1, ParserSpec("fixed", {"K": 4}))
    assert target.lower == target.upper == pytest.approx(marginal_entropy(m1, 4) / 4, abs=1e-12)


def test_oracle_target_sublinear_families(m1, h1):
    t = oracle_target(m1, ParserSpec("growing", {"schedule": "sqrt"}))
    assert t.mid == pytest.approx(H_M1, abs=1e-9)
    t = oracle_target(h1, ParserSpec("lz78", {}))
    assert t.upper - t.lower <= 1e-5


def test_oracle_target_tail_family(h1):
    t = oracle_target(h1, ParserSpec("counterexample_v", {"K": 4, "epsilon": 0.05}))
    expected = 0.5 * (marginal_entropy(h1, 2) / 2 + 0.531364059281)
    assert t.mid == pytest.approx(expected, abs=1e-5)


def test_tail_selection_run_computes_the_rate_bracket_once(h1, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return entropy_rate(*args, **kwargs)

    monkeypatch.setattr(estimator, "entropy_rate", counting)
    spec = ParserSpec("counterexample_v", {"K": 4, "epsilon": 0.05})
    report = convergence_experiment(h1, spec, [1000, 2000], [7])
    assert len(calls) == 1
    assert report.target == oracle_target(h1, spec)


def test_oracle_target_rejects_alternating_family(h1):
    with pytest.raises(ValueError):
        oracle_target(h1, ParserSpec("counterexample_w", {"K": 4, "epsilon": 0.05}))


# ---------------------------------------------------------------------------
# Experiments (small scale; the acceptance suite runs the full versions)
# ---------------------------------------------------------------------------


def test_convergence_as_mode_small(m1):
    report = convergence_experiment(
        m1, ParserSpec("growing", {"schedule": "sqrt"}),
        N_grid=[1000, 10_000, 100_000], seeds=[7], target_mode="as", tol=0.02)
    assert report.verdict
    assert report.target.mid == pytest.approx(H_M1, abs=1e-9)
    assert [r.N for r in report.series] == [1000, 10_000, 100_000]
    assert report.tail_deviation < 0.02
    for r in report.series:
        assert r.blockwise_info >= 0.0
        assert 0.0 <= r.smb_info <= LN2 + 0.05


def test_convergence_fixed_k_misses_the_rate(m1):
    report = convergence_experiment(
        m1, ParserSpec("fixed", {"K": 4}),
        N_grid=[1000, 10_000, 100_000], seeds=[7], target_mode="as", tol=0.01)
    assert report.verdict  # passes against its own limit H(P_4)/4
    final = [r for r in report.series if r.N == 100_000][0]
    assert abs(final.blockwise_info - H_M1) > 0.025  # but misses the rate


def test_convergence_mode_preconditions(m1):
    spec = ParserSpec("growing", {"schedule": "sqrt"})
    with pytest.raises(ValueError):
        convergence_experiment(m1, spec, [100], seeds=[1, 2], target_mode="as")
    with pytest.raises(ValueError):
        convergence_experiment(m1, spec, [100], seeds=list(range(5)), target_mode="l1")
    with pytest.raises(ValueError):
        convergence_experiment(m1, spec, [100, 100], seeds=[1], target_mode="as")


def test_convergence_l1_mode_small(m1):
    report = convergence_experiment(
        m1, ParserSpec("growing", {"schedule": "sqrt"}),
        N_grid=[20_000], seeds=list(range(20)), target_mode="l1", tol=0.02)
    assert report.verdict
    assert report.l1_deviation < 0.02
    assert len(report.series) == 20


def test_mixture_fixed_k_scores_each_seed_against_its_component(mixture):
    # a realization of component j tends to E_j[-log P(X_1^4)]/4 under the mixture P,
    # not to the mixture's H(P_4)/4, which is only their weighted mean
    spec = ParserSpec("fixed", {"K": 4})
    report = convergence_experiment(mixture, spec, [10**4, 10**5], derive_seeds(99, 20),
                                    "l1", tol=0.02)
    headline = marginal_entropy(mixture, 4) / 4
    assert report.target.lower == report.target.upper == headline
    targets = {r.target.mid for r in report.series}
    m1_target, coin_target = sorted(targets)
    assert (m1_target, coin_target) == pytest.approx((0.60400, 0.71976), abs=1e-5)
    assert (mixture.weight * m1_target + (1 - mixture.weight) * coin_target
            == pytest.approx(headline, abs=1e-12))
    assert report.verdict
    assert report.l1_deviation < 0.002


def test_convergence_hmm_all_sublinear_specs(h1):
    # hidden-Markov counterpart of the almost-sure criterion; the adversary
    # re-evaluates O(budget * N) windows sequentially, so it runs on the
    # nested prefix at 1e5 while the others go to 1e6
    cheap = {
        "growing sqrt": ParserSpec("growing", {"schedule": "sqrt"}),
        "growing log2": ParserSpec("growing", {"schedule": "log2"}),
        "lz78": ParserSpec("lz78", {}),
        "random sqrt": ParserSpec("random_sublinear", {"budget": "sqrt", "seed": 7}),
    }
    for name, spec in cheap.items():
        report = convergence_experiment(h1, spec, [10**4, 10**5, 10**6], [7],
                                        "as", tol=0.02)
        assert report.verdict, name
    report = convergence_experiment(h1, ParserSpec("adversarial", {"budget": "sqrt"}),
                                    [10**4, 10**5], [7], "as", tol=0.02)
    assert report.verdict


def test_counterexample_rejects_small_gap(m1, iid2):
    with pytest.raises(GapTooSmallError):
        counterexample_experiment(m1, 4, [0.1], N_grid=[1000, 1001, 2000, 2001], seed=1)
    with pytest.raises(GapTooSmallError):
        counterexample_experiment(iid2, 2, [0.1], N_grid=[1000, 1001, 2000, 2001], seed=1)


# One rule refuses a mixture wherever tail selection needs one rate per realization.
ERGODIC_REFUSAL = r"^model: expected an ergodic model \(a mixture is not\), got 'MixtureModel'$"


def test_counterexample_rejects_mixture(mixture):
    with pytest.raises(PreconditionError, match=ERGODIC_REFUSAL):
        counterexample_experiment(mixture, 4, [0.1], N_grid=[1000, 1001], seed=1)


def test_tail_selection_target_rejects_mixture(mixture):
    spec = ParserSpec("counterexample_v", {"K": 4, "epsilon": 0.1})
    with pytest.raises(PreconditionError, match=ERGODIC_REFUSAL):
        oracle_target(mixture, spec)
    with pytest.raises(PreconditionError, match=ERGODIC_REFUSAL):
        convergence_experiment(mixture, spec, [1000, 2000], [7])


def test_counterexample_requires_both_parities(h1):
    with pytest.raises(ValueError):
        counterexample_experiment(h1, 4, [0.1], N_grid=[1000, 2000, 3000 - 1000], seed=1)


def test_discrepancy_gap_and_birkhoff_take_numpy_integers(m1, h1):
    assert discrepancy_gap(h1, np.int64(4)) == discrepancy_gap(h1, 4)
    assert (sublinear_birkhoff_check(m1, N_grid=[1000], seed=4, depth=np.int64(3)).rows
            == sublinear_birkhoff_check(m1, N_grid=[1000], seed=4, depth=3).rows)


def test_perturbation_trim_half_rejected(m1):
    with pytest.raises(BudgetNotSubextensiveError):
        perturbation_experiment(m1, ParserSpec("growing", {"schedule": "sqrt"}),
                                "trim_half", N_grid=[1000, 10_000], seed=3)


def test_perturbation_refuses_an_unknown_plan_before_any_work(h1, monkeypatch):
    monkeypatch.setattr(estimator, "sample_trajectory", lambda *args: pytest.fail("sampled"))

    def run():
        with pytest.raises(PreconditionError, match="^plan: expected "):
            perturbation_experiment(h1, ParserSpec("growing", {"schedule": "sqrt"}), "trim2",
                                    [10**3, 10**6], 7)
    assert _enum_atoms(run) == 0   # h1's rate sandwich would draw 3 x 510 atoms


@pytest.mark.parametrize("spec", [ParserSpec("fixed", {"K": 4}),
                                  ParserSpec("growing", {"schedule": "sqrt"}),
                                  ParserSpec("random_sublinear", {"budget": "sqrt", "seed": 3})],
                         ids=lambda spec: spec.family)
def test_perturbation_refuses_a_plan_that_is_not_subextensive_before_sampling(h1, spec,
                                                                               monkeypatch):
    # these parsings need no trajectory, so their ratios are checked before the oracle and sampling
    monkeypatch.setattr(estimator, "sample_trajectory", lambda *args: pytest.fail("sampled"))

    def run():
        with pytest.raises(BudgetNotSubextensiveError, match="^modification ratios along the grid"):
            perturbation_experiment(h1, spec, "trim_half", [10**3, 10**6], 7)
    assert _enum_atoms(run) == 0


_GROWING = ParserSpec("growing", {"schedule": "sqrt"})

# (call, the start of its message): n and seed are integers that are not bools, seeds >= 0
TYPED_COUNTS = {
    "sample.n-float": (lambda m1, h1: sample_trajectory(m1, 2.5, 7), "n"),
    "sample.n-bool": (lambda m1, h1: sample_trajectory(m1, True, 7), "n"),
    "sample.seed-float": (lambda m1, h1: sample_trajectory(m1, 10, 1.5), "seed"),
    "sample.seed-str": (lambda m1, h1: sample_trajectory(m1, 10, "7"), "seed"),
    "sample.seed-negative": (lambda m1, h1: sample_trajectory(m1, 10, -1), "seed"),
    "convergence.float": (lambda m1, h1: convergence_experiment(m1, _GROWING, [100, 1000],
                                                                seeds=[1.5]), r"seeds\[0\]"),
    "convergence.bool": (lambda m1, h1: convergence_experiment(m1, _GROWING, [100, 1000],
                                                               seeds=[True]), r"seeds\[0\]"),
    "convergence.negative": (lambda m1, h1: convergence_experiment(
        m1, _GROWING, [100, 1000], seeds=[*range(20), -1], target_mode="l1"), r"seeds\[20\]"),
    "perturbation": (lambda m1, h1: perturbation_experiment(m1, _GROWING, "trim1", [100, 1000],
                                                            1.5), "seed"),
    "counterexample": (lambda m1, h1: counterexample_experiment(h1, 4, [0.1], [1000, 1001],
                                                                True), "seed"),
    "birkhoff": (lambda m1, h1: sublinear_birkhoff_check(h1, N_grid=[1000], seed=-1), "seed"),
}


@pytest.mark.parametrize("site", sorted(TYPED_COUNTS))
def test_lengths_and_seeds_are_typed_before_any_work(m1, h1, site, monkeypatch):
    monkeypatch.setattr(estimator, "sample_trajectory", lambda *args: pytest.fail("sampled"))
    call, where = TYPED_COUNTS[site]

    def run():
        with pytest.raises(PreconditionError, match=f"^{where}: expected "):
            call(m1, h1)
    assert _enum_atoms(run) == 0


def test_numpy_integers_are_lengths_and_seeds(m1):
    traj = sample_trajectory(m1, np.int64(100), np.uint64(7))
    assert traj.seed == 7
    assert traj.symbols.tolist() == sample_trajectory(m1, 100, 7).symbols.tolist()


# (call, the start of its message): every N_grid entry is a length, every epsilon a number
# in (0, 1/4) and every tolerance a positive finite number, each checked as it is given
TYPED_GRIDS_AND_TOLS = {
    "grid-float": (lambda h1: convergence_experiment(h1, _GROWING, [100.9, 1000], [7]),
                   r"N_grid\[0\]"),
    "grid-bool": (lambda h1: convergence_experiment(h1, _GROWING, [True, 1000], [7]),
                  r"N_grid\[0\]"),
    "grid-str": (lambda h1: perturbation_experiment(h1, _GROWING, "trim1", [100, "1000000"], 7),
                 r"N_grid\[1\]"),
    "grid-birkhoff": (lambda h1: sublinear_birkhoff_check(h1, N_grid=[1e4]), r"N_grid\[0\]"),
    "epsilon-str": (lambda h1: counterexample_experiment(h1, 4, ["0.1"], [1000, 1001], 7),
                    r"epsilon_schedule\[0\]"),
    "tol-str": (lambda h1: convergence_experiment(h1, _GROWING, [100, 1000], [7], tol="0.01"),
                "tol"),
    "tol-bool": (lambda h1: convergence_experiment(h1, _GROWING, [100, 1000], [7], tol=True),
                 "tol"),
    "tol-negative": (lambda h1: convergence_experiment(h1, _GROWING, [100, 1000], [7],
                                                       tol=-1.0), "tol"),
    "tol-nan": (lambda h1: convergence_experiment(h1, _GROWING, [100, 1000], [7],
                                                  tol=float("nan")), "tol"),
    "tol-inf-perturbation": (lambda h1: perturbation_experiment(
        h1, _GROWING, "trim1", [100, 10**6], 7, tol=math.inf), "tol"),
    "tol-str-birkhoff": (lambda h1: sublinear_birkhoff_check(h1, N_grid=[10_000], tol="1"),
                         "tol"),
    "tol-zero-birkhoff": (lambda h1: sublinear_birkhoff_check(h1, N_grid=[10_000], tol=0.0),
                          "tol"),
}


@pytest.mark.parametrize("site", sorted(TYPED_GRIDS_AND_TOLS))
def test_grids_epsilons_and_tolerances_are_typed_before_any_work(h1, site, monkeypatch):
    monkeypatch.setattr(estimator, "sample_trajectory", lambda *args: pytest.fail("sampled"))
    call, where = TYPED_GRIDS_AND_TOLS[site]

    def run():
        with pytest.raises(PreconditionError, match=f"^{where}: expected "):
            call(h1)
    assert _enum_atoms(run) == 0


def test_numpy_floats_are_tolerances(m1):
    report = convergence_experiment(m1, _GROWING, [100, 1000], [7], tol=np.float64(0.5))
    assert report.tol == 0.5 and report.verdict
    assert sublinear_birkhoff_check(m1, N_grid=[1000], tol=np.float32(1.0)).verdict


def test_perturbation_trim1_small(m1):
    report = perturbation_experiment(
        m1, ParserSpec("growing", {"schedule": "sqrt"}), "trim1",
        N_grid=[10_000, 100_000], seed=7, tol=0.02)
    assert report.verdict
    assert report.target.mid == pytest.approx(H_M1, abs=1e-9)


def test_perturbation_extend1_small(m1):
    report = perturbation_experiment(
        m1, ParserSpec("growing", {"schedule": "sqrt"}), "extend1",
        N_grid=[10_000, 100_000], seed=7, tol=0.02)
    assert report.verdict


@pytest.mark.parametrize("seed", [2, 7])   # seed 2 samples m1, seed 7 the fair coin
def test_perturbation_mixture_scores_the_sampled_component(mixture, seed):
    spec = ParserSpec("growing", {"schedule": "sqrt"})
    grid = [10_000, 100_000]
    report = perturbation_experiment(mixture, spec, "trim1", N_grid=grid, seed=seed, tol=0.01)
    component = sample_trajectory(mixture, grid[-1], seed).component
    rate = entropy_rate(mixture.components[component]).mid
    assert rate == pytest.approx((H_M1, LN2)[component], abs=1e-12)
    for r in report.series:
        assert r.target.lower == r.target.upper == rate
    assert report.verdict
    # the report target stays the hull of the component rates
    assert (report.target.lower, report.target.upper) == pytest.approx((H_M1, LN2), abs=1e-9)
    plain = convergence_experiment(mixture, spec, grid, [seed], "as", tol=0.01)
    assert [r.target for r in plain.series] == [r.target for r in report.series]


def test_birkhoff_uniform_prefix_is_exact(iid2):
    series = sublinear_birkhoff_check(iid2, "abs_log_z_d", "prefix_sqrt",
                                      N_grid=[10_000, 1_000_000], seed=4, depth=8)
    # constant observable: the value is exactly sqrt(N) * ln2 / N
    for n, value in series.rows:
        assert value == pytest.approx(math.isqrt(n) * LN2 / n, abs=1e-15)
    assert series.rows[-1][1] == pytest.approx(0.000693147, abs=1e-9)


@pytest.mark.parametrize("name", ["iid2", "m1", "h1"])
@pytest.mark.parametrize("depth", [2, 3, 8])
def test_birkhoff_row_is_the_truncated_i_term(request, name, depth):
    # one window evaluator serves both, and verify's truncated_identity row cross-checks it
    model = request.getfixturevalue(name)
    n, seed = 10_000, 7
    series = sublinear_birkhoff_check(model, "abs_log_z_d", "prefix_sqrt",
                                      N_grid=[n], seed=seed, depth=depth)
    trunc = truncated_decomposition(model, sample_trajectory(model, n + depth, seed),
                                    math.isqrt(n), depth)
    assert series.rows == ((n, trunc.i_term / n),)


def test_birkhoff_random_indices_bounded(m1):
    series = sublinear_birkhoff_check(m1, "abs_log_z_d", "random_sqrt",
                                      N_grid=[100_000], seed=4, depth=8)
    assert series.rows[0][1] <= math.log(5.0) * math.isqrt(100_000) / 100_000 + 1e-12


def test_birkhoff_zmax_observable_runs(m1):
    series = sublinear_birkhoff_check(m1, "log_zmax_to_depth_d", "prefix_sqrt",
                                      N_grid=[10_000], seed=4, depth=6, tol=0.1)
    assert series.verdict
    assert series.rows[0][1] > 0


# ---------------------------------------------------------------------------
# Mixture oracles, counted by the benchmark's layer tracer (perfbench/tracer.py)
# ---------------------------------------------------------------------------


H1_COIN = MixtureModel(weight=0.5, first=reference_model("h1"), second=reference_model("iid_uniform"))


@pytest.mark.parametrize("spec,atoms", [
    # h1's rate sandwich once (3 sweeps of 2 + 4 + ... + 256 = 510 atoms); the coin's is closed
    (ParserSpec("growing", {"schedule": "sqrt"}), 3 * 510),
    # level 4 (2 + 4 + 8 + 16 = 30 atoms) of each component once; the mixture's is mixed from them
    (ParserSpec("fixed", {"K": 4}), 2 * 30),
])
def test_mixture_run_walks_each_oracle_level_once(spec, atoms, monkeypatch):
    walks, levels = [], HiddenMarkovModel._levels

    def counted(model, n_max):
        walks.append(model)
        return levels(model, n_max)
    monkeypatch.setattr(HiddenMarkovModel, "_levels", counted)
    reports = []
    assert _enum_atoms(lambda: reports.append(
        convergence_experiment(H1_COIN, spec, [1000], [7]))) == atoms
    # the sandwich's other two sweeps start h1 from a hidden state, as copies of it
    assert sum(model is H1_COIN.first for model in walks) == 1
    assert reports[0].target == oracle_target(H1_COIN, spec)   # the headline, bit for bit
    assert reports[0].target.rate == (None if spec.family == "fixed" else entropy_rate(H1_COIN))


@pytest.mark.parametrize("spec,message", [
    (ParserSpec("counterexample_w", {"K": 4, "epsilon": 0.05}), "^spec.family: expected a family "),
    (ParserSpec("counterexample_v", {"K": 4, "epsilon": 0.05}), ERGODIC_REFUSAL),
])
def test_mixture_run_refuses_before_any_enumeration(spec, message):
    def run():
        with pytest.raises(PreconditionError, match=message):
            convergence_experiment(H1_COIN, spec, [1000, 2000], [7])
    assert _enum_atoms(run) == 0


# ---------------------------------------------------------------------------
# Verdict rules, on synthetic records: nothing is sampled
# ---------------------------------------------------------------------------


def _record(N, seed=7, deviation=0.0, blockwise_info=0.0):
    return SimpleNamespace(N=N, seed=seed, deviation=deviation, blockwise_info=blockwise_info)


def _scored(records):
    """A ``map_fn`` whose one cell is ``records``: the verdict sees only them."""
    return lambda fn, tasks: [records]


@pytest.mark.parametrize("ratios,refused", [
    ([0.05, 0.02], True),                     # ends at 0.02, not below 0.01
    ([0.05, 0.0099], False),
    ([0.005, 0.005 + 2e-12, 0.001], True),    # rises once by more than 1e-12
    ([0.005, 0.005 + 5e-13, 0.001], False),   # a rise within 1e-12 is rounding
], ids=["ends-at-2%", "ends-below-1%", "rises", "rises-within-rounding"])
def test_a_perturbation_plan_must_not_rise_and_must_end_below_one_percent(ratios, refused):
    parsings = [SimpleNamespace(modification=r) for r in ratios]   # at N = 1, ratio = modification
    args = (lambda p: p, parsings, [1] * len(ratios))
    if refused:
        with pytest.raises(BudgetNotSubextensiveError, match="^modification ratios along the grid"):
            estimator._perturb(*args)
    else:
        assert estimator._perturb(*args) == parsings


def test_the_as_verdict_takes_the_largest_deviation_in_the_last_quarter_of_the_grid(m1):
    grid = [100 * k for k in range(1, 9)]            # its last quarter: 700 and 800
    deviation = {600: 0.5, 700: 0.02, 800: 0.005}
    records = [_record(n, deviation=deviation.get(n, 0.0)) for n in grid]
    report = convergence_experiment(m1, _GROWING, grid, [7], tol=0.01, map_fn=_scored(records))
    assert (report.tail_deviation, report.verdict) == (0.02, False)


@pytest.mark.parametrize("spread", [0.1, 1e-4])
def test_the_l1_verdict_takes_the_mean_deviation_within_three_standard_errors(m1, spread):
    seeds = list(range(20))
    deviations = [0.0] * 15 + [0.04] * 5              # mean 0.01, median 0
    values = [0.5 + spread * (-1) ** s for s in seeds]
    records = [_record(1000, s, d, v) for s, d, v in zip(seeds, deviations, values)]
    report = convergence_experiment(m1, _GROWING, [1000], seeds, target_mode="l1", tol=0.005,
                                    map_fn=_scored(records))
    standard_error = float(np.std(values, ddof=1)) / math.sqrt(20)
    assert report.l1_deviation == pytest.approx(0.01, rel=1e-12)
    assert report.effective_tol == pytest.approx(max(0.005, 3 * standard_error), rel=1e-12)
    assert report.verdict == (spread == 0.1)          # 3 x 0.0230 passes 0.01; 0.005 does not


def _two_limit_run(h1, monkeypatch, grid, factor):
    """The two-limit report on records at ``factor(N)`` times each cell's limit."""
    def cell(args):
        _, _, cells, _, _ = args
        return [_record(n, blockwise_info=target.mid * factor(n)) for n, _, _, target in cells]
    monkeypatch.setattr(estimator, "_seed_cell", cell)
    return counterexample_experiment(h1, 4, [0.1], grid, 7)


@pytest.mark.parametrize("even,odd,verdicts", [
    (1.03, 0.97, (False, False, False)),   # the parity gap misses gap by 1.5 tol_gap
    (1.03, 1.03, (False, False, True)),    # both 3% high: the gap holds
    (1.01, 0.99, (True, True, True)),      # misses gap by tol_gap / 2
])
def test_the_two_limit_verdict_checks_each_limit_and_their_gap(h1, monkeypatch, even, odd,
                                                               verdicts):
    report = _two_limit_run(h1, monkeypatch, [1000, 1001, 1002, 1003],
                            lambda n: odd if n % 2 else even)
    assert (report.even_ok, report.odd_ok, report.gap_ok) == verdicts
    assert report.tol_gap == report.tol_even + report.tol_odd


def test_the_two_limit_window_holds_at_least_four_points(h1, monkeypatch):
    # six points: a quarter is two, so the window is the last four, 1002 to 1005
    factor = {1000: 2.0, 1001: 2.0, 1002: 1.01, 1003: 1.01}
    report = _two_limit_run(h1, monkeypatch, list(range(1000, 1006)), lambda n: factor.get(n, 1.0))
    assert report.even_tail_avg == pytest.approx(1.005 * report.limit_even, rel=1e-12)
    assert report.odd_tail_avg == pytest.approx(1.005 * report.limit_odd.mid, rel=1e-12)


def test_a_birkhoff_series_passes_only_below_its_tolerance():
    def verdict(final, tol=0.01):
        return BirkhoffSeries(rows=((1000, 0.5), (10_000, final)), observable="abs_log_z_d",
                              index_family="prefix_sqrt", depth=8, tol=tol).verdict
    assert (verdict(0.0099), verdict(0.01), verdict(0.0101)) == (True, False, False)
    assert verdict(0.0101, tol=None) is None
