import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsentropy import (
    ENUM_CAP,
    CapExceededError,
    HiddenMarkovModel,
    InsufficientLengthError,
    IIDModel,
    MarkovModel,
    MixtureModel,
    ModelFormatError,
    ParserSpec,
    Parsing,
    PerturbedParsing,
    PreconditionError,
    Trajectory,
    beta_sequence,
    block_log_probs,
    chain_rule_decomposition,
    cut_penalties,
    discrepancy_gap,
    entropy_rate,
    expected_logz_check,
    level_probs,
    load_model,
    log_cylinder_prob,
    make_parsing,
    marginal_entropy,
    model_from_dict,
    model_id,
    model_to_dict,
    oracle_target,
    parse_adversarial,
    parse_counterexample_v,
    parse_fixed,
    parse_growing,
    parse_lz78,
    parse_random_sublinear,
    perturb_subblocks,
    perturb_superblocks,
    prefix_log_probs,
    reference_model,
    sample_trajectory,
    save_model,
    smb_info,
    stationary_distribution,
    sublinear_birkhoff_check,
    suffix_log_probs,
    truncated_decomposition,
    validate_model,
    validate_parsing,
    verify_martingale_property,
    z_value,
    zmax_tail_check,
)
from parsentropy.measures import RATE_TOL, _levels
from parsentropy import parsing
from parsentropy.parsing import PARSER_FAMILIES, growing_block_length

from conftest import naive_marginal_entropy, naive_word_prob

LN2 = math.log(2.0)
H03 = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))   # 0.6108643020548935
H02 = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))   # 0.5004024235381879
H04 = -(0.4 * math.log(0.4) + 0.6 * math.log(0.6))   # 0.6730116670092565
H_M1 = 0.4 * H03 + 0.6 * H02                          # 0.5445871749448701


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_m1_passes_with_tiny_residual(m1):
    report = validate_model(m1)
    assert report.passed
    stat = [c for c in report.checks if c.name == "stationarity"][0]
    # linear oracle: 0.4 * 0.3 == 0.6 * 0.2 makes (0.4, 0.6) exactly stationary
    assert stat.residual < 1e-15


def test_validate_nonstationary_initial_fails_with_residual_005():
    model = MarkovModel(transition=[[0.7, 0.3], [0.2, 0.8]], initial=[0.5, 0.5])
    report = validate_model(model)
    assert not report.passed
    stat = [c for c in report.checks if c.name == "stationarity"][0]
    # (0.5, 0.5) P - (0.5, 0.5) = (-0.05, 0.05)
    assert stat.residual == pytest.approx(0.05, abs=1e-15)
    assert not stat.passed


def test_validate_iid_uniform_passes(iid2):
    assert validate_model(iid2).passed


def test_validate_h1_and_mixture_pass(h1, mixture):
    assert validate_model(h1).passed
    assert validate_model(mixture).passed


def test_validate_degenerate_alphabet_fails():
    report = validate_model(IIDModel(p=[1.0]))
    assert not report.passed


def test_validate_bad_row_sum_fails():
    model = MarkovModel(transition=[[0.8, 0.3], [0.2, 0.8]], initial=[0.4, 0.6])
    report = validate_model(model)
    names = {c.name for c in report.failures}
    assert "transition.rows_sum_to_one" in names


def test_invalid_model_is_reported_but_not_sampled():
    model = MarkovModel(transition=[[0.8, 0.3], [0.2, 0.8]], initial=[0.4, 0.6])
    failed = {c.name for c in validate_model(model).failures}
    assert {"transition.rows_sum_to_one", "stationarity"} <= failed
    with pytest.raises(ModelFormatError, match="transition.rows_sum_to_one") as info:
        sample_trajectory(model, 10, seed=1)
    assert all(name in str(info.value) for name in failed)


_MIXTURE_ENGINES = {
    "prefix": lambda model: prefix_log_probs(model, [0, 1, 1]),
    "suffix": lambda model: suffix_log_probs(model, [0, 1, 1]),
    "block": lambda model: block_log_probs(model, [0, 1, 1], [0, 1], [2, 3]),
    "level_probs": lambda model: list(level_probs(model, 3)),
}


@pytest.mark.parametrize("engine", sorted(_MIXTURE_ENGINES))
@pytest.mark.parametrize("weight", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_mixture_engines_refuse_a_weight_outside_the_open_unit_interval(m1, engine, weight):
    # the model builds and validate_model reports the row; the engines raise it as sampling does
    model = MixtureModel(weight, m1, m1)
    (row,) = validate_model(model).failures
    assert row.name == "weight_in_open_unit_interval"
    with pytest.raises(ModelFormatError, match="weight_in_open_unit_interval"):
        _MIXTURE_ENGINES[engine](model)
    with pytest.raises(ModelFormatError, match="weight_in_open_unit_interval"):
        sample_trajectory(model, 10, seed=1)


def test_stationary_distribution_power_iteration(m1):
    pi = stationary_distribution(m1.transition)
    # eigen-decomposition oracle for the same fixed point
    w, v = np.linalg.eig(m1.transition.T)
    exact = np.real(v[:, np.argmax(np.real(w))])
    exact = exact / exact.sum()
    assert np.abs(pi - exact).max() < 1e-12
    assert np.abs(pi - np.array([0.4, 0.6])).max() < 1e-12


def test_stationary_distribution_periodic_chain():
    # period 2: the chain alternates between state 1 and the states {0, 2}
    t = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    pi = stationary_distribution(t)
    assert np.abs(pi - np.array([0.25, 0.5, 0.25])).max() < 1e-14
    assert np.abs(pi @ t - pi).max() < 1e-14


def test_stationary_distribution_reducible_chain_raises():
    # every distribution is stationary under the identity
    with pytest.raises(PreconditionError, match="not unique"):
        stationary_distribution(np.eye(2))


# ---------------------------------------------------------------------------
# Cylinder probabilities
# ---------------------------------------------------------------------------


def test_log_cylinder_iid_uniform(iid2):
    assert log_cylinder_prob(iid2, [0, 1, 1, 0]) == pytest.approx(-4 * LN2, abs=1e-12)


def test_log_cylinder_markov_direct_product(m1):
    assert log_cylinder_prob(m1, [0, 1]) == pytest.approx(math.log(0.12), abs=1e-12)


def test_log_cylinder_hmm_symmetric_single_symbol(h1):
    # 0.5 * 0.9 + 0.5 * 0.1 = 0.5 by symmetry
    assert log_cylinder_prob(h1, [0]) == pytest.approx(math.log(0.5), abs=1e-12)


def test_log_cylinder_out_of_support_is_minus_inf():
    model = IIDModel(p=[1.0, 0.0])
    assert log_cylinder_prob(model, [0, 1, 0]) == -math.inf


def test_block_in_support_after_earlier_zero_factor():
    # the transition 1 -> 0 at position 1 has probability zero; blocks past
    # it are still in support and must not come out as nan
    model = MarkovModel(transition=[[0.5, 0.5], [0.0, 1.0]], initial=[0.0, 1.0])
    x = np.array([1, 0, 1, 1, 1])
    logs = block_log_probs(model, x, [2, 0, 1, 3], [5, 5, 3, 4])
    assert logs[0] == log_cylinder_prob(model, [1, 1, 1]) == 0.0
    assert logs[1] == logs[2] == -math.inf
    assert logs[3] == 0.0
    iid = IIDModel(p=[1.0, 0.0])
    y = np.array([0, 1, 0, 0])
    assert list(block_log_probs(iid, y, [2, 0], [4, 2])) == [0.0, -math.inf]


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_empty_word_scans_are_exactly_zero(all_reference_models, name):
    model = all_reference_models[name]
    assert prefix_log_probs(model, []).tolist() == [0.0]
    assert suffix_log_probs(model, []).tolist() == [0.0]


def test_cut_penalties_are_local_table_entries(all_reference_models):
    x = np.array([0, 0, 1, 1, 0, 1])
    m1 = all_reference_models["m1"]
    expected = [math.log(m1.transition[a, b]) - math.log(m1.initial[b]) for a, b in zip(x, x[1:])]
    assert cut_penalties(m1, x).tolist() == pytest.approx(expected, abs=1e-15)
    assert cut_penalties(all_reference_models["iid_uniform"], x).tolist() == [0.0] * 5
    assert cut_penalties(all_reference_models["h1"], x) is None
    assert cut_penalties(all_reference_models["mixture"], x) is None


_WORD_ENGINES = {
    "prefix_log_probs": prefix_log_probs,
    "suffix_log_probs": suffix_log_probs,
    "block_log_probs": lambda model, x: block_log_probs(model, x, [0, 2], [2, len(x)]),
    "cut_penalties": cut_penalties,
    "log_cylinder_prob": log_cylinder_prob,
}


@pytest.mark.parametrize("engine", sorted(_WORD_ENGINES))
@pytest.mark.parametrize("bad", [-1, 2])
@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_word_engines_reject_symbols_outside_the_alphabet(all_reference_models, name, bad, engine):
    x = np.array([0, 1, 1, bad, 0])
    with pytest.raises(PreconditionError, match=rf"symbol {bad} at index 3 is outside the alphabet 0\.\.1"):
        _WORD_ENGINES[engine](all_reference_models[name], x)


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_block_log_probs_reads_no_symbol_past_the_last_block(all_reference_models, name):
    model = all_reference_models[name]
    x = sample_trajectory(model, 60, seed=4).symbols
    starts, ends = np.array([0, 9, 30]), np.array([9, 30, 41])
    tail = np.full(100, model.alphabet_size)        # out of the alphabet, never read
    assert np.array_equal(block_log_probs(model, np.concatenate((x[:41], tail)), starts, ends),
                          block_log_probs(model, x[:41], starts, ends))


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_log_cylinder_matches_naive_oracle(all_reference_models, name):
    model = all_reference_models[name]
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        word = rng.integers(0, 2, size=n)
        expected = math.log(naive_word_prob(model, word))
        assert log_cylinder_prob(model, word) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_prefix_suffix_block_agree_with_per_word(all_reference_models, name):
    model = all_reference_models[name]
    traj = sample_trajectory(model, 40, seed=5)
    x = traj.symbols
    pre = prefix_log_probs(model, x)
    suf = suffix_log_probs(model, x)
    assert pre[0] == 0.0 and suf[-1] == 0.0
    for j in (1, 7, 19, 40):
        assert pre[j] == pytest.approx(log_cylinder_prob(model, x[:j]), abs=1e-10)
    for j in (0, 11, 33, 39):
        assert suf[j] == pytest.approx(log_cylinder_prob(model, x[j:]), abs=1e-10)
    starts = np.array([0, 3, 17, 25])
    ends = np.array([3, 17, 25, 40])
    blocks = block_log_probs(model, x, starts, ends)
    for i, (s, e) in enumerate(zip(starts, ends)):
        assert blocks[i] == pytest.approx(log_cylinder_prob(model, x[s:e]), abs=1e-10)


def test_block_log_probs_long_hmm_blocks_match_scan(h1):
    # blocks longer than one chunk of the blocked scan
    traj = sample_trajectory(h1, 120, seed=9)
    starts = np.array([0, 30])
    ends = np.array([30, 120])
    blocks = block_log_probs(h1, traj.symbols, starts, ends)
    for i, (s, e) in enumerate(zip(starts, ends)):
        assert blocks[i] == pytest.approx(log_cylinder_prob(h1, traj.symbols[s:e]), abs=1e-9)


# sha256 of the fair coin's engine outputs on its 10^5-symbol sample at seed 3,
# pinned from the coin's own product-measure engines before it ran on the
# Markov chain's: the delegation must not move a byte of them.
COIN_DIGESTS = {
    "sample": "8a355d48bb4113648a7d1223ae34f9189fd982450497649161afcd776fbbb1ec",
    "prefix": "cb8b5b9e2eb747e05c5e320a1f2cfd5fa0b033190efa21a535ab4ba87f1eeccd",
    "suffix": "da890394a64f61848f2136b2c6fb4d04b4dbac9f72d255ae612ec83e4f7fd1e2",
    "block": "a05e6919fa5c949571ada88c5af5933b5f6d06dd05adf6f635253e910c2c8791",
    "levels": "0e7322701ab75930bb879842f9709f74abe199e3adc6b4f9704a8df2e0ff34ff",
    "rate": "ce347467a4a1463927c6373756935dcb209da37948aae811b1cfa4c06cb61e81",
}


def test_coin_engine_bytes_are_pinned(iid2):
    x = sample_trajectory(iid2, 10**5, seed=3).symbols
    sqrt = parse_growing(10**5, "sqrt")
    rate = entropy_rate(iid2)
    got = {
        "sample": x.astype(np.int64),
        "prefix": prefix_log_probs(iid2, x),
        "suffix": suffix_log_probs(iid2, x),
        "block": block_log_probs(iid2, x, sqrt.starts, sqrt.ends),
        "levels": np.concatenate([level for _, level in level_probs(iid2, 10)]),
        "rate": np.array([rate.lower, rate.upper]),
    }
    assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in got.items()} == COIN_DIGESTS


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_sampling_is_bit_reproducible(all_reference_models, name):
    model = all_reference_models[name]
    a = sample_trajectory(model, 500, seed=42)
    b = sample_trajectory(model, 500, seed=42)
    assert np.array_equal(a.symbols, b.symbols)
    assert a.component == b.component
    c = sample_trajectory(model, 500, seed=43)
    assert not np.array_equal(a.symbols, c.symbols)


def test_sampling_markov_matches_stationary_frequency(m1):
    traj = sample_trajectory(m1, 10**6, seed=7)
    freq0 = float((traj.symbols == 0).mean())
    assert abs(freq0 - 0.4) < 0.005


def test_sampling_mixture_records_component(mixture):
    seen = set()
    for seed in range(12):
        traj = sample_trajectory(mixture, 100, seed=seed)
        assert traj.component in (0, 1)
        seen.add(traj.component)
    assert seen == {0, 1}


def test_trajectory_carries_model_id(m1):
    traj = sample_trajectory(m1, 10, seed=0)
    assert traj.model_id == model_id(m1)


# ---------------------------------------------------------------------------
# Entropies and rates
# ---------------------------------------------------------------------------


def test_marginal_entropy_uniform(iid2):
    assert marginal_entropy(iid2, 3) == pytest.approx(3 * LN2, abs=1e-12)


def test_marginal_entropy_m1_level1(m1):
    assert marginal_entropy(m1, 1) == pytest.approx(H04, abs=1e-12)


def test_marginal_entropy_m1_level2_chain_rule_and_enumeration(m1):
    expected = H04 + H_M1  # chain rule for a first-order chain
    assert marginal_entropy(m1, 2) == pytest.approx(expected, abs=1e-12)
    assert marginal_entropy(m1, 2) == pytest.approx(naive_marginal_entropy(m1, 2), abs=1e-12)


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_marginal_entropy_matches_bruteforce(all_reference_models, name):
    model = all_reference_models[name]
    for n in (1, 3, 6):
        assert marginal_entropy(model, n) == pytest.approx(
            naive_marginal_entropy(model, n), abs=1e-11)


def test_marginal_entropy_cap(m1):
    with pytest.raises(CapExceededError):
        marginal_entropy(m1, 23)


# On m1 each call needs 2^23 or 2^24 atoms: one level over ENUM_CAP = 2^22.
_OVER_CAP = {
    "level_probs": lambda m: next(level_probs(m, 23)),
    "marginal_entropy": lambda m: marginal_entropy(m, 23),
    "beta_sequence": lambda m: beta_sequence(m, 23),
    "discrepancy_gap": lambda m: discrepancy_gap(m, 24),
    "oracle_target": lambda m: oracle_target(m, ParserSpec("fixed", {"K": 23})),
    "verify_martingale_property": lambda m: verify_martingale_property(m, 22),
    "expected_logz_check": lambda m: expected_logz_check(m, 23),
    "zmax_tail_check": lambda m: zmax_tail_check(m, 23, (2.0,)),
}


@pytest.mark.parametrize("name", sorted(_OVER_CAP))
def test_enumeration_cap_holds_at_every_entry_point(m1, name):
    assert ENUM_CAP == 1 << 22
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="exceeds the cap"):
            _OVER_CAP[name](m1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # refused before any level (8 bytes per atom) is built


def test_beta_sequence_markov_flat_from_two(m1):
    betas = beta_sequence(m1, 4)
    assert betas[0] == pytest.approx(H04, abs=1e-12)
    for b in betas[1:]:
        assert b == pytest.approx(H_M1, abs=1e-12)


def test_beta_sequence_iid_constant():
    model = IIDModel(p=[0.3, 0.7])
    betas = beta_sequence(model, 6)
    assert np.abs(betas - H03).max() < 1e-12


def test_beta_sequence_h1_strictly_decreasing(h1):
    betas = beta_sequence(h1, 8)
    gaps = -np.diff(betas)
    assert (gaps > 0).all()


def test_beta_sequence_nonincreasing_all_models(all_reference_models):
    for model in all_reference_models.values():
        betas = beta_sequence(model, 8)
        assert np.diff(betas).max() < 1e-9


def test_entropy_rate_iid_uniform(iid2):
    bracket = entropy_rate(iid2)
    assert bracket.lower == bracket.upper == pytest.approx(LN2, abs=1e-15)


def test_entropy_rate_markov_closed_form(m1):
    bracket = entropy_rate(m1)
    assert bracket.width == 0.0
    assert bracket.mid == pytest.approx(H_M1, abs=1e-9)


def test_entropy_rate_hmm_sandwich(h1):
    bracket = entropy_rate(h1)
    assert bracket.converged and bracket.width <= RATE_TOL
    # the bracket enclosure holds for every deeper conditional increment
    beta12 = beta_sequence(h1, 12)[-1]
    assert bracket.lower - 1e-12 <= beta12
    # the deep-bracket limit, frozen from a depth-22 sandwich
    assert bracket.lower - 1e-12 <= 0.531364059281 <= bracket.upper + 1e-12


def test_entropy_rate_hmm_cap_flag():
    # 16 symbols: a sixth level would hold 16^6 > ENUM_CAP atoms, so the sandwich stops at 5
    emission = np.full((2, 16), 0.5 / 15)
    emission[0, 0] = emission[1, 1] = 0.5
    model = HiddenMarkovModel([[0.99, 0.01], [0.01, 0.99]], [0.5, 0.5], emission)
    bracket = entropy_rate(model)
    assert not bracket.converged
    assert bracket.n_used == 5
    assert bracket.width > RATE_TOL


def test_entropy_rate_mixture_hull(mixture):
    bracket = entropy_rate(mixture)
    assert bracket.lower == pytest.approx(H_M1, abs=1e-9)
    assert bracket.upper == pytest.approx(LN2, abs=1e-9)


def test_discrepancy_gap_markov_is_zero(m1):
    result = discrepancy_gap(m1, 4)
    assert abs(result.gap) <= result.bracket_width + 1e-12


def test_discrepancy_gap_iid_zero_exactly(iid2):
    result = discrepancy_gap(iid2, 2)
    assert result.gap == pytest.approx(0.0, abs=1e-14)


def test_discrepancy_gap_h1_positive(h1):
    result = discrepancy_gap(h1, 4)
    assert result.gap > 1e-3
    assert result.bracket_width <= 1e-4
    # independent assembly from brute-force entropies and the deep rate value
    expected = naive_marginal_entropy(h1, 4) / 4 - 0.5 * (
        naive_marginal_entropy(h1, 2) / 2 + 0.531364059281)
    assert result.gap == pytest.approx(expected, abs=result.bracket_width + 1e-9)


def test_discrepancy_gap_requires_even_k(m1):
    with pytest.raises(ValueError):
        discrepancy_gap(m1, 3)


# ---------------------------------------------------------------------------
# Enumeration invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_level_normalization_consistency_stationarity(all_reference_models, name):
    model = all_reference_models[name]
    levels = dict(level_probs(model, 12))
    a = model.alphabet_size
    for n in range(1, 13):
        assert abs(float(levels[n].sum()) - 1.0) < 1e-10
    for n in range(1, 12):
        child_sum = levels[n + 1].reshape(-1, a).sum(axis=1)
        assert np.abs(child_sum - levels[n]).max() < 1e-12
        shift_sum = levels[n + 1].reshape(a, -1).sum(axis=0)
        assert np.abs(shift_sum - levels[n]).max() < 1e-12


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_cylinder_monotonicity(all_reference_models, name):
    model = all_reference_models[name]
    levels = dict(level_probs(model, 12))
    a = model.alphabet_size
    for n in range(1, 12):
        ext = levels[n + 1].reshape(-1, a)
        assert float((ext - levels[n][:, None]).max()) <= 1e-15
        # stationarity: P([uv]) <= P([v]) with u one symbol
        tail = np.tile(levels[n], a)
        assert float((levels[n + 1] - tail).max()) <= 1e-15


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
@pytest.mark.parametrize("lo,hi", [(0, 1), (0, 6), (1, 1), (2, 5), (6, 6)])
def test_levels_returns_exactly_the_levels_asked_for(all_reference_models, name, lo, hi):
    model = all_reference_models[name]
    streamed = {0: np.ones(1), **dict(level_probs(model, 6))}
    levels = _levels(model, lo, hi)
    assert len(levels) == hi - lo + 1
    for n, level in zip(range(lo, hi + 1), levels):
        assert level.shape == (model.alphabet_size ** n,)
        assert np.array_equal(level, streamed[n])


def test_entropy_per_symbol_subadditive(all_reference_models):
    for model in all_reference_models.values():
        ratios = [marginal_entropy(model, n) / n for n in range(1, 10)]
        assert np.diff(ratios).max() < 1e-9


# ---------------------------------------------------------------------------
# Random-model properties
# ---------------------------------------------------------------------------


def _random_markov(seed: int) -> MarkovModel:
    rng = np.random.default_rng(seed)
    t = rng.gamma(1.0, 1.0, size=(3, 3)) + 0.05
    t /= t.sum(axis=1, keepdims=True)
    return MarkovModel(transition=t, initial=stationary_distribution(t))


def _random_hmm(seed: int) -> HiddenMarkovModel:
    rng = np.random.default_rng(seed)
    q = rng.gamma(1.0, 1.0, size=(2, 2)) + 0.05
    q /= q.sum(axis=1, keepdims=True)
    b = rng.gamma(1.0, 1.0, size=(2, 3)) + 0.05
    b /= b.sum(axis=1, keepdims=True)
    return HiddenMarkovModel(hidden_transition=q,
                             hidden_initial=stationary_distribution(q), emission=b)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["markov", "hmm", "mixture"]))
def test_random_models_satisfy_measure_invariants(seed, kind):
    if kind == "markov":
        model = _random_markov(seed)
    elif kind == "hmm":
        model = _random_hmm(seed)
    else:
        model = MixtureModel(weight=0.25, first=_random_markov(seed),
                             second=_random_markov(seed + 1))
    assert validate_model(model).passed
    levels = dict(level_probs(model, 5))
    a = model.alphabet_size
    assert abs(float(levels[5].sum()) - 1.0) < 1e-10
    child_sum = levels[5].reshape(-1, a).sum(axis=1)
    assert np.abs(child_sum - levels[4]).max() < 1e-12
    shift_sum = levels[5].reshape(a, -1).sum(axis=0)
    assert np.abs(shift_sum - levels[4]).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), word_seed=st.integers(0, 10**6))
def test_random_model_word_probs_match_naive(seed, word_seed):
    model = _random_markov(seed)
    rng = np.random.default_rng(word_seed)
    word = rng.integers(0, 3, size=int(rng.integers(1, 9)))
    expected = naive_word_prob(model, word)
    got = log_cylinder_prob(model, word)
    assert got == pytest.approx(math.log(expected), abs=1e-11)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_model_json_roundtrip(all_reference_models, name, tmp_path):
    model = all_reference_models[name]
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_id(loaded) == model_id(model)
    assert model_to_dict(loaded) == model_to_dict(model)


def test_model_from_dict_rejects_unknown_keys(m1):
    d = model_to_dict(m1)
    d["extra"] = 1
    with pytest.raises(ModelFormatError, match="unknown keys"):
        model_from_dict(d)


def test_model_from_dict_rejects_missing_keys(m1):
    d = model_to_dict(m1)
    del d["initial"]
    with pytest.raises(ModelFormatError, match="missing keys"):
        model_from_dict(d)


def test_load_model_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "variant": "iid",\n  oops\n}\n')
    with pytest.raises(ModelFormatError, match="line 3"):
        load_model(path)


def test_load_model_rejects_bad_row_sum(tmp_path, m1):
    d = model_to_dict(m1)
    d["transition"][0][0] = 0.71  # row sums to 1.01
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ModelFormatError, match="rows_sum_to_one"):
        load_model(path)


def test_model_id_is_stable_and_distinguishes(m1, h1):
    assert model_id(m1) == model_id(MarkovModel(transition=[[0.7, 0.3], [0.2, 0.8]],
                                                initial=[0.4, 0.6]))
    assert model_id(m1) != model_id(h1)


# ---------------------------------------------------------------------------
# Typed argument errors
# ---------------------------------------------------------------------------

_M1 = MarkovModel(transition=[[0.7, 0.3], [0.2, 0.8]], initial=[0.4, 0.6])
_H1 = reference_model("h1")
_TRAJ = Trajectory(symbols=np.zeros(100, dtype=np.int64), seed=0, model_id=model_id(_M1))
_SQRT = parse_growing(100, "sqrt")   # 10 blocks

# (call, the argument its message names), one per bad-argument check of a public function
BAD_ARGUMENTS = {
    "log_cylinder_prob": (lambda: log_cylinder_prob(_M1, []), "word"),
    "block_log_probs.shape": (lambda: block_log_probs(_M1, [0, 1], [0], [1, 2]), "starts, ends"),
    "block_log_probs.inside": (lambda: block_log_probs(_M1, [0, 1], [0], [3]), "starts, ends"),
    "sample_trajectory": (lambda: sample_trajectory(_M1, 0, seed=1), "n"),
    "level_probs": (lambda: next(level_probs(_M1, 0)), "n_max"),
    "reference_model": (lambda: reference_model("m2"), "name"),
    "verify_martingale_property": (lambda: verify_martingale_property(_M1, 0), "n"),
    "expected_logz_check": (lambda: expected_logz_check(_M1, 0), "n"),
    "zmax_tail_check": (lambda: zmax_tail_check(_M1, 4, (1.5, 0.0)), "t_grid"),
    "truncated_decomposition": (lambda: truncated_decomposition(_M1, _TRAJ, 10, 0), "M"),
    "growing_block_length": (lambda: growing_block_length(100, "cuberoot"), "schedule"),
    "perturb_subblocks.shape": (lambda: perturb_subblocks(_SQRT, np.zeros((9, 2))), "trim_plan"),
    "perturb_superblocks.sign": (lambda: perturb_superblocks(_SQRT, -np.ones((10, 2))),
                                 "extend_plan"),
    "make_parsing.traj": (lambda: make_parsing(ParserSpec("lz78", {}), 100), "traj"),
    "make_parsing.model": (lambda: make_parsing(ParserSpec("adversarial", {"budget": 4}), 100,
                                                traj=_TRAJ), "model"),
    "make_parsing.h_ref": (lambda: make_parsing(ParserSpec("counterexample_v",
                                                           {"K": 4, "epsilon": 0.1}),
                                                100, model=_M1, traj=_TRAJ), "h_ref"),
    # a count, length or depth is an integer (not a bool), and a bound by N or by the
    # trajectory length comes after the type: each of these ran, or failed untyped, before
    "parse_fixed.K": (lambda: parse_fixed(10, 2.5), "K"),
    "parse_growing.N": (lambda: parse_growing(100.5, "sqrt"), "N"),
    "parse_lz78.N": (lambda: parse_lz78(_TRAJ, 2.5), "N"),
    "parse_random_sublinear.budget": (lambda: parse_random_sublinear(100, 2.5, 1), "budget"),
    "parse_random_sublinear.N": (lambda: parse_random_sublinear(10.5, 3, 1), "N"),
    "make_parsing.N": (lambda: make_parsing(ParserSpec("random_sublinear",
                                                       {"budget": 3, "seed": 1}), 10.5), "N"),
    "parse_adversarial.N": (lambda: parse_adversarial(_M1, _TRAJ, 50.5, 4), "N"),
    "parse_adversarial.budget": (lambda: parse_adversarial(_M1, _TRAJ, 50, True), "budget"),
    "parse_counterexample_v.N": (lambda: parse_counterexample_v(_M1, _TRAJ, 60.5, 4, 0.5, 0.1),
                                 "N"),
    "level_probs.float": (lambda: next(level_probs(_M1, 2.5)), "n_max"),
    "marginal_entropy": (lambda: marginal_entropy(_M1, 2.5), "n"),
    "beta_sequence": (lambda: beta_sequence(_M1, True), "n_max"),
    "verify_martingale_property.bool": (lambda: verify_martingale_property(_M1, True), "n"),
    "expected_logz_check.bool": (lambda: expected_logz_check(_M1, True), "n"),
    "zmax_tail_check.n": (lambda: zmax_tail_check(_M1, 2.5, (1.5,)), "n"),
    "chain_rule_decomposition.n": (lambda: chain_rule_decomposition(_M1, _TRAJ, 2.5), "n"),
    "truncated_decomposition.n": (lambda: truncated_decomposition(_M1, _TRAJ, True, 2), "n"),
    "truncated_decomposition.M": (lambda: truncated_decomposition(_M1, _TRAJ, 50, 2.5), "M"),
    "smb_info.N": (lambda: smb_info(_M1, _TRAJ, 2.5), "N"),
    "sublinear_birkhoff_check.depth": (lambda: sublinear_birkhoff_check(
        _M1, "log_zmax_to_depth_d", N_grid=[1000], depth=True), "depth"),
    # symbols, starts, ends and plans are integer arrays: floats are not truncated, bools
    # not read as 0/1
    "prefix_log_probs.float": (lambda: prefix_log_probs(_M1, [0.9, 1.2]), "symbols"),
    "suffix_log_probs.bool": (lambda: suffix_log_probs(_M1, np.array([True, False])), "symbols"),
    "block_log_probs.float": (lambda: block_log_probs(_M1, [0, 1, 1, 0], [0.5], [3.7]),
                              "starts, ends"),
    "block_log_probs.symbols": (lambda: block_log_probs(_M1, [0.0, 1.0], [0], [2]), "symbols"),
    "log_cylinder_prob.float": (lambda: log_cylinder_prob(_M1, [0.5, 1.0]), "word"),
    "z_value.bool": (lambda: z_value(_M1, [True, False]), "word"),
    "perturb_subblocks.float": (lambda: perturb_subblocks(_SQRT, np.full((10, 2), 0.5)),
                                "trim_plan"),
    "perturb_subblocks.shape-int": (lambda: perturb_subblocks(
        _SQRT, np.zeros((9, 2), dtype=int)), "trim_plan"),
    "perturb_superblocks.sign-int": (lambda: perturb_superblocks(
        _SQRT, -np.ones((10, 2), dtype=int)), "extend_plan"),
    # so are the arrays a Parsing, PerturbedParsing or Trajectory is built from
    "Parsing.float": (lambda: Parsing(boundaries=[2.5, 10.9]), "boundaries"),
    "PerturbedParsing.starts": (lambda: PerturbedParsing(
        starts=[0.5], lengths=[2], origin=Parsing([3]), modification=1, kind="sub"), "starts"),
    "PerturbedParsing.lengths": (lambda: PerturbedParsing(
        starts=[0], lengths=[True], origin=Parsing([3]), modification=2, kind="sub"), "lengths"),
    "Trajectory.float": (lambda: Trajectory(symbols=[0.5, 1.7], seed=0, model_id="-"), "symbols"),
    # a word, the trajectory that holds it, its blocks and the positions read of it are 1-d arrays
    "Trajectory.2d": (lambda: Trajectory(symbols=np.zeros((5, 10), dtype=int), seed=0, model_id="-"),
                      "symbols"),
    "prefix_log_probs.2d": (lambda: prefix_log_probs(_M1, np.zeros((5, 10), dtype=int)), "symbols"),
    "prefix_log_probs.0d": (lambda: prefix_log_probs(_M1, 1), "symbols"),
    "block_log_probs.2d": (lambda: block_log_probs(_M1, np.zeros((5, 10), dtype=int), [0], [2]),
                           "symbols"),
    "block_log_probs.2d-blocks": (lambda: block_log_probs(_H1, np.zeros(10, dtype=int), [[0, 3]],
                                                          [[2, 5]]), "starts, ends"),
    "prefix_log_probs.at-2d": (lambda: prefix_log_probs(_H1, [0, 1], at=[[0, 1]]), "at"),
    "suffix_log_probs.at-float": (lambda: suffix_log_probs(_M1, [0, 1], at=[0.5]), "at"),
    # and the positions lie in 0..n
    "prefix_log_probs.at-past-n": (lambda: prefix_log_probs(_M1, [0, 1], at=[3]), "at"),
    "suffix_log_probs.at-negative": (lambda: suffix_log_probs(_H1, [0, 1], at=[-1]), "at"),
}


@pytest.mark.parametrize("site", sorted(BAD_ARGUMENTS))
def test_bad_arguments_raise_precondition_errors_naming_them(site):
    call, argument = BAD_ARGUMENTS[site]
    with pytest.raises(PreconditionError, match=f"^{argument}: ") as caught:
        call()
    assert isinstance(caught.value, ValueError)   # every `except ValueError` still catches it


def test_out_of_range_lengths_keep_their_error_class():
    # a length the trajectory cannot hold is an InsufficientLengthError, a type error is not
    with pytest.raises(InsufficientLengthError, match=r"^n: expected an integer in \[1, 98\]"):
        truncated_decomposition(_M1, _TRAJ, 99, 2)
    with pytest.raises(InsufficientLengthError, match="^n: "):
        chain_rule_decomposition(_M1, _TRAJ, 0)


def test_empty_and_numpy_integer_inputs_still_evaluate():
    assert prefix_log_probs(_M1, []).tolist() == [0.0]   # np.asarray([]) is float64
    assert block_log_probs(_M1, [], [], []).shape == (0,)
    word = [0, 1, 1, 0]
    for kind in (np.uint8, np.int32):
        assert log_cylinder_prob(_M1, np.array(word, dtype=kind)) == log_cylinder_prob(_M1, word)
        assert (block_log_probs(_M1, np.array(word, dtype=kind), np.array([0], dtype=kind),
                                np.array([3], dtype=kind)).tolist()
                == block_log_probs(_M1, word, [0], [3]).tolist())


def test_numpy_scalars_pass_as_parameters_and_are_written_as_plain_numbers():
    spec = ParserSpec("counterexample_v", {"K": np.int64(4), "epsilon": 0.1})
    assert spec.describe() == '{"K":4,"epsilon":0.1}'
    spec = ParserSpec("random_sublinear", {"budget": np.int32(4), "seed": np.uint64(3)})
    assert spec.describe() == ParserSpec("random_sublinear", {"budget": 4, "seed": 3}).describe()
    assert (make_parsing(spec, 100).boundaries.tolist()
            == make_parsing(ParserSpec("random_sublinear", {"budget": 4, "seed": 3}),
                            100).boundaries.tolist())
    d = {"alphabet_size": np.int64(2), "variant": "markov",
         "transition": [[np.float64(0.7), 0.3], [0.2, np.float64(0.8)]],
         "initial": [0.4, np.float64(0.6)]}
    assert model_id(model_from_dict(d)) == model_id(_M1)


# Each family's parameters and the inputs it reads, in the order make_parsing refuses them
FAMILY_INPUTS = {
    "fixed": ({"K": 4}, ()),
    "growing": ({"schedule": "sqrt"}, ()),
    "lz78": ({}, ("traj",)),
    "random_sublinear": ({"budget": 4, "seed": 3}, ()),
    "adversarial": ({"budget": 4}, ("traj", "model")),
    "counterexample_v": ({"K": 4, "epsilon": 0.1}, ("traj", "model", "h_ref")),
    "counterexample_w": ({"K": 4, "epsilon": 0.1}, ("traj", "model", "h_ref")),
}

_INPUTS = {"traj": _TRAJ, "model": _M1, "h_ref": 0.5}


@pytest.mark.parametrize("family", PARSER_FAMILIES)
def test_each_family_refuses_its_first_missing_input_and_builds_from_exactly_its_inputs(family):
    params, reads = FAMILY_INPUTS[family]
    spec = ParserSpec(family, params)
    for r in range(len(reads)):   # every strict subset of the inputs it reads
        for given in itertools.combinations(reads, r):
            missing = next(name for name in reads if name not in given)
            with pytest.raises(PreconditionError, match=f"^{missing}: family {family!r} needs "):
                make_parsing(spec, 100, **{name: _INPUTS[name] for name in given})
    built = make_parsing(spec, 100, **{name: _INPUTS[name] for name in reads})
    assert validate_parsing(built, 100).passed


@pytest.mark.parametrize("family", PARSER_FAMILIES)
def test_make_parsing_calls_the_generator_bound_in_its_module(family, monkeypatch):
    # perfbench's tracer times each parser by rebinding parse_<family> in the module
    marker = object()
    monkeypatch.setattr(parsing, f"parse_{family}", lambda *args, **kwargs: marker)
    params, _ = FAMILY_INPUTS[family]
    assert make_parsing(ParserSpec(family, params), 100, **_INPUTS) is marker
