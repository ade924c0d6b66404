import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsentropy import (
    CapExceededError,
    HiddenMarkovModel,
    IIDModel,
    MarkovModel,
    MixtureModel,
    ModelFormatError,
    PreconditionError,
    beta_sequence,
    block_log_probs,
    discrepancy_gap,
    entropy_rate,
    level_probs,
    load_model,
    log_cylinder_prob,
    marginal_entropy,
    model_from_dict,
    model_id,
    model_to_dict,
    prefix_log_probs,
    sample_trajectory,
    save_model,
    stationary_distribution,
    suffix_log_probs,
    validate_model,
)

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
    # a larger explicit cap admits the same depth
    assert marginal_entropy(m1, 12, cap=2**12) > 0


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
    bracket = entropy_rate(h1, tol=1e-4)
    assert bracket.converged and bracket.width <= 1e-4
    # the bracket enclosure holds for every deeper conditional increment
    beta12 = beta_sequence(h1, 12)[-1]
    assert bracket.lower - 1e-12 <= beta12
    # the deep-bracket limit, frozen from a depth-22 sandwich
    assert bracket.lower - 1e-12 <= 0.531364059281 <= bracket.upper + 1e-12


def test_entropy_rate_hmm_cap_flag(h1):
    bracket = entropy_rate(h1, tol=1e-15, n_cap=5)
    assert not bracket.converged
    assert bracket.n_used == 5
    assert bracket.width > 1e-15


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


def test_entropy_per_symbol_subadditive(all_reference_models):
    for model in all_reference_models.values():
        ratios = [marginal_entropy(model, n) / n for n in range(1, 10)]
        assert np.diff(ratios).max() < 1e-9


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "mixture"])
def test_level_probs_hidden_start_refused_without_hidden_states(all_reference_models, name):
    with pytest.raises(PreconditionError, match="hidden_start"):
        list(level_probs(all_reference_models[name], 2, hidden_start=[1.0, 0.0]))


@pytest.mark.parametrize("start", [[3.0, 0.0], [1.0], [0.5, 0.25, 0.25], [1.5, -0.5],
                                   [float("nan"), 1.0]])
def test_level_probs_hidden_start_must_be_a_distribution(h1, start):
    with pytest.raises(PreconditionError, match="hidden_start"):
        list(level_probs(h1, 2, hidden_start=start))


def test_level_probs_hidden_start_conditions_on_the_state(h1):
    levels = dict(level_probs(h1, 2, hidden_start=[1.0, 0.0]))
    assert levels[1].tolist() == pytest.approx([0.9, 0.1], abs=1e-15)
    assert float(levels[2].sum()) == pytest.approx(1.0, abs=1e-15)


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
