import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsentropy import (
    IIDModel,
    InsufficientLengthError,
    OutOfSupportError,
    beta_sequence,
    chain_rule_decomposition,
    expected_logz_check,
    level_probs,
    log_cylinder_prob,
    sample_trajectory,
    truncated_decomposition,
    verify_martingale_property,
    z_value,
    zmax_tail_check,
)

LN2 = math.log(2.0)
H04 = -(0.4 * math.log(0.4) + 0.6 * math.log(0.6))
H_M1 = 0.4 * (-(0.3 * math.log(0.3) + 0.7 * math.log(0.7))) + \
    0.6 * (-(0.2 * math.log(0.2) + 0.8 * math.log(0.8)))


# ---------------------------------------------------------------------------
# z values
# ---------------------------------------------------------------------------


def test_z_value_iid_uniform_is_ln2(iid2):
    assert z_value(iid2, [0, 1]) == pytest.approx(LN2, abs=1e-14)
    assert z_value(iid2, [1, 1, 0, 1]) == pytest.approx(LN2, abs=1e-12)


def test_z_value_markov_ratio(m1):
    # P([1]) / P([01]) = 0.6 / 0.12 = 5
    assert z_value(m1, [0, 1]) == pytest.approx(math.log(5.0), abs=1e-12)


def test_z_value_single_symbol_is_inverse_marginal(m1):
    assert z_value(m1, [1]) == pytest.approx(-math.log(0.6), abs=1e-14)


def test_z_value_out_of_support_raises():
    model = IIDModel(p=[1.0, 0.0])
    with pytest.raises(OutOfSupportError):
        z_value(model, [0, 1])


def test_z_value_markov_constant_from_depth_two(m1):
    # interior transition factors cancel in the ratio, so the value freezes
    traj = sample_trajectory(m1, 400, seed=3)
    for base in (0, 17, 100):
        x1, x2 = int(traj.symbols[base]), int(traj.symbols[base + 1])
        expected = math.log(float(m1.initial[x2])) - math.log(
            float(m1.initial[x1]) * float(m1.transition[x1, x2]))
        for n in (2, 3, 17, 40):
            assert z_value(m1, traj.symbols[base:base + n]) == pytest.approx(expected, abs=1e-12)


def test_z_value_nonnegative_all_models(all_reference_models):
    for model in all_reference_models.values():
        x = sample_trajectory(model, 80, seed=11).symbols
        assert min(z_value(model, x[:n]) for n in range(1, 51)) >= 0.0


# ---------------------------------------------------------------------------
# Exact enumeration verifiers
# ---------------------------------------------------------------------------


def test_martingale_property_iid(iid2):
    assert verify_martingale_property(iid2, 3) <= 1e-15


def test_martingale_property_m1(m1):
    assert verify_martingale_property(m1, 5) <= 1e-12


def test_martingale_property_h1(h1):
    assert verify_martingale_property(h1, 8) <= 1e-10


def test_martingale_property_naive_crosscheck(m1):
    # brute-force the n=2 identity straight from word probabilities
    def prob(word):
        p = float(m1.initial[word[0]])
        for a, b in zip(word, word[1:]):
            p *= float(m1.transition[a, b])
        return p

    worst = 0.0
    for u in itertools.product((0, 1), repeat=2):
        total = sum(prob(u[1:] + (a,)) for a in (0, 1) if prob(u + (a,)) > 0)
        worst = max(worst, abs(total - prob(u[1:])))
    assert verify_martingale_property(m1, 2) == pytest.approx(worst, abs=1e-15)


def test_expected_logz_iid(iid2):
    assert expected_logz_check(iid2, 4) <= 1e-15


def test_expected_logz_m1_value(m1):
    assert expected_logz_check(m1, 3) <= 1e-10
    # both sides equal the rate for a first-order chain at depth >= 2
    levels = dict(level_probs(m1, 3))
    p2, p3 = levels[2], levels[3]
    shift = np.arange(8) % 4
    expectation = float((p3 * (np.log(p2[shift]) - np.log(p3))).sum())
    assert expectation == pytest.approx(H_M1, abs=1e-12)


def test_expected_logz_h1(h1):
    assert expected_logz_check(h1, 6) <= 1e-10


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1"])
def test_expected_logz_equals_beta_sequence(all_reference_models, name):
    model = all_reference_models[name]
    betas = beta_sequence(model, 8)
    prev = np.ones(1)
    for n, level in level_probs(model, 8):
        shift = np.arange(level.shape[0]) % prev.shape[0]
        mask = level > 0
        z_log = np.log(prev[shift[mask]]) - np.log(level[mask])
        expectation = float((level[mask] * z_log).sum())
        assert expectation == pytest.approx(float(betas[n - 1]), abs=1e-10)
        prev = level


def test_zmax_tail_iid_exact_values(iid2):
    rows = zmax_tail_check(iid2, 6, (1.5, 2.5))
    # Z_max is identically 2 for the fair coin
    assert rows[0].tail_prob == pytest.approx(1.0, abs=1e-12)
    assert rows[0].ratio_bound == pytest.approx(2 / 1.5, abs=1e-12)
    assert rows[1].tail_prob == pytest.approx(0.0, abs=1e-12)
    assert all(r.passed for r in rows)


def test_zmax_tail_m1_grid(m1):
    rows = zmax_tail_check(m1, 10, (1.5, 2.0, 3.0, 5.0))
    for row in rows:
        assert row.tail_prob <= row.ratio_bound
        assert row.log_tail_prob <= row.exp_bound
        assert row.passed


def test_zmax_tail_h1(h1):
    rows = zmax_tail_check(h1, 8, (1.2, 2.0, 4.0))
    assert all(r.passed for r in rows)


def test_zmax_tail_naive_crosscheck(m1):
    # recompute P(max_k Z_k > t) at depth 4 by brute force
    def prob(word):
        p = float(m1.initial[word[0]])
        for a, b in zip(word, word[1:]):
            p *= float(m1.transition[a, b])
        return p

    t = 1.7
    total = 0.0
    for w in itertools.product((0, 1), repeat=4):
        zs = [prob(w[1:k]) / prob(w[:k]) if k > 1 else 1.0 / prob(w[:1])
              for k in range(1, 5)]
        if max(zs) > t:
            total += prob(w)
    row = zmax_tail_check(m1, 4, (t,))[0]
    assert row.tail_prob == pytest.approx(total, abs=1e-13)


# ---------------------------------------------------------------------------
# Telescoping decompositions
# ---------------------------------------------------------------------------


def test_chain_rule_iid_exact(iid2):
    traj = sample_trajectory(iid2, 64, seed=2)
    dec = chain_rule_decomposition(iid2, traj, 16)
    assert dec.neg_log_prob == pytest.approx(16 * LN2, abs=1e-12)
    assert dec.i_term + dec.j_term == pytest.approx(16 * LN2, abs=1e-12)
    assert abs(dec.identity_residual) <= 1e-12


def test_chain_rule_m1(m1):
    traj = sample_trajectory(m1, 200, seed=7)
    dec = chain_rule_decomposition(m1, traj, 100)
    assert abs(dec.identity_residual) <= 1e-9
    assert dec.truncation_M is None


def test_chain_rule_h1(h1):
    traj = sample_trajectory(h1, 128, seed=11)
    dec = chain_rule_decomposition(h1, traj, 64)
    assert abs(dec.identity_residual) <= 1e-9


@pytest.mark.parametrize("name", ["iid_uniform", "m1", "h1", "mixture"])
def test_chain_rule_long_trajectories(all_reference_models, name):
    model = all_reference_models[name]
    traj = sample_trajectory(model, 10_001, seed=13)
    dec = chain_rule_decomposition(model, traj, 10_000)
    assert abs(dec.identity_residual) <= 1e-9


def test_chain_rule_matches_direct_sum_of_z_values(m1):
    # independent route: evaluate every shifted ratio as its own word
    traj = sample_trajectory(m1, 30, seed=1)
    n = 12
    direct = sum(z_value(m1, traj.symbols[k:n]) for k in range(n))
    dec = chain_rule_decomposition(m1, traj, n)
    assert dec.neg_log_prob == pytest.approx(direct, abs=1e-10)
    assert dec.neg_log_prob == pytest.approx(
        -log_cylinder_prob(m1, traj.symbols[:n]), abs=1e-12)


def test_chain_rule_markov_j_term_vanishes(m1):
    # the limit proxy is exact from depth 2 on, so only one shift contributes
    traj = sample_trajectory(m1, 600, seed=5)
    dec = chain_rule_decomposition(m1, traj, 500)
    assert abs(dec.j_term) <= 2 * math.log(5.0) + 1e-9


def test_truncated_iid(iid2):
    traj = sample_trajectory(iid2, 64, seed=4)
    dec = truncated_decomposition(iid2, traj, 32, 4)
    assert dec.i_term == pytest.approx(32 * LN2, abs=1e-12)
    assert dec.j_term == pytest.approx(0.0, abs=1e-12)
    assert dec.truncation_M == 4


def test_truncated_m1_depth1_bias(m1):
    traj = sample_trajectory(m1, 300, seed=7)
    dec = truncated_decomposition(m1, traj, 200, 1)
    assert dec.j_term / 200 == pytest.approx(H_M1 - H04, abs=0.02)


def test_truncated_m1_depth2_vanishes(m1):
    traj = sample_trajectory(m1, 300, seed=7)
    dec = truncated_decomposition(m1, traj, 200, 2)
    assert abs(dec.j_term) / 200 < 0.01


def test_truncated_identity_holds_for_all_depths(h1):
    traj = sample_trajectory(h1, 260, seed=9)
    for m in (1, 2, 5, 8):
        dec = truncated_decomposition(h1, traj, 250, m)
        assert abs(dec.identity_residual) <= 1e-9


def test_truncated_needs_window(m1):
    traj = sample_trajectory(m1, 100, seed=0)
    with pytest.raises(InsufficientLengthError):
        truncated_decomposition(m1, traj, 99, 2)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 200))
def test_chain_rule_identity_random_inputs(m1, seed, n):
    traj = sample_trajectory(m1, n + 8, seed=seed)
    dec = chain_rule_decomposition(m1, traj, n)
    assert abs(dec.identity_residual) <= 1e-9
