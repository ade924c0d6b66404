"""Differential suite: every engine against the naive per-word oracle.

Random small models (|A| <= 3, S <= 3) with zero entries and arbitrary words
of length <= 8; every prefix, suffix and block of each word is checked.
Logs must agree to 1e-12 (relative or absolute), and an engine must return
exactly -inf where the naive probability is 0.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parsentropy import (
    HiddenMarkovModel,
    IIDModel,
    MarkovModel,
    MixtureModel,
    OutOfSupportError,
    PreconditionError,
    block_log_probs,
    level_probs,
    log_cylinder_prob,
    prefix_log_probs,
    stationary_distribution,
    suffix_log_probs,
    z_value,
)

from conftest import naive_word_prob

TOL = 1e-12
SETTINGS = settings(max_examples=150, deadline=None)


def _distribution(draw, k):
    # small integer weights keep every positive word probability far from underflow
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), dtype=float)
    weights[draw(st.integers(0, k - 1))] += 1.0   # at least one positive entry
    return weights / weights.sum()


def _stochastic(draw, rows, cols):
    return np.array([_distribution(draw, cols) for _ in range(rows)])


def _stationary(t):
    try:
        return stationary_distribution(t)
    except PreconditionError:   # several closed classes: no unique stationary law
        assume(False)


def _unmixed_model(draw, kind, a):
    if kind == "iid":
        return IIDModel(p=_distribution(draw, a))
    if kind == "markov":
        t = _stochastic(draw, a, a)
        return MarkovModel(transition=t, initial=_stationary(t))
    s = draw(st.integers(1, 3))
    q = _stochastic(draw, s, s)
    return HiddenMarkovModel(hidden_transition=q, hidden_initial=_stationary(q),
                             emission=_stochastic(draw, s, a))


KINDS = ("iid", "markov", "hidden_markov")


@st.composite
def model_and_word(draw):
    a = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(KINDS + ("mixture",)))
    if kind == "mixture":
        model = MixtureModel(weight=draw(st.integers(1, 9)) / 10,
                             first=_unmixed_model(draw, draw(st.sampled_from(KINDS)), a),
                             second=_unmixed_model(draw, draw(st.sampled_from(KINDS)), a))
    else:
        model = _unmixed_model(draw, kind, a)
    word = draw(st.lists(st.integers(0, a - 1), min_size=1, max_size=8))
    return model, np.array(word, dtype=np.int64)


def _assert_log_matches(got, p):
    if p == 0.0:
        assert got == -math.inf
    else:
        assert math.isclose(got, math.log(p), rel_tol=TOL, abs_tol=TOL)


# A mixture's empty word: logaddexp(log 0.1, log 0.9) rounds to 2.8e-17, not 0.
MIXTURE_EMPTY_WORD = (MixtureModel(weight=0.1, first=IIDModel(p=[0.0, 1.0]),
                                   second=IIDModel(p=[0.0, 1.0])), np.array([1]))


# An initial law stationary only up to round-off: P([0]) = 0 < P([2, 0]) = 7.75e-18.
NEAR_STATIONARY = (MarkovModel(transition=[[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.25, 0.75, 0.0]],
                               initial=[0.0, 1.0, 3.1e-17]), np.array([2, 0]))


def _blocks(n):
    return [(s, e) for s in range(n) for e in range(s + 1, n + 1)]


@SETTINGS
@given(model_and_word())
@example(MIXTURE_EMPTY_WORD)
def test_prefix_log_probs_match_naive(case):
    model, w = case
    got = prefix_log_probs(model, w)
    assert got.shape == (len(w) + 1,) and got[0] == 0.0
    for j in range(1, len(w) + 1):
        _assert_log_matches(got[j], naive_word_prob(model, w[:j]))


@SETTINGS
@given(model_and_word())
@example(MIXTURE_EMPTY_WORD)
def test_suffix_log_probs_match_naive(case):
    model, w = case
    got = suffix_log_probs(model, w)
    assert got.shape == (len(w) + 1,) and got[-1] == 0.0
    for j in range(len(w)):
        _assert_log_matches(got[j], naive_word_prob(model, w[j:]))


@SETTINGS
@given(model_and_word())
def test_block_log_probs_match_naive(case):
    model, w = case
    blocks = _blocks(len(w))
    got = block_log_probs(model, w, [s for s, _ in blocks], [e for _, e in blocks])
    for value, (s, e) in zip(got, blocks):
        _assert_log_matches(value, naive_word_prob(model, w[s:e]))


@SETTINGS
@given(model_and_word())
def test_log_cylinder_prob_matches_naive_on_every_block(case):
    model, w = case
    for s, e in _blocks(len(w)):
        _assert_log_matches(log_cylinder_prob(model, w[s:e]), naive_word_prob(model, w[s:e]))


@SETTINGS
@given(model_and_word())
def test_level_probs_match_naive_on_every_block(case):
    model, w = case
    a = model.alphabet_size
    levels = dict(level_probs(model, len(w)))
    for s, e in _blocks(len(w)):
        rank = int(np.dot(w[s:e], a ** np.arange(e - s - 1, -1, -1)))
        p = float(levels[e - s][rank])
        _assert_log_matches(math.log(p) if p > 0.0 else -math.inf,
                            naive_word_prob(model, w[s:e]))


@SETTINGS
@given(model_and_word())
@example(NEAR_STATIONARY)
def test_z_value_matches_naive_on_every_block(case):
    model, w = case
    for s, e in _blocks(len(w)):
        full = naive_word_prob(model, w[s:e])
        if full == 0.0:
            with pytest.raises(OutOfSupportError):
                z_value(model, w[s:e])
            continue
        shifted = naive_word_prob(model, w[s + 1:e]) if e - s > 1 else 1.0
        # an initial law stationary only up to round-off can give P(shifted) = 0 < P(full)
        expected = (math.log(shifted) if shifted > 0.0 else -math.inf) - math.log(full)
        assert math.isclose(z_value(model, w[s:e]), expected, rel_tol=TOL, abs_tol=TOL)
