"""Metamorphic relations of the probability engines at N = 10^6.

No naive oracle reaches this length, but a relabelling of the alphabet or of
the hidden states, or the reversal of a word, changes the inputs of a scan in
ways whose effect on its outputs is known exactly (or to a stated rounding).
"""

import numpy as np
import pytest

from parsentropy import (
    HiddenMarkovModel,
    MarkovModel,
    entropy_rate,
    prefix_log_probs,
    sample_trajectory,
    suffix_log_probs,
)

N = 10**6
SWAP = np.array([1, 0])   # the relabelling of a binary alphabet or of two hidden states


@pytest.fixture(scope="module")
def m1_word(m1):
    return sample_trajectory(m1, N, seed=7).symbols


@pytest.fixture(scope="module")
def h1_scan(h1):
    word = sample_trajectory(h1, N, seed=7).symbols
    return word, prefix_log_probs(h1, word)


def test_relabelling_a_chains_symbols_leaves_every_value_bit_identical(m1, m1_word):
    # the relabelled chain reads the same table entries in the same order
    swapped = MarkovModel(transition=m1.transition[SWAP][:, SWAP], initial=m1.initial[SWAP])
    word = SWAP[m1_word]
    assert np.array_equal(prefix_log_probs(swapped, word), prefix_log_probs(m1, m1_word))
    assert np.array_equal(suffix_log_probs(swapped, word), suffix_log_probs(m1, m1_word))


def test_a_reversed_word_of_a_two_state_chain_has_the_same_probability(m1, m1_word):
    # every two-state stationary chain is reversible, and both sums add the same terms
    assert prefix_log_probs(m1, m1_word[::-1])[-1] == suffix_log_probs(m1, m1_word)[0]


def test_relabelling_emitted_symbols_leaves_every_prefix_value_bit_identical(h1, h1_scan):
    word, values = h1_scan
    relabelled = HiddenMarkovModel(hidden_transition=h1.hidden_transition,
                                   hidden_initial=h1.hidden_initial,
                                   emission=h1.emission[:, SWAP])
    assert np.array_equal(prefix_log_probs(relabelled, SWAP[word]), values)


def test_relabelling_hidden_states_moves_prefix_values_by_rounding_only(h1, h1_scan):
    # The relabelled model sums each product's two terms in the other order.  Each symbol
    # adds about ten rounded operations, each an absolute error of at most ~1.1e-16 in
    # the log domain, to a value that grows by the entropy rate (about 0.53 nats) per
    # symbol: about 2e-15 relative.  1e-14 leaves room above that; 4.3e-16 is seen.
    word, values = h1_scan
    relabelled = HiddenMarkovModel(hidden_transition=h1.hidden_transition[SWAP][:, SWAP],
                                   hidden_initial=h1.hidden_initial[SWAP],
                                   emission=h1.emission[SWAP])
    moved = np.abs(prefix_log_probs(relabelled, word) - values)
    assert entropy_rate(h1).mid == pytest.approx(0.53, abs=0.01)
    assert np.all(moved <= 1e-14 * np.abs(values))
