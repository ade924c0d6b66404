"""Metamorphic relations of the probability engines at N = 10^6.

No naive oracle reaches this length, but a relabelling of the alphabet or of
the hidden states, the reversal of a word, an i.i.d. law written as a chain,
or a mixture of a model with itself changes the inputs of a scan in ways
whose effect on its outputs is known exactly (or to a stated rounding).
"""

import numpy as np
import pytest

from parsentropy import (
    HiddenMarkovModel,
    IIDModel,
    MarkovModel,
    MixtureModel,
    block_log_probs,
    entropy_rate,
    parse_fixed,
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


def _values(model, word):
    """Every prefix and suffix value of ``word`` and its values on blocks of 4."""
    blocks = parse_fixed(word.shape[0], 4)
    return (prefix_log_probs(model, word), suffix_log_probs(model, word),
            block_log_probs(model, word, blocks.starts, blocks.ends))


def test_an_iid_law_evaluates_as_the_chain_whose_rows_are_all_its_law():
    p = np.array([0.2, 0.3, 0.5])
    word = sample_trajectory(IIDModel(p), N, seed=7).symbols
    chain = MarkovModel(transition=[p, p, p], initial=p)
    for iid, markov in zip(_values(IIDModel(p), word), _values(chain, word)):
        assert np.array_equal(iid, markov)


@pytest.mark.parametrize("weight", [0.5, 0.25])
@pytest.mark.parametrize("name", ["m1", "h1"])
def test_a_mixture_of_a_model_with_itself_moves_its_values_by_rounding_only(name, weight, request):
    # The mixture returns logaddexp(a, b) = max(a, b) + log1p(exp(-|a - b|)) for
    # a = fl(log w + L) and b = fl(log(1 - w) + L), L the model's value; exactly, it is L.
    # With u half an ulp of |L| + 2 (|log w| and |log(1 - w)| are under 2): a and b are each
    # off by at most u, so max(a, b) by u and a - b by 3u with its own rounding; the log1p
    # term has slope under 1 and rounds within u; the final sum adds u.  So the value moves
    # by at most 6u, 3 ulps of |L| + 2; the bound allows 4, and 1 ulp of |L| is seen.
    model = request.getfixturevalue(name)
    word = sample_trajectory(model, N, seed=7).symbols
    mixture = MixtureModel(weight, model, model)
    for mixed, value in zip(_values(mixture, word), _values(model, word)):
        assert np.all(np.abs(mixed - value) <= 4 * np.spacing(np.abs(value) + 2))
