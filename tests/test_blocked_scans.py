"""Blocked scans: sampled bytes pinned, and the hidden-Markov kernel on long words.

The sampler digests were taken from the sequential inverse-CDF walk that the
blocked walk replaced; the blocked walk must reproduce them to the bit, and
the one-search inverse-CDF table must give every row's per-row search.

The kernel checks run words of 1-3000 symbols, long enough to span many
chunks, against a sequential log-domain forward (and backward) recursion
written here, independent of the kernel's scaling and chunking: prefix,
suffix and block values agree to 1e-12 relative (absolute near 0), and are
-inf exactly where the reference is -inf.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from parsentropy import (
    HiddenMarkovModel,
    MarkovModel,
    PreconditionError,
    block_log_probs,
    prefix_log_probs,
    reference_model,
    sample_trajectory,
    stationary_distribution,
    suffix_log_probs,
    validate_model,
)
from parsentropy.measures import _chunk_len, _inverse_cdf, _walk_chain

TOL = 1e-12

# ---------------------------------------------------------------------------
# Sampler bit-identity
# ---------------------------------------------------------------------------


# 16 symbols: the rows are rotations of 2^i / (2^16 - 1), so the matrix is doubly
# stochastic and its stationary law exactly uniform.  Its 255 distinct edges
# crowd up to 10 into one guide cell, and the 15 of the initial law lie on cell
# boundaries.
_CHAIN16 = MarkovModel(transition=[np.roll(2.0 ** np.arange(16) / 65535, i) for i in range(16)],
                       initial=np.full(16, 1 / 16))


def _sampling_models():
    return {
        "m1": reference_model("m1"),
        "h1": reference_model("h1"),
        "mixture_m1_uniform": reference_model("mixture_m1_uniform"),
        "periodic3": MarkovModel(transition=[[0, 1, 0], [.5, 0, .5], [0, 1, 0]],
                                 initial=[.25, .5, .25]),
        # a row summing to 1 - 1e-13: a uniform above it clamps to the last symbol
        "deficit": MarkovModel(transition=[[0.5, 0.5 - 1e-13], [0.5, 0.5]], initial=[0.5, 0.5]),
        "chain16": _CHAIN16,
    }


# sha256 of sample_trajectory(model, n, seed=3).symbols.tobytes()
SAMPLE_DIGESTS = {
    ("m1", 1): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("m1", 2): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ("m1", 1001): "03834abe18f5a09e46756f74ed55078ac0255181bd465e17287d085c2edd73ba",
    ("m1", 100000): "fcccfbf62fc403d6deded50073fae3b83c2a80703c3b18efd7edd0b96e99fa60",
    ("h1", 1): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("h1", 2): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ("h1", 1001): "04c35c4708bfa8eafb26e636ef992143c12e29a9ef15ad9ba58125ccea8b90f5",
    ("h1", 100000): "601553df875c9ed6233dbd9eda4c2bb8b87a9f087d9bd692337d44f075f0f917",
    ("mixture_m1_uniform", 1): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("mixture_m1_uniform", 2): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ("mixture_m1_uniform", 1001): "b5e421ded6f133b5b55d6b2526251e8e86225ca1c2b714224733b4ce90c25c82",
    ("mixture_m1_uniform", 100000): "67e3199499d369015cbff290cff6885c2e2d8ec503d1ec3f481083265f3f28e9",
    ("periodic3", 1): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("periodic3", 2): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    ("periodic3", 1001): "bc4148f3682544baa7d91533aa3830609e164fa6ee064c228b521cf380538716",
    ("periodic3", 100000): "6988ae562f0909d5503aa5173975e4058af5af1d439dd231fc25030f33d134c9",
    ("deficit", 1): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("deficit", 2): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    ("deficit", 1001): "f6c0a018508a194c89304ce26935d6a1830b62493f41225d7b0ab300bcad746d",
    ("deficit", 100000): "8a355d48bb4113648a7d1223ae34f9189fd982450497649161afcd776fbbb1ec",
    ("chain16", 100000): "a754f2b84af80dddbec2266d92feb31974afef8ad018b106c86e739a1c9afc41",
}


@pytest.mark.parametrize("name,n", sorted(SAMPLE_DIGESTS))
def test_sampled_bytes_are_pinned(name, n):
    traj = sample_trajectory(_sampling_models()[name], n, seed=3)
    assert hashlib.sha256(traj.symbols.tobytes()).hexdigest() == SAMPLE_DIGESTS[name, n]


class _ConstantUniforms:
    """Stands in for a numpy Generator whose uniforms all equal ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, n=None):
        return np.full(n, self.u)


def test_emission_draw_stays_in_the_alphabet():
    # the emission row sums to 1 - 5e-13, inside the validation tolerance;
    # a uniform above the row total draws the last symbol, not symbol 2
    model = HiddenMarkovModel([[1.0]], [1.0], [[0.5, 0.5 - 5e-13]])
    assert validate_model(model).passed
    for u, symbol in ((1 - 1e-13, 1), (0.5, 1), (0.5 - 1e-12, 0)):
        symbols, _ = model._sample(5, _ConstantUniforms(u))
        assert symbols.tolist() == [symbol] * 5


def _sequential_walk(initial, transition, u):
    rows = np.cumsum(np.vstack((transition, initial)), axis=1).tolist()
    path, state = [], -1
    for uk in u.tolist():
        state = next((i for i, c in enumerate(rows[state]) if uk < c), len(rows[state]) - 1)
        path.append(state)
    return path


def test_blocked_walk_of_sixteen_symbols_matches_sequential_walk():
    u = np.random.default_rng(16).random(4097)
    walk = _walk_chain(_CHAIN16.initial, _CHAIN16.transition, u)
    assert walk.dtype == np.int64
    assert walk.tolist() == _sequential_walk(_CHAIN16.initial, _CHAIN16.transition, u)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 1000, 4097])
def test_blocked_walk_matches_sequential_walk_with_clamps(n):
    # rows summing to 0.6 make the clamp to the last state frequent
    rng = np.random.default_rng(n)
    transition = np.array([[0.2, 0.0, 0.4], [0.0, 0.6, 0.0], [0.3, 0.3, 0.0]])
    initial = np.array([0.0, 0.5, 0.1])
    u = rng.random(n)
    assert _walk_chain(initial, transition, u).tolist() == _sequential_walk(initial, transition, u)


def _rows_with_zeros(rng, r, k):
    """r random rows of k entries, about a third of them 0; the rows sum to 1, 0.6, 1 - 1e-13, ..."""
    rows = rng.random((r, k)) * (rng.random((r, k)) > 0.3)
    rows[np.arange(r), rng.integers(k, size=r)] += 0.5        # no row is all zeros
    totals = np.array([1.0, 0.6, 1 - 1e-13])[np.arange(r) % 3]
    return rows * (totals / rows.sum(axis=1))[:, None]


def _uniforms_on_edges(rows, rng, n):
    """n random uniforms, plus each cumulative entry in [0, 1) and its neighbouring floats."""
    cum = np.cumsum(rows, axis=1).ravel()
    near = np.concatenate(([0.0], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)))
    return np.concatenate((near[near < 1.0], rng.random(n)))


def _check_inverse_cdf(rows, u):
    """The table lookup against a per-row search of each cumulative row, capped at its last index.

    ``place`` takes the narrowest integer type that holds the count of distinct edges.
    """
    table, place = _inverse_cdf(rows, u)
    for r, row in enumerate(np.cumsum(rows, axis=1)):
        draws = np.minimum(np.searchsorted(row, u, side="right"), rows.shape[1] - 1)
        assert table[r].take(place).tolist() == draws.tolist()
    edges = np.unique(np.cumsum(rows, axis=1)[:, :-1]).shape[0]
    assert place.dtype.itemsize <= np.min_scalar_type(edges).itemsize


CELL = 2.0 ** -12   # the width of one guide-table cell


def test_inverse_cdf_counts_several_edges_inside_one_cell():
    # three edges strictly inside the cell [1/2, 1/2 + 2^-12), one per row
    inside = np.array([1e-5, 5e-5, 2e-4])
    assert (inside < CELL).all()
    rows = np.stack([0.5 + inside, 0.5 - inside], axis=1)
    u = 0.5 + np.linspace(0.0, CELL, 1001)[:-1]
    near = _uniforms_on_edges(rows, np.random.default_rng(1), 1000)
    _check_inverse_cdf(rows, np.concatenate((near, u)))


def test_inverse_cdf_counts_edges_on_cell_boundaries_and_at_zero():
    # edges at 0.0, 2^-12, 3 * 2^-12, 1/4 and 1/2, each one the start of a cell
    rows = np.array([[0.0, 0.25, 0.75], [CELL, CELL, 1 - 2 * CELL], [0.5, 0.5, 0.0],
                     [3 * CELL, 0.25 - 3 * CELL, 0.75]])
    ends = np.array([0.0, CELL, 3 * CELL, 0.25, 0.5])
    u = np.concatenate((ends, np.nextafter(ends, 1.0), np.nextafter(ends[1:], 0.0),
                        [np.nextafter(1.0, 0.0)], np.arange(4096) * CELL))
    _check_inverse_cdf(rows, np.concatenate((u, np.random.default_rng(2).random(1000))))


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)])
def test_inverse_cdf_at_the_ends_of_the_unit_interval(u):
    rng = np.random.default_rng(3)
    for k in (1, 2, 16):
        _check_inverse_cdf(_rows_with_zeros(rng, k + 1, k), np.full(5, u))


def test_inverse_cdf_of_sixteen_symbols_matches_per_row_search():
    rows = np.vstack((_CHAIN16.transition, _CHAIN16.initial))
    _check_inverse_cdf(rows, _uniforms_on_edges(rows, np.random.default_rng(4), 10**5))


@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("seed", range(5))
def test_inverse_cdf_matches_per_row_search(k, seed):
    rng = np.random.default_rng(seed)
    rows = _rows_with_zeros(rng, k + 1, k)
    _check_inverse_cdf(rows, _uniforms_on_edges(rows, rng, 1000))


def test_inverse_cdf_of_300_symbols_builds_in_well_under_a_second():
    # 301 rows of 300 entries: about 9e4 edges, a 301 x 9e4 table
    rng = np.random.default_rng(300)
    rows = _rows_with_zeros(rng, 301, 300)
    u = _uniforms_on_edges(rows, rng, 2000)
    u = np.concatenate((rng.choice(u[:-2000], 2000, replace=False), u[-2000:]))
    start = time.process_time()
    _inverse_cdf(rows, u)
    assert time.process_time() - start < 1.0
    _check_inverse_cdf(rows, u)


# ---------------------------------------------------------------------------
# Hidden-Markov kernel on long words
# ---------------------------------------------------------------------------


def _logs(a):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(a, dtype=float))


def _ref_forward(model, w):
    """log P(w[:j]) for j = 1..len(w), sequentially in log domain."""
    lq, lb = _logs(model.hidden_transition), _logs(model.emission)
    alpha = _logs(model.hidden_initial) + lb[:, w[0]]
    out = [np.logaddexp.reduce(alpha)]
    for s in w[1:]:
        alpha = np.logaddexp.reduce(alpha[:, None] + lq, axis=0) + lb[:, s]
        out.append(np.logaddexp.reduce(alpha))
    return np.array(out)


def _ref_backward(model, w):
    """log P(w[j:]) for j = 0..len(w)-1, by the backward recursion in log domain."""
    lq, lb, lrho = _logs(model.hidden_transition), _logs(model.emission), _logs(model.hidden_initial)
    beta = lb[:, w[-1]]
    out = [np.logaddexp.reduce(lrho + beta)]
    for s in w[-2::-1]:
        beta = lb[:, s] + np.logaddexp.reduce(lq + beta[None, :], axis=1)
        out.append(np.logaddexp.reduce(lrho + beta))
    return np.array(out[::-1])


def _assert_logs_match(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.array_equal(np.isneginf(got), np.isneginf(ref))
    finite = ~np.isneginf(ref)
    for g, r in zip(got[finite], ref[finite]):
        assert math.isclose(g, r, rel_tol=TOL, abs_tol=TOL), (g, r)


def _stochastic(rng, rows, cols, zero_col=None):
    w = rng.integers(0, 4, size=(rows, cols)).astype(float)
    w[np.arange(rows), rng.integers(0, cols, rows)] += 1.0
    if zero_col is not None:
        w[:, zero_col] = 0.0
        w[w.sum(axis=1) == 0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True)


def _kernel_models():
    """HMMs with zero entries; symbol 2 of the last ones is never emitted."""
    models, rng = [reference_model("h1")], np.random.default_rng(2024)
    while len(models) < 7:
        hidden, zero_col = int(rng.integers(1, 4)), (2 if len(models) > 3 else None)
        q = _stochastic(rng, hidden, hidden)
        try:
            rho = stationary_distribution(q)
        except PreconditionError:
            continue
        models.append(HiddenMarkovModel(q, rho, _stochastic(rng, hidden, 3, zero_col)))
    return models


KERNEL_MODELS = _kernel_models()
LENGTHS = [1, 2, 3, 28, 29, 333, 3000]


def _words(model, n, seed):
    """A sampled word, a uniform word, and copies of a sampled word with a
    symbol of zero probability in the first, a middle and the last chunk."""
    rng = np.random.default_rng(seed)
    sampled = sample_trajectory(model, n, seed).symbols
    words = [sampled, rng.integers(0, model.alphabet_size, n)]
    if model.emission[:, -1].max() == 0.0:
        m = _chunk_len(n)
        for at in {0, min(n - 1, 1 + m // 2), n // 2, n - 1}:
            w = sampled.copy()
            w[at] = model.alphabet_size - 1
            words.append(w)
    return words


@pytest.mark.parametrize("k", range(len(KERNEL_MODELS)))
@pytest.mark.parametrize("n", LENGTHS)
def test_long_word_prefix_and_suffix_match_log_recursions(k, n):
    model = KERNEL_MODELS[k]
    for w in _words(model, n, seed=100 * k + n):
        pre, suf = prefix_log_probs(model, w), suffix_log_probs(model, w)
        assert pre[0] == 0.0 and suf[-1] == 0.0
        _assert_logs_match(pre[1:], _ref_forward(model, w))
        _assert_logs_match(suf[:-1], _ref_backward(model, w))


@pytest.mark.parametrize("k", range(len(KERNEL_MODELS)))
@pytest.mark.parametrize("n", [n for n in LENGTHS if n >= 3])
def test_long_word_blocks_match_log_recursion(k, n):
    model = KERNEL_MODELS[k]
    rng = np.random.default_rng(k * 7 + n)
    half = n // 2 - n // 2 % 2
    pairs = np.arange(0, half, 2)
    # 2-symbol blocks up to about N/2, then one block of the rest ...
    starts = np.concatenate((pairs, [half]))
    ends = np.concatenate((pairs + 2, [n]))
    # ... plus random blocks, overlapping and of any length
    rs = rng.integers(0, n, 20)
    re = np.minimum(n, rs + 1 + rng.integers(0, n, 20))
    starts, ends = np.concatenate((starts, rs)), np.concatenate((ends, re))
    for w in _words(model, n, seed=100 * k + n):
        got = block_log_probs(model, w, starts, ends)
        ref = [_ref_forward(model, w[s:e])[-1] for s, e in zip(starts, ends)]
        _assert_logs_match(got, ref)


def test_rare_symbols_do_not_underflow_a_chunk():
    # each step scales the forward vector by about 1e-10: a chunk of 32
    # steps would underflow without the per-step rescaling
    model = HiddenMarkovModel([[0.9, 0.1], [0.2, 0.8]], [2 / 3, 1 / 3],
                              [[0.5, 0.5 - 1e-10, 1e-10], [0.3, 0.7 - 1e-10, 1e-10]])
    w = np.full(30000, 2)
    w[::7] = 0
    pre, suf = prefix_log_probs(model, w), suffix_log_probs(model, w)
    _assert_logs_match(pre[1:], _ref_forward(model, w))
    _assert_logs_match(suf[:-1], _ref_backward(model, w))
    _assert_logs_match(block_log_probs(model, w, [0, 5], [30000, 29000]),
                       [pre[-1], _ref_forward(model, w[5:29000])[-1]])


def test_many_blocks_span_several_kernel_passes():
    model = KERNEL_MODELS[1]
    w = sample_trajectory(model, 80001, seed=11).symbols
    starts = np.arange(0, 80000, 2)
    lq, lb, lrho = _logs(model.hidden_transition), _logs(model.emission), _logs(model.hidden_initial)
    first = lrho[:, None] + lb[:, w[starts]]
    pair = np.logaddexp.reduce(first[:, None, :] + lq[:, :, None] + lb[:, w[starts + 1]][None], axis=(0, 1))
    _assert_logs_match(block_log_probs(model, w, starts, starts + 2), pair)


# Reducible chains: the hidden state never changes inside a class, so forward
# vectors started from different states drift apart by a factor of 2e-3 (and
# of 2e-30 inside a single chunk) per symbol; each must keep its own scale.
REDUCIBLE = [
    HiddenMarkovModel([[1, 0], [0, 1]], [.5, .5], [[.5, .5, 0], [1e-3, 0, .999]]),
    HiddenMarkovModel([[1, 0], [0, 1]], [.5, .5], [[.5, .5, 0], [1e-30, 0, 1 - 1e-30]]),
    HiddenMarkovModel([[.9, .1, 0], [.2, .8, 0], [0, 0, 1]], [1 / 3, 1 / 6, 1 / 2],
                      [[.5, .5, 0], [.4, .6, 0], [1e-3, 0, .999]]),
]


@pytest.mark.parametrize("k", range(len(REDUCIBLE)))
@pytest.mark.parametrize("n", [301, 3000])
def test_reducible_hmm_keeps_every_start_state(k, n):
    model = REDUCIBLE[k]
    assert validate_model(model).passed
    zeros = np.zeros(n - 1, dtype=np.int64)
    half = n // 2 - n // 2 % 2
    starts = np.concatenate((np.arange(0, half, 2), [half, 0, 1]))
    ends = np.concatenate((np.arange(2, half + 1, 2), [n, n, n - 1]))
    for w in (np.concatenate(([2], zeros)), np.concatenate((zeros, [2])),
              np.concatenate((zeros[:half], [2], zeros[half:]))):
        pre, suf = prefix_log_probs(model, w), suffix_log_probs(model, w)
        _assert_logs_match(pre[1:], _ref_forward(model, w))
        _assert_logs_match(suf[:-1], _ref_backward(model, w))
        _assert_logs_match(block_log_probs(model, w, starts, ends),
                           [_ref_forward(model, w[s:e])[-1] for s, e in zip(starts, ends)])


def _long_double_log_prob(model, w):
    """log P(w) by the scaled forward recursion in long double, one symbol at a time."""
    ld = np.longdouble
    q = [[ld(v) for v in row] for row in model.hidden_transition.tolist()]
    b = [[ld(v) for v in row] for row in model.emission.tolist()]
    states = range(len(q))
    alpha = [ld(r) * b[i][w[0]] for i, r in enumerate(model.hidden_initial.tolist())]
    total = ld(0)
    for t, sym in enumerate(w.tolist()):
        if t:
            alpha = [sum(alpha[i] * q[i][j] for i in states) * b[j][sym] for j in states]
        c = sum(alpha)
        alpha = [a / c for a in alpha]
        total += np.log(c)
    return total


def test_two_limit_blockwise_sum_matches_long_double_recursion():
    # a counterexample_v parsing: 2-symbol blocks, then one tail of 10^5 symbols.
    # A sequential float scan of the tail is off by about 2e-13 relative here.
    model = reference_model("h1")
    n, tail = 200_000, 100_000
    w = sample_trajectory(model, n, seed=7).symbols
    starts = np.append(np.arange(0, tail, 2), tail)
    ends = np.append(np.arange(2, tail + 1, 2), n)
    got = block_log_probs(model, w, starts, ends)
    lq, lb, lrho = _logs(model.hidden_transition), _logs(model.emission), _logs(model.hidden_initial)
    pairs = lrho[:, None, None] + lb[:, None, w[:tail:2]] + lq[:, :, None] + lb[None, :, w[1:tail:2]]
    ref = [*np.logaddexp.reduce(pairs, axis=(0, 1)), float(_long_double_log_prob(model, w[tail:]))]
    assert math.isclose(got[-1], ref[-1], rel_tol=1e-14)
    assert math.isclose(math.fsum(got), math.fsum(ref), rel_tol=1e-14)
