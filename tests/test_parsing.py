import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parsentropy import parsing
from parsentropy import (
    HiddenMarkovModel,
    IIDModel,
    MarkovModel,
    OutOfSupportError,
    OverlapViolationError,
    Parsing,
    ParserSpec,
    PerturbedParsing,
    PreconditionError,
    Trajectory,
    TrimTooLargeError,
    WindowEmptyError,
    apply_perturbation_plan,
    entropy_rate,
    log_cylinder_prob,
    make_parsing,
    parse_adversarial,
    parse_counterexample_v,
    parse_counterexample_w,
    parse_fixed,
    parse_growing,
    parse_lz78,
    parse_random_sublinear,
    perturb_subblocks,
    perturb_superblocks,
    reference_model,
    sample_trajectory,
    validate_parsing,
    validate_perturbed,
)

LN2 = math.log(2.0)


def _traj(symbols) -> Trajectory:
    return Trajectory(symbols=np.asarray(symbols, dtype=np.int64), seed=0, model_id="-")


# ---------------------------------------------------------------------------
# Deterministic generators
# ---------------------------------------------------------------------------


def test_parse_fixed_with_remainder():
    p = parse_fixed(8, 3)
    assert p.boundaries.tolist() == [3, 6, 8]
    assert p.lengths.tolist() == [3, 3, 2]


def test_parse_fixed_exact_multiple():
    p = parse_fixed(12, 4)
    assert p.c == 3 and set(p.lengths.tolist()) == {4}


def test_parse_fixed_linear_count():
    p = parse_fixed(10**6, 4)
    assert abs(p.c / 10**6 - 0.25) < 1e-5


def test_parse_growing_sqrt():
    p = parse_growing(100, "sqrt")
    assert p.c == 10 and p.c / 100 == pytest.approx(0.1)
    p = parse_growing(10**6, "sqrt")
    assert p.c == 1000 and p.c / 10**6 == pytest.approx(1e-3)


def test_parse_growing_log2():
    p = parse_growing(1024, "log2")
    assert p.c == 103
    assert int(p.boundaries[-1]) == 1024


def test_parse_lz78_hand_trace():
    traj = _traj([1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0])
    p = parse_lz78(traj, 13)
    assert p.c == 7
    phrases = [tuple(traj.symbols[s:e].tolist()) for s, e in zip(p.starts, p.ends)]
    assert phrases == [(1,), (0,), (1, 1), (0, 1), (0, 1, 0), (0, 0), (1, 0)]


def test_parse_lz78_repeated_final_phrase():
    p = parse_lz78(_traj([0, 0, 0, 0]), 4)
    assert p.boundaries.tolist() == [1, 3, 4]


def test_parse_lz78_phrases_distinct_except_last(m1):
    traj = sample_trajectory(m1, 20_000, seed=3)
    p = parse_lz78(traj, 20_000)
    phrases = [tuple(traj.symbols[s:e].tolist()) for s, e in zip(p.starts, p.ends)]
    assert len(set(phrases[:-1])) == len(phrases) - 1


def test_parse_lz78_sublinear_on_uniform(iid2):
    traj = sample_trajectory(iid2, 10**6, seed=5)
    p = parse_lz78(traj, 10**6)
    assert p.c <= 10**6
    assert p.c / 10**6 < 0.08


def _lz78_trie_walk(word) -> list:
    """LZ78 boundaries by a dict trie, one step per symbol: the reference for parse_lz78."""
    children, bounds, node = {}, [], -1
    for pos, sym in enumerate(word):
        nxt = children.get((node, sym))
        if nxt is None:
            children[node, sym] = len(children)
            bounds.append(pos + 1)
            node = -1
        else:
            node = nxt
    if node != -1:   # the final phrase repeats an earlier one
        bounds.append(len(word))
    return bounds


# 1-3 symbols, and symbols above 255 and above 65535: items of 1, 2 and 4 bytes
LZ78_ALPHABETS = [(0,), (0, 1), (2, 0, 1), (7, 255, 300), (0, 65535, 70_000)]


@settings(max_examples=150, deadline=None)
@given(word=st.sampled_from(LZ78_ALPHABETS).flatmap(
    lambda a: st.lists(st.sampled_from(a), min_size=1, max_size=80)))
def test_parse_lz78_matches_trie_walk_at_every_length(word):
    # every N: prefixes ending on a phrase boundary and inside a repeated phrase
    traj = _traj(word)
    full = parse_lz78(traj, len(word)).boundaries.tolist()
    for n in range(1, len(word) + 1):
        expected = _lz78_trie_walk(word[:n])
        assert parse_lz78(traj, n).boundaries.tolist() == expected
        assert expected == [b for b in full if b < n] + [n]   # LZ78 is online


@pytest.mark.parametrize("word,repeats", [
    ([1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0], False),
    ([0, 0, 0, 0, 0, 0], False),
    ([0, 0, 0, 0], True),
    ([300, 300, 300, 300], True),
    ([70_000, 300, 70_000, 70_000, 300, 300], False),
    ([70_000, 300, 70_000], True),
])
def test_parse_lz78_final_phrase_new_or_repeated(word, repeats):
    p = parse_lz78(_traj(word), len(word))
    phrases = [tuple(word[s:e]) for s, e in zip(p.starts, p.ends)]
    assert p.boundaries.tolist() == _lz78_trie_walk(word)
    assert (phrases[-1] in phrases[:-1]) == repeats


def test_parse_random_sublinear_edges():
    assert parse_random_sublinear(10, 1, seed=0).boundaries.tolist() == [10]
    assert parse_random_sublinear(10, 10, seed=0).c == 10
    p = parse_random_sublinear(1000, 31, seed=5)
    q = parse_random_sublinear(1000, 31, seed=5)
    assert p.c == 31
    assert p.to_text() == q.to_text()


# ---------------------------------------------------------------------------
# Adversarial parsing
# ---------------------------------------------------------------------------


def test_adversarial_iid_ties_take_first_indices(iid2):
    traj = sample_trajectory(iid2, 50, seed=1)
    p = parse_adversarial(iid2, traj, 50, 5)
    assert p.boundaries.tolist() == [1, 2, 3, 4, 50]


def test_adversarial_markov_picks_top_local_penalties(m1):
    # first-order locality: the penalty of a cut depends only on the adjacent
    # pair, so greedy must select exactly the top budget-1 positions ranked by
    # (penalty desc, index asc)
    traj = sample_trajectory(m1, 400, seed=9)
    budget = 17
    p = parse_adversarial(m1, traj, 400, budget)
    x = traj.symbols
    pen = np.empty(399)
    for t in range(1, 400):
        a, b = int(x[t - 1]), int(x[t])
        pen[t - 1] = round(abs(math.log(float(m1.initial[b])) -
                               math.log(float(m1.transition[a, b]))), 9)
    order = sorted(range(1, 400), key=lambda t: (-pen[t - 1], t))
    expected = sorted(order[:budget - 1])
    assert p.boundaries[:-1].tolist() == expected


def test_adversarial_is_deterministic(h1):
    traj = sample_trajectory(h1, 300, seed=2)
    a = parse_adversarial(h1, traj, 300, 12)
    b = parse_adversarial(h1, traj, 300, 12)
    assert a.to_text() == b.to_text()


def _assert_stepwise_maximal(model, traj, N, budget):
    # replay contract: every placement beats all positions that were
    # available at that step (penalties recomputed block by block from
    # log_cylinder_prob at the parser's 1e-9 quantization, ties to the
    # smallest index)
    x = traj.symbols[:N]

    def penalty(s, t, e):
        return round(abs(log_cylinder_prob(model, x[s:t]) + log_cylinder_prob(model, x[t:e])
                         - log_cylinder_prob(model, x[s:e])), 9)

    chosen = parse_adversarial(model, traj, N, budget).boundaries[:-1].tolist()
    assert len(chosen) == budget - 1
    blocks = [(0, N)]
    remaining = list(chosen)
    # greedy places boundaries in order of decreasing penalty
    for _ in range(len(chosen)):
        candidates = [(penalty(s, t, e), -t) for s, e in blocks for t in range(s + 1, e)]
        t_star = -max(candidates)[1]
        assert t_star in remaining
        remaining.remove(t_star)
        s, e = next((s, e) for s, e in blocks if s < t_star < e)
        blocks.remove((s, e))
        blocks += [(s, t_star), (t_star, e)]
    assert not remaining


def test_adversarial_greedy_penalties_are_stepwise_maximal(m1):
    _assert_stepwise_maximal(m1, sample_trajectory(m1, 40, seed=4), 40, 5)


# the first reducible model of test_blocked_scans: the hidden state never moves
REDUCIBLE_HMM = HiddenMarkovModel([[1, 0], [0, 1]], [.5, .5], [[.5, .5, 0], [1e-3, 0, .999]])


@pytest.mark.parametrize("name", ["h1", "reducible", "mixture_m1_uniform"])
@pytest.mark.parametrize("seed", [4, 11])
def test_adversarial_heap_path_is_stepwise_maximal(name, seed):
    model = REDUCIBLE_HMM if name == "reducible" else reference_model(name)
    _assert_stepwise_maximal(model, sample_trajectory(model, 40, seed=seed), 40, 8)


def test_adversarial_fair_coin_cuts_first_indices_at_1e6(iid2):
    traj = sample_trajectory(iid2, 10**6, seed=3)
    p = parse_adversarial(iid2, traj, 10**6, 1000)
    assert p.boundaries.tolist() == list(range(1, 1000)) + [10**6]


def _exact_top_k(model, x, k):
    """Top-k cuts of a Markov word by (penalty desc, index asc), from a 2x2 table in Python floats."""
    table = {(a, b): round(abs(math.log(float(model.transition[a, b]))
                               - math.log(float(model.initial[b]))), 9)
             for a in range(2) for b in range(2)}
    pen = np.array([table[a, b] for a, b in zip(x[:-1].tolist(), x[1:].tolist())])
    cuts = []
    for value in sorted(set(table.values()), reverse=True):   # equal values: increasing index
        cuts += (np.flatnonzero(pen == value) + 1)[:k - len(cuts)].tolist()
    return sorted(cuts)


@pytest.mark.parametrize("seed", [1, 7])
def test_adversarial_markov_at_1e6_is_the_exact_top_k(m1, seed):
    n, budget = 10**6, 1000
    traj = sample_trajectory(m1, n, seed=seed)
    start = time.perf_counter()
    p = parse_adversarial(m1, traj, n, budget)
    elapsed = time.perf_counter() - start
    assert p.boundaries[:-1].tolist() == _exact_top_k(m1, traj.symbols, budget - 1)
    assert elapsed < 5.0   # the greedy heap took 5.5 s (seed 7) and 78.8 s (seed 1)


def _count_scans(monkeypatch):
    calls = []
    for name in ("prefix_log_probs", "suffix_log_probs"):
        def counted(model, symbols, _scan=getattr(parsing, name)):
            calls.append(len(symbols))
            return _scan(model, symbols)
        monkeypatch.setattr(parsing, name, counted)
    return calls


def test_adversarial_scans_at_most_once_per_child(monkeypatch, m1, h1):
    calls = _count_scans(monkeypatch)
    budget = 40
    p = parse_adversarial(h1, sample_trajectory(h1, 3_000, seed=5), 3_000, budget)
    assert p.c == budget
    assert 2 < len(calls) <= 2 + 2 * (budget - 1)
    calls.clear()
    assert parse_adversarial(m1, sample_trajectory(m1, 3_000, seed=5), 3_000, budget).c == budget
    assert calls == []


@pytest.mark.parametrize("model,word", [
    (MarkovModel([[.5, .5], [0, 1]], [0, 1]), [1, 0, 1, 1, 1, 0, 1]),
    (IIDModel([1.0, 0.0]), [0, 0, 1, 0]),
    (HiddenMarkovModel([[1.0]], [1.0], [[1.0, 0.0]]), [0, 1, 0, 0]),
    (REDUCIBLE_HMM, [2, 2, 1, 2]),
])
def test_adversarial_rejects_a_word_of_probability_zero(model, word):
    with pytest.raises(OutOfSupportError, match="probability 0"):
        parse_adversarial(model, _traj(word), len(word), 3)


# ---------------------------------------------------------------------------
# Two-limit constructions
# ---------------------------------------------------------------------------


def test_counterexample_v_uniform_ties_pick_window_start(iid2):
    for n in (100, 1001, 4000):
        traj = sample_trajectory(iid2, n, seed=3)
        p = parse_counterexample_v(iid2, traj, n, 4, LN2, 0.1)
        # all tail deviations vanish for the fair coin, so k = ceil(0.4 N)
        k = math.ceil(0.4 * n)
        assert int(p.boundaries[-2]) == k - 1 or k == 1
        assert validate_parsing(p, n).passed


def test_counterexample_v_block_structure(h1):
    n, K = 9_999, 4
    traj = sample_trajectory(h1, n, seed=11)
    h_mid = entropy_rate(h1).mid
    p = parse_counterexample_v(h1, traj, n, K, h_mid, 0.05)
    lengths = p.lengths
    # short blocks tile the head, a single long tail closes the parsing
    assert (lengths[:-2] == K // 2).all()
    assert lengths[-1] >= n // 2
    assert n * (1 - 2 * 0.05) / K - 1 <= p.c <= n / K + 1


def test_counterexample_v_argmin_contract(h1):
    n, K, eps = 2_001, 4, 0.05
    traj = sample_trajectory(h1, n, seed=7)
    h_mid = entropy_rate(h1).mid
    p = parse_counterexample_v(h1, traj, n, K, h_mid, eps)
    k = int(p.boundaries[-2]) + 1

    def tail_dev(kk):
        word = traj.symbols[kk - 1:n]
        return abs(-log_cylinder_prob(h1, word) / (n - kk + 1) - h_mid)

    lo, hi = math.ceil((0.5 - eps) * n), n // 2
    assert lo <= k <= hi
    assert tail_dev(k) <= tail_dev(lo) + 1e-12
    assert tail_dev(k) <= tail_dev(hi) + 1e-12


def test_counterexample_v_window_empty():
    traj = _traj([0, 1] * 4)
    from parsentropy import reference_model

    with pytest.raises(WindowEmptyError):
        parse_counterexample_v(reference_model("m1"), traj, 6, 4, 0.5, 0.05)


def test_counterexample_w_parity_dispatch(h1):
    traj = sample_trajectory(h1, 1_001, seed=13)
    h_mid = entropy_rate(h1).mid
    even = parse_counterexample_w(h1, traj, 1_000, 4, h_mid, 0.1)
    assert even.to_text() == parse_fixed(1_000, 4).to_text()
    odd = parse_counterexample_w(h1, traj, 1_001, 4, h_mid, 0.1)
    direct = parse_counterexample_v(h1, traj, 1_001, 4, h_mid, 0.1)
    assert odd.to_text() == direct.to_text()


@pytest.mark.parametrize("N", [100, 101])
@pytest.mark.parametrize("K,epsilon,where", [(3, 0.05, "K"), (4, 0.5, "epsilon")])
def test_counterexample_w_checks_k_and_epsilon_at_both_parities(h1, N, K, epsilon, where):
    traj = sample_trajectory(h1, 101, seed=13)
    with pytest.raises(PreconditionError, match=f"^{where}: expected "):
        parse_counterexample_w(h1, traj, N, K, 0.5, epsilon)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


def test_perturb_subblocks_identity():
    p = parse_fixed(100, 10)
    pert = perturb_subblocks(p, np.zeros((p.c, 2), dtype=int))
    assert pert.total_length == 100
    assert pert.modification == 0
    assert validate_perturbed(pert).passed


def test_perturb_subblocks_trim_one_per_block():
    p = parse_growing(10_000, "sqrt")
    plan = np.zeros((p.c, 2), dtype=int)
    plan[:, 1] = 1
    pert = perturb_subblocks(p, plan)
    assert pert.modification == p.c == 100
    assert pert.total_length == 10_000 - 100
    assert validate_perturbed(pert).passed


def test_perturb_subblocks_rejects_full_trim():
    p = parse_fixed(20, 5)
    plan = np.zeros((p.c, 2), dtype=int)
    plan[0] = (2, 3)  # removes the whole first block
    with pytest.raises(TrimTooLargeError):
        perturb_subblocks(p, plan)


def test_perturb_superblocks_identity_and_extension():
    p = parse_fixed(100, 10)
    ident = perturb_superblocks(p, np.zeros((p.c, 2), dtype=int))
    assert ident.modification == 0 and ident.total_length == 100
    plan = np.zeros((p.c, 2), dtype=int)
    plan[:-1, 1] = 1
    pert = perturb_superblocks(p, plan)
    assert pert.modification == 9
    assert pert.total_length == 109
    assert validate_perturbed(pert).passed


def test_perturb_superblocks_rejects_overreach():
    p = parse_fixed(100, 10)
    plan = np.zeros((p.c, 2), dtype=int)
    plan[0, 1] = 11  # past the right neighbor
    with pytest.raises(OverlapViolationError):
        perturb_superblocks(p, plan)


def test_apply_perturbation_plan_names():
    p = parse_growing(10_000, "sqrt")
    assert apply_perturbation_plan(p, "trim1").modification == p.c
    assert apply_perturbation_plan(p, "extend1").modification == p.c - 1
    half = apply_perturbation_plan(p, "trim_half")
    assert half.modification == int(sum(l // 2 for l in p.lengths))
    with pytest.raises(ValueError):
        apply_perturbation_plan(p, "nonsense")


# ---------------------------------------------------------------------------
# Validation and serialization
# ---------------------------------------------------------------------------


def test_validate_parsing_examples():
    assert validate_parsing(Parsing(boundaries=[3, 6, 8]), 8).passed
    assert not validate_parsing(Parsing(boundaries=[3, 3, 8]), 8).passed
    assert not validate_parsing(Parsing(boundaries=[3, 6]), 8).passed


# One hand-built bad input per failure message; the constructors do not check.
@pytest.mark.parametrize("boundaries,n,message", [
    ([], 3, "boundary list is empty"),
    ([0, 3], 3, "first boundary must be >= 1"),
    ([2, 2, 3], 3, "boundaries must be strictly increasing"),
    ([1, 2], 3, "blocks cover 1..2 but N = 3"),
    ([1, 2, 3], 2, "more blocks than symbols"),
], ids=["empty", "first-below-1", "not-increasing", "short", "more-blocks"])
def test_validate_parsing_names_each_failure(boundaries, n, message):
    report = validate_parsing(Parsing(boundaries=np.array(boundaries, dtype=np.int64)), n)
    assert not report.passed and message in report.failures


@pytest.mark.parametrize("kind,starts,lengths,message", [
    ("sub", [0], [2], "perturbation must keep one interval per original block"),
    ("sub", [0, 2, 4], [2, 0, 2], "every interval must keep at least one symbol"),
    ("sub", [0, 2, 4], [2, 2, 3], "intervals must stay inside the parsed prefix"),
    ("sub", [0, 1, 4], [2, 2, 2], "a sub-block leaves its origin block"),
    ("super", [0, 2, 1], [2, 2, 5], "a super-block reaches beyond the neighboring blocks"),
    ("super", [0, 3, 4], [2, 1, 2], "a super-block must contain its origin block"),
], ids=["block-count", "empty-interval", "outside", "sub-leaves", "super-beyond",
        "super-inside"])
def test_validate_perturbed_names_each_failure(kind, starts, lengths, message):
    origin = Parsing(boundaries=[2, 4, 6])   # blocks [0, 2), [2, 4), [4, 6)
    perturbed = PerturbedParsing(starts=starts, lengths=lengths, origin=origin, modification=0,
                                 kind=kind)
    report = validate_perturbed(perturbed)
    assert not report.passed and message in report.failures


def test_counterexample_rules_let_numpy_scalars_through(h1):
    # K and epsilon have one rule each, shared with the config, that numpy scalars meet
    traj = sample_trajectory(h1, 400, seed=3)
    plain = parse_counterexample_v(h1, traj, 399, 4, 0.5, 0.05)
    numpy = parse_counterexample_v(h1, traj, 399, np.int64(4), 0.5, np.float64(0.05))
    assert np.array_equal(plain.boundaries, numpy.boundaries)
    assert parse_counterexample_v(h1, traj, 399, np.int32(4), 0.5, np.float32(0.05)).N == 399
    for K, epsilon, where in [(3, 0.05, "K"), (True, 0.05, "K"), (4.0, 0.05, "K"),
                              (4, 0.25, "epsilon"), (4, True, "epsilon"), (4, "x", "epsilon")]:
        with pytest.raises(PreconditionError, match=f"^{where}: expected "):
            parse_counterexample_v(h1, traj, 399, K, 0.5, epsilon)


@pytest.mark.parametrize("family,params", [
    ("fixed", {"K": 7}),
    ("growing", {"schedule": "sqrt"}),
    ("growing", {"schedule": "log2"}),
    ("lz78", {}),
    ("random_sublinear", {"budget": "sqrt", "seed": 4}),
    ("adversarial", {"budget": 25}),
    ("fixed", {"K": 4}),   # an even K; in this place, the ids of the cases after it stay
    ("counterexample_v", {"K": 4, "epsilon": 0.05}),
    ("counterexample_w", {"K": 4, "epsilon": 0.05}),
])
def test_every_generator_output_validates(m1, family, params):
    spec = ParserSpec(family, params)
    traj = sample_trajectory(m1, 3_001, seed=21)
    for n in (1_000, 2_001, 3_001):
        parsing = make_parsing(spec, n, model=m1, traj=traj, h_ref=entropy_rate(m1).mid)
        assert validate_parsing(parsing, n).passed


def test_parser_spec_validation_errors():
    with pytest.raises(ValueError):
        ParserSpec("unknown_family", {})
    with pytest.raises(ValueError):
        ParserSpec("counterexample_v", {"K": 3, "epsilon": 0.05})
    with pytest.raises(ValueError):
        ParserSpec("growing", {"schedule": "cuberoot"})
    with pytest.raises(ValueError):
        ParserSpec("fixed", {"K": 4, "extra": 1})
    with pytest.raises(ValueError):
        ParserSpec("random_sublinear", {"budget": 0, "seed": 1})


@pytest.mark.parametrize("family,params,key", [
    ("fixed", {"K": True}, "K"),
    ("adversarial", {"budget": True}, "budget"),
    ("random_sublinear", {"budget": 4, "seed": "x"}, "seed"),
    ("random_sublinear", {"budget": 4, "seed": -1}, "seed"),
    ("counterexample_v", {"K": 4, "epsilon": "x"}, "epsilon"),
    ("counterexample_w", {"K": 4, "epsilon": float("nan")}, "epsilon"),
    ("counterexample_u", {"K": 4}, "family"),
])
def test_parser_spec_types_each_parameter(family, params, key):
    with pytest.raises(ValueError, match=f"^{key}: expected "):
        ParserSpec(family, params)


def test_serialization_roundtrip_and_bytes():
    p = parse_fixed(17, 5)
    text = p.to_text()
    assert text == "N 17\nc 4\n5 10 15 17\n"
    q = Parsing.from_text(text)
    assert q.to_text() == text
    with pytest.raises(ValueError):
        Parsing.from_text("N 17\nc 3\n5 10 15 17\n")


def test_generators_are_byte_deterministic(m1):
    traj = sample_trajectory(m1, 2_000, seed=8)
    for make in (
        lambda: parse_lz78(traj, 2_000),
        lambda: parse_adversarial(m1, traj, 2_000, 40),
        lambda: parse_random_sublinear(2_000, 44, seed=9),
    ):
        assert make().to_text() == make().to_text()


@settings(max_examples=40, deadline=None)
@given(bounds=st.lists(st.integers(1, 200), min_size=1, max_size=30, unique=True))
def test_validate_parsing_accepts_exactly_sorted_coverings(bounds):
    arr = sorted(bounds)
    parsing = Parsing(boundaries=arr)
    assert validate_parsing(parsing, arr[-1]).passed
    assert not validate_parsing(parsing, arr[-1] + 1).passed
