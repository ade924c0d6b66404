"""Parsings of trajectory prefixes: generators, perturbations, validation.

A parsing splits a length-N prefix into contiguous blocks whose boundaries
may depend on the data.  Generators here cover the regimes the experiments
need: linear block counts (fixed K), sublinear schedules (growing blocks,
incremental phrase parsing, random or adversarially placed boundaries), and
the data-dependent two-limit construction used to show that a linear block
count breaks convergence.  Sub-/super-block perturbations realize the
subextensive-modification robustness checks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    OutOfSupportError,
    OverlapViolationError,
    PreconditionError,
    TrimTooLargeError,
    WindowEmptyError,
)
from .measures import (
    _EPSILON,
    _EVEN_K,
    _K,
    _SEED,
    _canonical,
    _frozen_array,
    _integer_in,
    _integers,
    _one_of,
    _ruled,
    ProcessModel,
    Trajectory,
    block_log_probs,
    cut_penalties,
    prefix_log_probs,
    suffix_log_probs,
)


def _positions(values, where: str) -> np.ndarray:
    """``values`` as a frozen int64 array; PreconditionError naming ``where`` unless integers."""
    return _frozen_array(_integers(values, where), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Parsing:
    """Block boundaries 0 < L_1 < ... < L_c = N; block i covers (L_{i-1}, L_i]."""

    boundaries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "boundaries", _positions(self.boundaries, "boundaries"))

    @property
    def N(self) -> int:
        return int(self.boundaries[-1])

    @property
    def c(self) -> int:
        return self.boundaries.shape[0]

    @cached_property
    def starts(self) -> np.ndarray:
        return _frozen_array(np.concatenate(([0], self.boundaries[:-1])), None)

    @property
    def ends(self) -> np.ndarray:
        return self.boundaries

    @cached_property
    def lengths(self) -> np.ndarray:
        return _frozen_array(np.diff(self.boundaries, prepend=0), None)

    def to_text(self) -> str:
        body = " ".join(str(int(v)) for v in self.boundaries)
        return f"N {self.N}\nc {self.c}\n{body}\n"

    @classmethod
    def from_text(cls, text: str) -> "Parsing":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) != 3 or not lines[0].startswith("N ") or not lines[1].startswith("c "):
            raise ValueError("expected three lines: 'N <int>', 'c <int>', boundary list")
        n, c = int(lines[0][2:]), int(lines[1][2:])
        bounds = np.array([int(v) for v in lines[2].split()], dtype=np.int64)
        if bounds.shape[0] != c or (bounds.shape[0] and int(bounds[-1]) != n):
            raise ValueError("boundary list inconsistent with declared N and c")
        return cls(boundaries=bounds)


@dataclass(frozen=True, eq=False)
class PerturbedParsing:
    """Blocks of a parsing after per-block trims or extensions.

    Intervals are half-open [start, start+length) in 0-based symbol indices;
    ``kind`` records which perturbation produced them ("sub" or "super").
    ``modification`` counts every trimmed and added symbol.
    """

    starts: np.ndarray
    lengths: np.ndarray
    origin: Parsing
    modification: int
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "starts", _positions(self.starts, "starts"))
        object.__setattr__(self, "lengths", _positions(self.lengths, "lengths"))

    @cached_property
    def ends(self) -> np.ndarray:
        return _frozen_array(self.starts + self.lengths, None)

    @property
    def N(self) -> int:
        """The origin's prefix length, which normalizes per-symbol sums."""
        return self.origin.N

    @property
    def c(self) -> int:
        return self.starts.shape[0]

    @property
    def total_length(self) -> int:
        return int(self.lengths.sum())


@dataclass(frozen=True)
class ParsingValidation:
    passed: bool
    failures: tuple


def validate_parsing(parsing: Parsing, N: int) -> ParsingValidation:
    """Check monotone boundaries, exact coverage of 1..N, and c <= N."""
    b = parsing.boundaries
    if b.ndim != 1 or b.shape[0] == 0:
        return ParsingValidation(False, ("boundary list is empty",))
    failures = []
    if int(b[0]) < 1:
        failures.append("first boundary must be >= 1")
    if np.any(np.diff(b) <= 0):
        failures.append("boundaries must be strictly increasing")
    if int(b[-1]) != N:
        failures.append(f"blocks cover 1..{int(b[-1])} but N = {N}")
    if b.shape[0] > N:
        failures.append("more blocks than symbols")
    return ParsingValidation(not failures, tuple(failures))


def validate_perturbed(perturbed: PerturbedParsing) -> ParsingValidation:
    """Re-check the containment/neighbor-overlap constraints independently."""
    o = perturbed.origin
    s, e = perturbed.starts, perturbed.ends
    if perturbed.c != o.c:
        return ParsingValidation(False, ("perturbation must keep one interval per original block",))
    failures = []
    if np.any(perturbed.lengths < 1):
        failures.append("every interval must keep at least one symbol")
    if s.min(initial=0) < 0 or e.max(initial=0) > o.N:
        failures.append("intervals must stay inside the parsed prefix")
    os_, oe = o.starts, o.ends
    if perturbed.kind == "sub":
        if np.any(s < os_) or np.any(e > oe):
            failures.append("a sub-block leaves its origin block")
    elif perturbed.kind == "super":
        left_limit = np.concatenate(([0], os_[:-1]))
        right_limit = np.concatenate((oe[1:], [o.N]))
        if np.any(s < left_limit) or np.any(e > right_limit):
            failures.append("a super-block reaches beyond the neighboring blocks")
        if np.any(s > os_) or np.any(e < oe):
            failures.append("a super-block must contain its origin block")
    return ParsingValidation(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def parse_fixed(N: int, K: int) -> Parsing:
    """Blocks of length K; the final block is shorter when K does not divide N."""
    _ruled(N, _K, "N", PreconditionError)
    _ruled(K, _integer_in(1, N), "K", PreconditionError)
    bounds = np.arange(K, N + 1, K, dtype=np.int64)
    if bounds.shape[0] == 0 or bounds[-1] != N:
        bounds = np.concatenate((bounds, [N]))
    return Parsing(boundaries=bounds)


def growing_block_length(N: int, schedule: str) -> int:
    if _ruled(schedule, _SCHEDULE, "schedule", PreconditionError) == "log2":
        return max(1, int(N - 1).bit_length())
    k = math.isqrt(N)
    return k if k * k == N else k + 1


def parse_growing(N: int, schedule: str) -> Parsing:
    """Fixed blocks of N-dependent length (ceil sqrt(N) or ceil log2(N))."""
    _ruled(N, _integer_in(2, math.inf), "N", PreconditionError)
    return parse_fixed(N, growing_block_length(N, schedule))


def parse_lz78(traj: Trajectory, N: int) -> Parsing:
    """Incremental parsing of the prefix into shortest not-yet-seen phrases.

    The final phrase may repeat an earlier one; it is kept as a normal block
    so the blocks cover the prefix exactly.  The phrase count is
    O(N / log N) for any source, hence sublinear.

    The phrase set is prefix-closed, so whether the next l symbols form a
    phrase is monotone in l: each phrase is one symbol past the longest that
    does, found by stepping from the previous phrase's length over the
    prefix's bytes (one fixed-width item per symbol).
    """
    _ruled(N, _integer_in(1, len(traj)), "N", PreconditionError)
    x = traj.symbols[:N]
    x = x.astype(np.promote_types(np.min_scalar_type(x.min()), np.min_scalar_type(x.max())))
    word, end, w = x.tobytes(), x.nbytes, x.itemsize
    phrases = {b""}
    bounds = []
    pos = l = 0   # l: a length in bytes, where the search for the next phrase starts
    while pos < end:
        if pos + l > end:
            l = end - pos
        if word[pos:pos + l] in phrases:
            while pos + l < end and word[pos:pos + l + w] in phrases:
                l += w
        else:
            l -= w
            while word[pos:pos + l] not in phrases:
                l -= w
        if pos + l < end:   # one symbol more: a new phrase (else the rest repeats one)
            l += w
        phrases.add(word[pos:pos + l])
        pos += l
        bounds.append(pos // w)
    return Parsing(boundaries=np.asarray(bounds, dtype=np.int64))


def parse_random_sublinear(N: int, budget: int, seed: int) -> Parsing:
    """Exactly ``budget`` blocks with interior boundaries drawn uniformly."""
    _ruled(N, _K, "N", PreconditionError)
    _ruled(budget, _integer_in(1, N), "budget", PreconditionError)
    rng = np.random.default_rng(seed)
    interior = rng.choice(N - 1, size=budget - 1, replace=False) + 1 if budget > 1 else []
    bounds = np.concatenate((np.sort(np.asarray(interior, dtype=np.int64)), [N]))
    return Parsing(boundaries=bounds)


def _block_split_entry(model: ProcessModel, x: np.ndarray, s: int, e: int,
                       pre: Optional[np.ndarray] = None, suf: Optional[np.ndarray] = None):
    """Best split of block [s, e): (-penalty, global position, s, e, pre, suf), or None.

    ``pre`` and ``suf`` are log P(x[s:u]) and log P(x[u:e]) for u = s..e;
    the one not passed in is scanned.  A child block inherits one of them
    from its parent, so that each child costs one scan.  Penalties are
    quantized to 1e-9 nats so that mathematically equal cuts tie exactly
    and resolve by index instead of by accumulation noise.
    """
    if e - s < 2:
        return None
    if pre is None:
        pre = prefix_log_probs(model, x[s:e])
    if suf is None:
        suf = suffix_log_probs(model, x[s:e])
    penalties = np.round(np.abs(pre[1:-1] + suf[1:-1] - pre[-1]), 9)
    j = int(np.argmax(penalties))  # first maximum: smallest index on ties
    return (-float(penalties[j]), s + 1 + j, s, e, pre, suf)


def _largest(values: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k largest ``values``, ties to the smaller index, in increasing order.

    The set that a stable sort by (-value, index) puts first, in linear
    time: every value above the k-th largest, then the first of those equal
    to it.
    """
    if k == 0:
        return np.empty(0, dtype=np.int64)
    kth = np.partition(values, values.size - k)[values.size - k]
    above = np.flatnonzero(values > kth)
    return np.sort(np.concatenate((above, np.flatnonzero(values == kth)[:k - above.size])))


def _require_support(log_prob: float, N: int) -> None:
    if log_prob == -np.inf:
        raise OutOfSupportError(f"the word x[0:{N}] has probability 0 under the model, "
                                "so its factorization penalties are undefined")


def parse_adversarial(model: ProcessModel, traj: Trajectory, N: int, budget: int) -> Parsing:
    """Greedy boundary placement maximizing the factorization penalty.

    Each step splits some current block at the position with the largest
    |log P(left) + log P(right) - log P(block)|, quantized to 1e-9 nats;
    ties go to the smallest global index.  Where the model's penalty is
    local (i.i.d. and Markov models, ``cut_penalties``), a cut's penalty
    does not depend on its block, so the greedy is one selection of the
    budget - 1 cuts first by (-penalty, index) and needs no scan.
    Otherwise a heap holds each block's best split with the block's prefix
    and suffix scans; the left child of a split keeps the parent's prefix
    values, the right child its suffix values, and each scans the other
    direction only.  Raises
    OutOfSupportError when the word has probability 0 under the model.
    Deterministic in all inputs.
    """
    _ruled(N, _integer_in(1, len(traj)), "N", PreconditionError)
    _ruled(budget, _integer_in(1, N), "budget", PreconditionError)
    x = traj.symbols[:N]
    local = cut_penalties(model, x)
    if local is not None:
        _require_support(block_log_probs(model, x, [0], [N])[0], N)
        cuts = _largest(np.round(np.abs(local), 9), budget - 1) + 1
        return Parsing(boundaries=np.concatenate((cuts, [N])))
    pre = prefix_log_probs(model, x)
    _require_support(pre[-1], N)
    root = _block_split_entry(model, x, 0, N, pre=pre)
    heap = [root] if root is not None else []
    cuts = []
    for _ in range(budget - 1):
        _, t, s, e, pre, suf = heapq.heappop(heap)
        cuts.append(t)
        for child in (_block_split_entry(model, x, s, t, pre=pre[:t - s + 1].copy()),
                      _block_split_entry(model, x, t, e, suf=suf[t - s:].copy())):
            if child is not None:
                heapq.heappush(heap, child)
    bounds = np.concatenate((np.sort(np.asarray(cuts, dtype=np.int64)), [N]))
    return Parsing(boundaries=bounds)


def parse_counterexample_v(model: ProcessModel, traj: Trajectory, N: int, K: int,
                           h_ref: float, epsilon: float) -> Parsing:
    """Short blocks of length K/2 up to a data-chosen index, then one long tail.

    The tail start k is chosen inside the window [ceil((1/2 - eps) N), N/2]
    to minimize the deviation of the tail's per-symbol information content
    from ``h_ref`` (smallest k on ties); any short pre-block sits immediately
    before the tail.  The block count lands in [N(1-2 eps)/K - 1, N/K + 1].
    """
    _ruled(K, _EVEN_K, "K", PreconditionError)
    _ruled(epsilon, _EPSILON, "epsilon", PreconditionError)
    _ruled(N, _integer_in(1, len(traj)), "N", PreconditionError)
    if N < 2 * K:
        raise WindowEmptyError(f"N = {N} too small for tail selection with K = {K}")
    lo = max(1, math.ceil((0.5 - epsilon) * N))
    hi = N // 2
    if lo > hi:
        raise WindowEmptyError(f"empty tail window [{lo}, {hi}] at N = {N}")
    x = traj.symbols[:N]
    ks = np.arange(lo, hi + 1, dtype=np.int64)
    tail_logs = suffix_log_probs(model, x, at=ks - 1)   # log P(x[k - 1:])
    tail_lengths = N - ks + 1
    # quantized so exact ties (e.g. product measures) resolve by smallest k
    deviation = np.round(np.abs(-tail_logs / tail_lengths - h_ref), 12)
    k = int(ks[np.argmin(deviation)])
    half = K // 2
    bounds = np.arange(half, k - 1 + 2 * half, half, dtype=np.int64)   # 2 at least: k > N / 4 >= 1
    bounds[-2:] = k - 1, N                  # the last short block ends at k - 1, then the tail
    return Parsing(boundaries=bounds)


def parse_counterexample_w(model: ProcessModel, traj: Trajectory, N: int, K: int,
                           h_ref: float, epsilon: float) -> Parsing:
    """Alternating construction: fixed-K blocks at even N, tail parsing at odd N."""
    _ruled(K, _EVEN_K, "K", PreconditionError)
    _ruled(epsilon, _EPSILON, "epsilon", PreconditionError)
    if N % 2 == 0:
        return parse_fixed(N, K)
    return parse_counterexample_v(model, traj, N, K, h_ref, epsilon)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


def _as_plan(plan, c: int, name: str) -> np.ndarray:
    arr = _integers(plan, name).astype(np.int64, copy=False)
    _ruled(arr.shape, (lambda shape: shape == (c, 2), f"shape ({c}, 2)"), name, PreconditionError)
    _ruled(int(arr.min()), (lambda low: low >= 0, "non-negative entries"), name, PreconditionError)
    return arr


def perturb_subblocks(parsing: Parsing, trim_plan) -> PerturbedParsing:
    """Shrink each block by (left_trim, right_trim) symbols; blocks must survive."""
    plan = _as_plan(trim_plan, parsing.c, "trim_plan")
    lengths = parsing.lengths
    removed = plan.sum(axis=1)
    if np.any(removed >= lengths):
        i = int(np.argmax(removed - lengths >= 0))
        raise TrimTooLargeError(
            f"block {i} has length {int(lengths[i])} but the plan trims {int(removed[i])}"
        )
    return PerturbedParsing(
        starts=parsing.starts + plan[:, 0],
        lengths=lengths - removed,
        origin=parsing,
        modification=int(plan.sum()),
        kind="sub",
    )


def perturb_superblocks(parsing: Parsing, extend_plan) -> PerturbedParsing:
    """Grow each block by (left_ext, right_ext) symbols into its neighbors.

    Every extended interval must stay inside [1, N] and may reach into the
    immediately neighboring blocks only.
    """
    plan = _as_plan(extend_plan, parsing.c, "extend_plan")
    starts = parsing.starts - plan[:, 0]
    ends = parsing.ends + plan[:, 1]
    if starts.min() < 0 or ends.max() > parsing.N:
        raise OverlapViolationError("an extension leaves the parsed prefix")
    left_limit = np.concatenate(([0], parsing.starts[:-1]))
    right_limit = np.concatenate((parsing.ends[1:], [parsing.N]))
    if np.any(starts < left_limit) or np.any(ends > right_limit):
        i = int(np.argmax((starts < left_limit) | (ends > right_limit)))
        raise OverlapViolationError(f"block {i} extends beyond its neighboring blocks")
    return PerturbedParsing(
        starts=starts,
        lengths=ends - starts,
        origin=parsing,
        modification=int(plan.sum()),
        kind="super",
    )


def trim_plan_last_symbol(parsing: Parsing) -> np.ndarray:
    """Right-trim one symbol from every block that can spare it."""
    plan = np.zeros((parsing.c, 2), dtype=np.int64)
    plan[:, 1] = (parsing.lengths >= 2).astype(np.int64)
    return plan


def trim_plan_half(parsing: Parsing) -> np.ndarray:
    """Right-trim half of every block: deliberately not subextensive."""
    plan = np.zeros((parsing.c, 2), dtype=np.int64)
    plan[:, 1] = parsing.lengths // 2
    return plan


def extend_plan_right_one(parsing: Parsing) -> np.ndarray:
    """Extend every block one symbol into its right neighbor where possible."""
    plan = np.zeros((parsing.c, 2), dtype=np.int64)
    if parsing.c > 1:
        plan[:-1, 1] = np.minimum(1, parsing.lengths[1:])
    return plan


PERTURBATION_PLANS: dict = {   # name: (perturbation, plan builder)
    "trim1": (perturb_subblocks, trim_plan_last_symbol),
    "trim_half": (perturb_subblocks, trim_plan_half),
    "extend1": (perturb_superblocks, extend_plan_right_one),
}
_PLAN = _one_of(tuple(PERTURBATION_PLANS))


def apply_perturbation_plan(parsing: Parsing, plan_name: str) -> PerturbedParsing:
    perturb, builder = PERTURBATION_PLANS[_ruled(plan_name, _PLAN, "plan_name", PreconditionError)]
    return perturb(parsing, builder(parsing))


# ---------------------------------------------------------------------------
# Parser specifications
# ---------------------------------------------------------------------------

_BUDGET = (lambda v: _K[0](v) or v == "sqrt", "a positive integer or 'sqrt'")
_SCHEDULE = (lambda v: v in ("sqrt", "log2"), "'sqrt' or 'log2'")

# Each family's row: its {parameter: rule}; the inputs it reads, which make_parsing
# refuses in this order when missing; and its builder (params, N, **inputs).  A
# builder names parse_<family> at call time, so a rebound generator is the one called.
_PARSERS = {
    "fixed": ({"K": _K}, (), lambda p, N: parse_fixed(N, p["K"])),
    "growing": ({"schedule": _SCHEDULE}, (), lambda p, N: parse_growing(N, p["schedule"])),
    "lz78": ({}, ("traj",), lambda p, N, traj: parse_lz78(traj, N)),
    "random_sublinear": ({"budget": _BUDGET, "seed": _SEED}, (), lambda p, N: (
        parse_random_sublinear(N, resolve_budget(p["budget"], N), seed=int(
            np.random.SeedSequence([p["seed"], N]).generate_state(1)[0])))),
    "adversarial": ({"budget": _BUDGET}, ("traj", "model"), lambda p, N, traj, model: (
        parse_adversarial(model, traj, N, resolve_budget(p["budget"], N)))),
    "counterexample_v": ({"K": _EVEN_K, "epsilon": _EPSILON}, ("traj", "model", "h_ref"),
                         lambda p, N, traj, model, h_ref: parse_counterexample_v(
                             model, traj, N, p["K"], h_ref, p["epsilon"])),
    "counterexample_w": ({"K": _EVEN_K, "epsilon": _EPSILON}, ("traj", "model", "h_ref"),
                         lambda p, N, traj, model, h_ref: parse_counterexample_w(
                             model, traj, N, p["K"], h_ref, p["epsilon"])),
}
PARSER_FAMILIES = tuple(_PARSERS)
_NEEDS = {"traj": "a trajectory", "model": "a model", "h_ref": "a reference rate"}


@dataclass(frozen=True)
class ParserSpec:
    """A named parsing procedure plus its family-specific parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        rules = _PARSERS[_ruled(self.family, _one_of(PARSER_FAMILIES), "family", ValueError)][0]
        if set(self.params) != set(rules):
            raise ValueError(f"family {self.family!r} takes parameters {sorted(rules)}, "
                             f"got {sorted(self.params)}")
        for key, rule in rules.items():
            _ruled(self.params[key], rule, key, ValueError)

    def describe(self) -> str:
        return _canonical(self.params)


def resolve_budget(budget, N: int) -> int:
    if budget == "sqrt":
        return max(1, math.isqrt(N))
    return min(int(budget), N)


def make_parsing(spec: ParserSpec, N: int, model: Optional[ProcessModel] = None,
                 traj: Optional[Trajectory] = None, h_ref: Optional[float] = None) -> Parsing:
    """Instantiate a spec at prefix length N.

    The family's row in ``_PARSERS`` names the inputs it reads, of ``traj``,
    ``model`` and ``h_ref`` (the target rate for tail selection), and builds
    the parsing; a missing input is refused by name.
    """
    _ruled(N, _K, "N", PreconditionError)
    _, reads, build = _PARSERS[spec.family]
    given = {"traj": traj, "model": model, "h_ref": h_ref}
    for name in reads:
        if given[name] is None:
            raise PreconditionError(f"{name}: family {spec.family!r} needs {_NEEDS[name]}")
    return build(spec.params, N, **{name: given[name] for name in reads})
