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
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    OverlapViolationError,
    PreconditionError,
    TrimTooLargeError,
    WindowEmptyError,
)
from .measures import (
    ProcessModel,
    Trajectory,
    entropy_rate,
    prefix_log_probs,
    sample_trajectory,
    suffix_log_probs,
)

PARSER_FAMILIES = (
    "fixed",
    "growing",
    "lz78",
    "random_sublinear",
    "adversarial",
    "counterexample_u",
    "counterexample_v",
    "counterexample_w",
)


@dataclass(frozen=True, eq=False)
class Parsing:
    """Block boundaries 0 < L_1 < ... < L_c = N; block i covers (L_{i-1}, L_i]."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.array(self.boundaries, dtype=np.int64)
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)

    @property
    def N(self) -> int:
        return int(self.boundaries[-1])

    @property
    def c(self) -> int:
        return self.boundaries.shape[0]

    @property
    def starts(self) -> np.ndarray:
        return np.concatenate(([0], self.boundaries[:-1]))

    @property
    def ends(self) -> np.ndarray:
        return self.boundaries

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries, prepend=0)

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
    ``kind`` records which perturbation produced them ("sub", "super", or
    "unsafe" for the unconstrained exploratory mode).  ``modification``
    counts every trimmed and added symbol.
    """

    starts: np.ndarray
    lengths: np.ndarray
    origin: Parsing
    modification: int
    kind: str

    def __post_init__(self):
        s = np.array(self.starts, dtype=np.int64)
        l = np.array(self.lengths, dtype=np.int64)
        s.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "starts", s)
        object.__setattr__(self, "lengths", l)

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.lengths

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
    failures = []
    b = parsing.boundaries
    if b.ndim != 1 or b.shape[0] == 0:
        failures.append("boundary list is empty")
        return ParsingValidation(False, tuple(failures))
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
    failures = []
    o = perturbed.origin
    s, e = perturbed.starts, perturbed.ends
    if perturbed.c != o.c:
        failures.append("perturbation must keep one interval per original block")
        return ParsingValidation(False, tuple(failures))
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
    if not 1 <= K <= N:
        raise PreconditionError(f"need 1 <= K <= N, got K={K}, N={N}")
    bounds = np.arange(K, N + 1, K, dtype=np.int64)
    if bounds.shape[0] == 0 or bounds[-1] != N:
        bounds = np.concatenate((bounds, [N]))
    return Parsing(boundaries=bounds)


def growing_block_length(N: int, schedule: str) -> int:
    if schedule == "sqrt":
        k = math.isqrt(N)
        return k if k * k == N else k + 1
    if schedule == "log2":
        return max(1, (N - 1).bit_length())
    raise ValueError(f"unknown schedule {schedule!r} (expected 'sqrt' or 'log2')")


def parse_growing(N: int, schedule: str) -> Parsing:
    """Fixed blocks of N-dependent length (ceil sqrt(N) or ceil log2(N))."""
    if N < 2:
        raise PreconditionError("N must be >= 2")
    return parse_fixed(N, growing_block_length(N, schedule))


def parse_lz78(traj: Trajectory, N: int) -> Parsing:
    """Incremental parsing of the prefix into shortest not-yet-seen phrases.

    The final phrase may repeat an earlier one; it is kept as a normal block
    so the blocks cover the prefix exactly.  The phrase count is
    O(N / log N) for any source, hence sublinear.
    """
    if not 1 <= N <= len(traj):
        raise PreconditionError(f"need 1 <= N <= trajectory length, got N={N}")
    symbols = traj.symbols[:N].tolist()
    children: dict = {}
    bounds = []
    node = -1  # root
    for pos, sym in enumerate(symbols):
        key = (node, sym)
        nxt = children.get(key)
        if nxt is None:
            children[key] = len(children)
            bounds.append(pos + 1)
            node = -1
        else:
            node = nxt
    if node != -1:  # unfinished phrase at the end of the prefix
        bounds.append(N)
    return Parsing(boundaries=np.asarray(bounds, dtype=np.int64))


def parse_random_sublinear(N: int, budget: int, seed: int) -> Parsing:
    """Exactly ``budget`` blocks with interior boundaries drawn uniformly."""
    if not 1 <= budget <= N:
        raise PreconditionError(f"need 1 <= budget <= N, got budget={budget}, N={N}")
    rng = np.random.default_rng(seed)
    interior = rng.choice(N - 1, size=budget - 1, replace=False) + 1 if budget > 1 else []
    bounds = np.concatenate((np.sort(np.asarray(interior, dtype=np.int64)), [N]))
    return Parsing(boundaries=bounds)


def _block_split_entry(model: ProcessModel, x: np.ndarray, s: int, e: int):
    """Best split of block [s, e): (-penalty, global position, s, e), or None.

    Penalties are quantized to 1e-9 nats so that mathematically equal cuts
    (e.g. every cut of a product measure) tie exactly and resolve by index
    instead of by accumulation noise.
    """
    if e - s < 2:
        return None
    word = x[s:e]
    pre = prefix_log_probs(model, word)
    suf = suffix_log_probs(model, word)
    penalties = np.round(np.abs(pre[1:-1] + suf[1:-1] - pre[-1]), 9)
    j = int(np.argmax(penalties))  # first maximum: smallest index on ties
    return (-float(penalties[j]), s + 1 + j, s, e)


def parse_adversarial(model: ProcessModel, traj: Trajectory, N: int, budget: int) -> Parsing:
    """Greedy boundary placement maximizing the factorization penalty.

    Each step splits some current block at the position with the largest
    |log P(left) + log P(right) - log P(block)|, re-evaluating the affected
    halves after every placement; ties go to the smallest global index.
    Deterministic in all inputs.
    """
    if not 1 <= budget <= N:
        raise PreconditionError(f"need 1 <= budget <= N, got budget={budget}, N={N}")
    if N > len(traj):
        raise PreconditionError("trajectory shorter than requested prefix")
    x = traj.symbols[:N]
    heap = []
    first = _block_split_entry(model, x, 0, N)
    if first is not None:
        heap.append(first)
    cuts = []
    for _ in range(budget - 1):
        neg_pen, t, s, e = heapq.heappop(heap)
        cuts.append(t)
        for child in (_block_split_entry(model, x, s, t), _block_split_entry(model, x, t, e)):
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
    if K < 2 or K % 2 != 0:
        raise PreconditionError("K must be an even integer >= 2")
    if not 0.0 < epsilon < 0.25:
        raise PreconditionError("epsilon must lie in (0, 1/4)")
    if N > len(traj):
        raise PreconditionError("trajectory shorter than requested prefix")
    if N < 2 * K:
        raise WindowEmptyError(f"N = {N} too small for tail selection with K = {K}")
    lo = max(1, math.ceil((0.5 - epsilon) * N))
    hi = N // 2
    if lo > hi:
        raise WindowEmptyError(f"empty tail window [{lo}, {hi}] at N = {N}")
    x = traj.symbols[:N]
    tail_logs = suffix_log_probs(model, x)
    ks = np.arange(lo, hi + 1, dtype=np.int64)
    tail_lengths = N - ks + 1
    # quantized so exact ties (e.g. product measures) resolve by smallest k
    deviation = np.round(np.abs(-tail_logs[ks - 1] / tail_lengths - h_ref), 12)
    k = int(ks[np.argmin(deviation)])
    half = K // 2
    full_pre = (k - 1) // half
    bounds = list(range(half, full_pre * half + 1, half))
    if full_pre * half < k - 1:
        bounds.append(k - 1)
    bounds.append(N)
    return Parsing(boundaries=np.asarray(bounds, dtype=np.int64))


def parse_counterexample_w(model: ProcessModel, traj: Trajectory, N: int, K: int,
                           h_ref: float, epsilon: float) -> Parsing:
    """Alternating construction: fixed-K blocks at even N, tail parsing at odd N."""
    if N % 2 == 0:
        return parse_fixed(N, K)
    return parse_counterexample_v(model, traj, N, K, h_ref, epsilon)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


def _as_plan(plan, c: int) -> np.ndarray:
    arr = np.asarray(plan, dtype=np.int64)
    if arr.shape != (c, 2):
        raise ValueError(f"plan must have shape ({c}, 2)")
    if arr.min() < 0:
        raise ValueError("plan entries must be non-negative")
    return arr


def perturb_subblocks(parsing: Parsing, trim_plan) -> PerturbedParsing:
    """Shrink each block by (left_trim, right_trim) symbols; blocks must survive."""
    plan = _as_plan(trim_plan, parsing.c)
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


def perturb_superblocks(parsing: Parsing, extend_plan, unsafe: bool = False) -> PerturbedParsing:
    """Grow each block by (left_ext, right_ext) symbols into its neighbors.

    Every extended interval must stay inside [1, N]; unless ``unsafe`` is
    set, it may reach into the immediately neighboring blocks only.  The
    unsafe mode exists for exploration and carries no convergence claim.
    """
    plan = _as_plan(extend_plan, parsing.c)
    starts = parsing.starts - plan[:, 0]
    ends = parsing.ends + plan[:, 1]
    if starts.min() < 0 or ends.max() > parsing.N:
        raise OverlapViolationError("an extension leaves the parsed prefix")
    if not unsafe:
        left_limit = np.concatenate(([0], parsing.starts[:-1]))
        right_limit = np.concatenate((parsing.ends[1:], [parsing.N]))
        if np.any(starts < left_limit) or np.any(ends > right_limit):
            i = int(np.argmax((starts < left_limit) | (ends > right_limit)))
            raise OverlapViolationError(
                f"block {i} extends beyond its neighboring blocks"
            )
    return PerturbedParsing(
        starts=starts,
        lengths=ends - starts,
        origin=parsing,
        modification=int(plan.sum()),
        kind="super" if not unsafe else "unsafe",
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


PERTURBATION_PLANS: dict = {
    "trim1": ("sub", trim_plan_last_symbol),
    "trim_half": ("sub", trim_plan_half),
    "extend1": ("super", extend_plan_right_one),
}


def apply_perturbation_plan(parsing: Parsing, plan_name: str) -> PerturbedParsing:
    if plan_name not in PERTURBATION_PLANS:
        raise PreconditionError(f"unknown perturbation plan {plan_name!r}")
    kind, builder = PERTURBATION_PLANS[plan_name]
    plan = builder(parsing)
    if kind == "sub":
        return perturb_subblocks(parsing, plan)
    return perturb_superblocks(parsing, plan)


# ---------------------------------------------------------------------------
# Parser specifications
# ---------------------------------------------------------------------------

_FAMILY_PARAMS = {
    "fixed": {"K"},
    "growing": {"schedule"},
    "lz78": set(),
    "random_sublinear": {"budget", "seed"},
    "adversarial": {"budget"},
    "counterexample_u": {"K"},
    "counterexample_v": {"K", "epsilon"},
    "counterexample_w": {"K", "epsilon"},
}


@dataclass(frozen=True)
class ParserSpec:
    """A named parsing procedure plus its family-specific parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in PARSER_FAMILIES:
            raise ValueError(f"unknown parser family {self.family!r}")
        allowed = _FAMILY_PARAMS[self.family]
        given = set(self.params)
        if given != allowed:
            raise ValueError(
                f"family {self.family!r} takes parameters {sorted(allowed)}, got {sorted(given)}"
            )
        if "K" in self.params:
            k = self.params["K"]
            if not isinstance(k, int) or k < 1:
                raise ValueError("K must be a positive integer")
            if self.family.startswith("counterexample") and k % 2 != 0:
                raise ValueError("counterexample families require even K")
        if "schedule" in self.params and self.params["schedule"] not in ("sqrt", "log2"):
            raise ValueError("schedule must be 'sqrt' or 'log2'")
        if "epsilon" in self.params and not 0.0 < self.params["epsilon"] < 0.25:
            raise ValueError("epsilon must lie in (0, 1/4)")
        if "budget" in self.params:
            b = self.params["budget"]
            if not (b in ("sqrt", "log2") or (isinstance(b, int) and b >= 1)):
                raise ValueError("budget must be 'sqrt', 'log2', or a positive integer")

    @property
    def is_fixed(self) -> bool:
        """Fixed-length blocks of K symbols; ``counterexample_u`` is an alias of ``fixed``."""
        return self.family in ("fixed", "counterexample_u")

    def describe(self) -> str:
        return json.dumps(self.params, sort_keys=True, separators=(",", ":"))


def resolve_budget(budget, N: int) -> int:
    if budget == "sqrt":
        return max(1, math.isqrt(N))
    if budget == "log2":
        return max(1, int(round(N / max(1, (N - 1).bit_length()))))
    return min(int(budget), N)


def make_parsing(spec: ParserSpec, N: int, model: Optional[ProcessModel] = None,
                 traj: Optional[Trajectory] = None, h_ref: Optional[float] = None) -> Parsing:
    """Instantiate a spec at prefix length N.

    ``traj`` is required for the data-dependent families, ``model`` for the
    adversarial and tail-selecting ones, and ``h_ref`` (the target rate for
    tail selection) for the counterexample v/w families.
    """
    fam = spec.family
    if spec.is_fixed:
        return parse_fixed(N, spec.params["K"])
    if fam == "growing":
        return parse_growing(N, spec.params["schedule"])
    if fam == "random_sublinear":
        budget = resolve_budget(spec.params["budget"], N)
        derived = int(np.random.SeedSequence([spec.params["seed"], N]).generate_state(1)[0])
        return parse_random_sublinear(N, budget, seed=derived)
    if traj is None:
        raise ValueError(f"family {fam!r} needs a trajectory")
    if fam == "lz78":
        return parse_lz78(traj, N)
    if model is None:
        raise ValueError(f"family {fam!r} needs a model")
    if fam == "adversarial":
        return parse_adversarial(model, traj, N, resolve_budget(spec.params["budget"], N))
    if h_ref is None:
        raise ValueError(f"family {fam!r} needs a reference rate h_ref")
    if fam == "counterexample_v":
        return parse_counterexample_v(model, traj, N, spec.params["K"], h_ref,
                                      spec.params["epsilon"])
    if fam == "counterexample_w":
        return parse_counterexample_w(model, traj, N, spec.params["K"], h_ref,
                                      spec.params["epsilon"])
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class SublinearitySeries:
    rows: tuple  # (N, c, c/N)
    tail_decreasing: bool


def sublinearity_series(spec: ParserSpec, model: ProcessModel, seed: int, N_grid) -> SublinearitySeries:
    """Block-count ratios c_N / N along an increasing grid, from one trajectory."""
    grid = [int(n) for n in N_grid]
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ValueError("N_grid must be strictly increasing")
    traj = None
    h_ref = None
    if spec.family in ("lz78", "adversarial", "counterexample_v", "counterexample_w"):
        traj = sample_trajectory(model, grid[-1], seed)
        if spec.family.startswith("counterexample"):
            h_ref = entropy_rate(model).mid
    rows = []
    for n in grid:
        parsing = make_parsing(spec, n, model=model, traj=traj, h_ref=h_ref)
        rows.append((n, parsing.c, parsing.c / n))
    ratios = [r for _, _, r in rows]
    tail = ratios[len(ratios) // 2:]
    tail_decreasing = all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    return SublinearitySeries(rows=tuple(rows), tail_decreasing=tail_decreasing)
