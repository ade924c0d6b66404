"""Blockwise information sums, factorization residuals, and experiments.

The central estimate is the per-symbol sum of negative log-probabilities of
the blocks of a parsing; for sublinear block counts it converges to the
per-realization entropy rate, matching the plain information content
-log P([x_1^N]) / N.  Experiments here drive that convergence along nested
prefixes of one trajectory (almost-sure flavor) or across independent seeds
(L1 flavor), reproduce the two-limit behavior of linear parsings, check
robustness under subextensive block perturbations, and verify that
sublinearly many shifted observations cannot move a normalized ergodic sum.

Oracle targets are always computed before estimation and carried in the
records, so a report never compares one estimate against another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BudgetNotSubextensiveError,
    GapTooSmallError,
    OutOfSupportError,
    PreconditionError,
)
from .measures import (
    _EPSILON,
    _K,
    _SEED,
    _canonical,
    _entropy_of,
    _integer_in,
    _levels,
    _one_of,
    _real,
    _ruled,
    _tail_parsing_limit,
    EntropyBracket,
    MixtureModel,
    ProcessModel,
    Trajectory,
    block_log_probs,
    entropy_rate,
    marginal_entropy,
    discrepancy_gap,
    prefix_log_probs,
    sample_trajectory,
)
from .martingale import _log_z_windows
from .parsing import (
    _PARSERS,
    _PLAN,
    Parsing,
    ParserSpec,
    PerturbedParsing,
    apply_perturbation_plan,
    make_parsing,
)

TWO_LIMIT_TOL_REL = 0.02   # the two-limit verdict: each tail average within 2% of its limit
TWO_LIMIT_MIN_GAP = 1e-3   # nats: the two limits must lie further apart than this
L1_MIN_SEEDS = 20          # an l1 verdict averages over at least this many seeds

# Input rules, as measures._ruled takes them; parse_config applies the same objects.
_GRID = (lambda v: v and all(a < b for a, b in zip(v, v[1:])),
         "a non-empty, strictly increasing list")
_BOTH_PARITIES = (lambda grid: {n % 2 for n in grid} == {0, 1}, "even and odd lengths")
_SEEDS = {"as": (lambda s: len(s) == 1, "exactly one seed"),   # the seeds of each target mode
          "l1": (lambda s: len(set(s)) == len(s) >= L1_MIN_SEEDS,
                 f"at least {L1_MIN_SEEDS} distinct seeds")}
_MODE = _one_of(tuple(_SEEDS))
_ONE_LIMIT = (lambda family: family != "counterexample_w", "a family with one limit "
              "(counterexample_w has two: run the counterexample experiment)")
# Tail selection needs one rate per realization; the rule reads the model's class name.
_ERGODIC = (lambda name: name != MixtureModel.__name__, "an ergodic model (a mixture is not)")
_EPSILONS = (lambda v: v and all(b <= a for a, b in zip(v, v[1:])),
             "a non-empty, non-increasing list")
# Each observable's least depth: |log Z_d| compares the depths d and d - 1.
_DEPTHS = {name: (_integer_in(least, math.inf)[0], f"at least {least} for {name}")
           for name, least in (("log_zmax_to_depth_d", 1), ("abs_log_z_d", 2))}
BIRKHOFF_OBSERVABLES = tuple(_DEPTHS)
INDEX_FAMILIES = ("prefix_sqrt", "random_sqrt")
_OBSERVABLE = _one_of(BIRKHOFF_OBSERVABLES)
_INDEX_FAMILY = _one_of(INDEX_FAMILIES)
_TOL = (lambda v: _real(v) and 0 < v < math.inf, "a positive finite number")


@dataclass(frozen=True)
class OracleTarget:
    """A point or bracket limit computed before any estimation runs.

    ``rate`` is the entropy-rate bracket the limit was built from, if any.
    """

    lower: float
    upper: float
    rate: Optional[EntropyBracket] = field(default=None, compare=False, repr=False)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def deviation(self, value: float) -> float:
        """Distance from the bracket (zero inside it)."""
        return max(self.lower - value, value - self.upper, 0.0)


@dataclass(frozen=True)
class EstimatorRecord:
    """One (seed, N) cell: estimates next to their oracle target."""

    N: int
    seed: int
    parser_family: str
    parser_params: str
    blockwise_info: float
    smb_info: float
    residual: float
    c_over_N: float
    target: OracleTarget
    deviation: float


@dataclass(frozen=True)
class ConvergenceReport:
    series: tuple
    target: OracleTarget
    mode: str
    tol: float
    effective_tol: float
    tail_deviation: float
    l1_deviation: float
    verdict: bool


@dataclass(frozen=True)
class CounterexampleReport:
    series: tuple
    limit_even: float            # fixed-block limit H(P_K)/K
    limit_odd: OracleTarget      # tail-parsing limit (2 H(P_{K/2})/K + h)/2
    gap: float
    h_bracket: EntropyBracket
    even_tail_avg: float
    odd_tail_avg: float
    parity_gap: float
    tol_even: float
    tol_odd: float
    tol_gap: float
    even_ok: bool
    odd_ok: bool
    gap_ok: bool

    @property
    def verdict(self) -> bool:
        return self.even_ok and self.odd_ok and self.gap_ok


@dataclass(frozen=True)
class BirkhoffSeries:
    rows: tuple                  # (N, normalized partial sum)
    observable: str
    index_family: str
    depth: int
    tol: Optional[float] = None

    @property
    def final_value(self) -> float:
        return self.rows[-1][1]

    @property
    def verdict(self) -> Optional[bool]:
        return None if self.tol is None else self.final_value < self.tol


# ---------------------------------------------------------------------------
# Pointwise estimators
# ---------------------------------------------------------------------------


def blockwise_info(model: ProcessModel, traj: Trajectory,
                   parsing: Union[Parsing, PerturbedParsing]) -> float:
    """Per-symbol sum of block information contents, in nats.

    Perturbed parsings keep the 1/N normalization of their origin prefix.
    """
    if parsing.N > len(traj):
        raise PreconditionError("parsing covers more symbols than the trajectory has")
    logs = block_log_probs(model, traj.symbols, parsing.starts, parsing.ends)
    if not np.all(np.isfinite(logs)):
        raise OutOfSupportError("a block has probability zero under the model")
    return -float(np.sum(logs)) / parsing.N


def smb_info(model: ProcessModel, traj: Trajectory, N: int) -> float:
    """Plain per-symbol information content -log P([x_1^N]) / N, in nats."""
    _ruled(N, _integer_in(1, len(traj)), "N", PreconditionError)
    lp = prefix_log_probs(model, traj.symbols[:N])[-1]
    if not np.isfinite(lp):
        raise OutOfSupportError("prefix has probability zero under the model")
    return -float(lp) / N


def factorization_residual(model: ProcessModel, traj: Trajectory,
                           parsing: Union[Parsing, PerturbedParsing]) -> float:
    """Per-symbol log gap between the cylinder probability and the block product.

    Positive when the product of block probabilities underestimates the
    joint cylinder probability; identically zero for product measures.
    """
    return blockwise_info(model, traj, parsing) - smb_info(model, traj, parsing.N)


# ---------------------------------------------------------------------------
# Oracle targets
# ---------------------------------------------------------------------------


def _tail_limit(h_half: float, K: int, bracket: EntropyBracket) -> OracleTarget:
    """Tail-parsing limit (2 H(P_{K/2})/K + h)/2 over the rate bracket of h."""
    return OracleTarget(_tail_parsing_limit(h_half, K, bracket.lower),
                        _tail_parsing_limit(h_half, K, bracket.upper), rate=bracket)


def oracle_target(model: ProcessModel, spec: ParserSpec) -> OracleTarget:
    """The limit the blockwise estimate must approach for this (model, spec)."""
    if spec.family == "fixed":
        k = spec.params["K"]
        h_k = marginal_entropy(model, k)
        return OracleTarget(h_k / k, h_k / k)
    _ruled(spec.family, _ONE_LIMIT, "spec.family", PreconditionError)
    if spec.family != "counterexample_v":
        rate = entropy_rate(model)
        return OracleTarget(rate.lower, rate.upper, rate=rate)
    _ruled(type(model).__name__, _ERGODIC, "model", PreconditionError)
    k = spec.params["K"]
    return _tail_limit(marginal_entropy(model, k // 2), k, entropy_rate(model))


def _component_targets(model: MixtureModel, spec: ParserSpec) -> tuple:
    """The mixture's own limit, and one limit per component in the order of ``model.components``.

    A sublinear parsing of a realization of component j tends to that
    component's rate; the hull of their brackets is ``entropy_rate(model)``.
    Fixed-K blocks are scored under the mixture, so they tend to the
    cross-entropy E_j[-log P(X_1^K)]/K of the component's K-marginal against
    the mixture's; the weighted mean of these is the mixture's H(P_K)/K.
    """
    if spec.family == "counterexample_v":   # oracle_target refuses counterexample_w
        _ruled(type(model).__name__, _ERGODIC, "model", PreconditionError)
    if spec.family != "fixed":
        first, second = (oracle_target(comp, spec) for comp in model.components)
        rate = first.rate.hull(second.rate)
        return OracleTarget(rate.lower, rate.upper, rate=rate), (first, second)
    k = spec.params["K"]
    levels = [level for comp in model.components for level in _levels(comp, k, k)]
    mixed = model._mixed(*levels)
    targets = []
    for own in levels:
        support = own > 0
        cross = -float(own[support] @ np.log(mixed[support])) / k
        targets.append(OracleTarget(cross, cross))
    h_k = _entropy_of(mixed)
    return OracleTarget(h_k / k, h_k / k), tuple(targets)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _check_grid(N_grid) -> list:
    grid = [int(_ruled(n, _K, f"N_grid[{i}]", PreconditionError)) for i, n in enumerate(N_grid)]
    return _ruled(grid, _GRID, "N_grid", PreconditionError)


def _perturb(plan: Callable, parsings, grid) -> list:
    """Apply the plan to each parsing; refuse it unless it is subextensive."""
    perturbed = [plan(p) for p in parsings]
    ratios = [p.modification / n for n, p in zip(grid, perturbed)]
    if ratios[-1] >= 0.01 or any(b > a + 1e-12 for a, b in zip(ratios, ratios[1:])):
        raise BudgetNotSubextensiveError(
            f"modification ratios along the grid are {['%.3g' % r for r in ratios]}; "
            "they must decrease and end below 0.01"
        )
    return perturbed


def _seed_cell(args) -> list:
    """All records of one seed; the only place a trajectory is sampled and scored.

    ``args`` is (model, seed, cells, h_ref, plan).  Each cell is
    (N, spec, params, target) with N increasing; a tuple target holds one
    target per mixture component and is indexed by the sampled component.
    A perturbation plan, if given, is applied to every parsing and checked
    for subextensivity before any block is scored.  Module-level and
    self-contained, so cells can run in pool workers.
    """
    model, seed, cells, h_ref, plan = args
    grid = [cell[0] for cell in cells]
    traj = sample_trajectory(model, grid[-1], seed)
    at_grid = prefix_log_probs(model, traj.symbols)[grid]   # log P(x[:n]); the scan is dropped
    parsings = (make_parsing(spec, n, model=model, traj=traj, h_ref=h_ref)
                for n, spec, _, _ in cells)
    if plan is not None:
        parsings = _perturb(plan, parsings, grid)
    records = []
    for (n, spec, params, target), parsing, log_p in zip(cells, parsings, at_grid):
        if isinstance(target, tuple):
            target = target[traj.component]
        blockwise = blockwise_info(model, traj, parsing)
        smb = -float(log_p) / n
        records.append(EstimatorRecord(
            N=n, seed=traj.seed, parser_family=spec.family, parser_params=params,
            blockwise_info=blockwise, smb_info=smb, residual=blockwise - smb,
            c_over_N=parsing.c / n, target=target, deviation=target.deviation(blockwise),
        ))
    return records


def _converge(model, spec, grid, seeds, mode, tol, params, plan, map_fn) -> ConvergenceReport:
    """Score every seed against the oracle limit of (model, spec); as or l1 verdict."""
    headline, target = (_component_targets(model, spec) if isinstance(model, MixtureModel)
                        else (oracle_target(model, spec),) * 2)
    # A family that reads h_ref selects its tail by the entropy rate itself,
    # not by the experiment's limit value.
    h_ref = headline.rate.mid if "h_ref" in _PARSERS[spec.family][1] else None

    cells = tuple((n, spec, params, target) for n in grid)
    tasks = [(model, seed, cells, h_ref, plan) for seed in seeds]
    records = sorted((rec for cell in map_fn(_seed_cell, tasks) for rec in cell),
                     key=lambda r: (r.N, r.seed))

    tail = set(grid[-max(1, math.ceil(len(grid) / 4)):])   # the last quartile of the grid
    tail_dev = max(r.deviation for r in records if r.N in tail)
    at_max = [r for r in records if r.N == grid[-1]]
    l1_dev = float(np.mean([r.deviation for r in at_max]))
    effective_tol = tol
    if mode == "l1":
        spread = float(np.std([r.blockwise_info for r in at_max], ddof=1)) if len(at_max) > 1 else 0.0
        effective_tol = max(tol, 3.0 * spread / math.sqrt(len(at_max)))
    verdict = (l1_dev if mode == "l1" else tail_dev) <= effective_tol
    return ConvergenceReport(series=tuple(records), target=headline, mode=mode,
                             tol=tol, effective_tol=effective_tol,
                             tail_deviation=tail_dev, l1_deviation=l1_dev, verdict=verdict)


def convergence_experiment(model: ProcessModel, spec: ParserSpec, N_grid,
                           seeds: Sequence[int], target_mode: str = "as",
                           tol: float = 0.01, map_fn: Callable = map) -> ConvergenceReport:
    """Blockwise-information convergence against a pre-computed oracle limit.

    Almost-sure mode follows nested prefixes of one trajectory (one seed);
    L1 mode averages absolute deviations across at least 20 seeds at the
    largest N.  For mixture models each seed is scored against the limit of
    the component it sampled (``_component_targets``), and the report
    target is the mixture's own: the bracket hull of the rates, or H(P_K)/K.

    ``map_fn`` may be a pool map; seeds are independent cells and the merge
    order is fixed, so results do not depend on the worker count.
    """
    grid = _check_grid(N_grid)
    seeds = [int(_ruled(s, _SEED, f"seeds[{i}]", PreconditionError)) for i, s in enumerate(seeds)]
    _ruled(target_mode, _MODE, "target_mode", PreconditionError)
    _ruled(seeds, _SEEDS[target_mode], "seeds", PreconditionError)
    _ruled(tol, _TOL, "tol", PreconditionError)
    return _converge(model, spec, grid, seeds, target_mode, tol, spec.describe(), None, map_fn)


def counterexample_experiment(model: ProcessModel, K: int, epsilon_schedule: Sequence[float],
                              N_grid, seed: int) -> CounterexampleReport:
    """Two-limit behavior of the alternating parsing on a linear block budget.

    Requires an ergodic model whose fixed-K and tail-parsing limits are
    separated by more than ``TWO_LIMIT_MIN_GAP`` (verified by enumeration
    before the run).  The grid must contain both parities; the epsilon
    schedule is applied in contiguous non-increasing segments, emulating a
    diagonal refinement of the tail-selection window; ``TWO_LIMIT_TOL_REL``
    sets the verdict.
    """
    _ruled(type(model).__name__, _ERGODIC, "model", PreconditionError)
    seed = int(_ruled(seed, _SEED, "seed", PreconditionError))
    grid = _check_grid(N_grid)
    eps = [float(_ruled(e, _EPSILON, f"epsilon_schedule[{i}]", PreconditionError))
           for i, e in enumerate(epsilon_schedule)]
    _ruled(eps, _EPSILONS, "epsilon_schedule", PreconditionError)
    _ruled(grid, _BOTH_PARITIES, "N_grid", PreconditionError)

    gap_info = discrepancy_gap(model, K)
    if gap_info.gap <= TWO_LIMIT_MIN_GAP:
        raise GapTooSmallError(
            f"fixed-block and tail-parsing limits are {gap_info.gap:.3e} nats apart "
            f"(resolution {TWO_LIMIT_MIN_GAP:.1e}); the two-limit experiment cannot resolve them"
        )
    limit_even = gap_info.h_k / K
    limit_odd = _tail_limit(gap_info.h_half, K, gap_info.h_bracket)
    even_target = OracleTarget(limit_even, limit_even)

    cells = []
    for i, n in enumerate(grid):
        e = eps[min(i * len(eps) // len(grid), len(eps) - 1)]
        spec = ParserSpec("counterexample_w", {"K": K, "epsilon": e})
        cells.append((n, spec, spec.describe(), even_target if n % 2 == 0 else limit_odd))
    records = _seed_cell((model, seed, tuple(cells), gap_info.h_bracket.mid, None))

    # the last quartile of the grid, at least four points, widened until it holds both parities
    window = max(4, math.ceil(len(grid) / 4))
    while window < len(grid) and {n % 2 for n in grid[-window:]} != {0, 1}:
        window += 1
    tail = set(grid[-window:])
    even_avg = float(np.mean([r.blockwise_info for r in records if r.N in tail and r.N % 2 == 0]))
    odd_avg = float(np.mean([r.blockwise_info for r in records if r.N in tail and r.N % 2 == 1]))
    parity_gap = even_avg - odd_avg
    tol_even = TWO_LIMIT_TOL_REL * limit_even
    tol_odd = TWO_LIMIT_TOL_REL * limit_odd.mid
    tol_gap = tol_even + tol_odd
    return CounterexampleReport(
        series=tuple(records), limit_even=limit_even, limit_odd=limit_odd,
        gap=gap_info.gap, h_bracket=gap_info.h_bracket,
        even_tail_avg=even_avg, odd_tail_avg=odd_avg, parity_gap=parity_gap,
        tol_even=tol_even, tol_odd=tol_odd, tol_gap=tol_gap,
        even_ok=abs(even_avg - limit_even) <= tol_even,
        odd_ok=abs(odd_avg - limit_odd.mid) <= tol_odd,
        gap_ok=abs(parity_gap - gap_info.gap) <= tol_gap,
    )


def perturbation_experiment(model: ProcessModel, spec: ParserSpec, plan: str, N_grid,
                            seed: int, tol: float = 0.01) -> ConvergenceReport:
    """Convergence of blockwise information under per-block perturbations.

    The plan, a name from ``PERTURBATION_PLANS``, must be subextensive: the
    modification ratio has to decrease along the grid and drop below 1% at
    the largest N, otherwise BudgetNotSubextensiveError is raised before any
    block is scored.  The families whose row in ``parsing._PARSERS`` reads
    no data (fixed, growing, random_sublinear) are refused before the
    oracle and the sampling; the ratios of the other families depend on
    the trajectory, so theirs comes after sampling.  Mixture seeds are scored against their
    sampled component, as in ``convergence_experiment``.
    """
    _ruled(plan, _PLAN, "plan", PreconditionError)
    seed = int(_ruled(seed, _SEED, "seed", PreconditionError))
    grid = _check_grid(N_grid)
    _ruled(tol, _TOL, "tol", PreconditionError)
    perturb = partial(apply_perturbation_plan, plan_name=plan)
    if not _PARSERS[spec.family][1]:   # the family reads no data
        _perturb(perturb, [make_parsing(spec, n) for n in grid], grid)
    params = _canonical({**spec.params, "plan": plan})
    return _converge(model, spec, grid, [seed], "as", tol, params, perturb, map)


def sublinear_birkhoff_check(model: ProcessModel, observable: str = "abs_log_z_d",
                             index_family: str = "prefix_sqrt", N_grid=(10_000, 100_000, 1_000_000),
                             seed: int = 0, depth: int = 8,
                             tol: Optional[float] = None) -> BirkhoffSeries:
    """Normalized sums of a bounded shift observable over sqrt-many indices.

    For each N the index set holds floor(sqrt(N)) offsets (an initial
    segment, or a seeded uniform draw), and the observable is a depth-d
    martingale-ratio statistic evaluated through sliding windows.  The
    normalized sum must vanish like |A_N|/N, i.e. by a factor of about
    sqrt(10) per decade of N.
    """
    _ruled(observable, _OBSERVABLE, "observable", PreconditionError)
    _ruled(index_family, _INDEX_FAMILY, "index_family", PreconditionError)
    _ruled(depth, _DEPTHS[observable], "depth", PreconditionError)
    seed = int(_ruled(seed, _SEED, "seed", PreconditionError))
    grid = _check_grid(N_grid)
    if tol is not None:
        _ruled(tol, _TOL, "tol", PreconditionError)
    x = sample_trajectory(model, grid[-1] + depth, seed).symbols
    rows = []
    for n in grid:
        m = math.isqrt(n)
        if index_family == "prefix_sqrt":
            ks = np.arange(m, dtype=np.int64)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
            ks = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
        if observable == "abs_log_z_d":
            values = np.abs(_log_z_windows(model, x, ks, depth))
        else:
            values = np.max([_log_z_windows(model, x, ks, d) for d in range(1, depth + 1)], axis=0)
        rows.append((n, float(values.sum()) / n))
    return BirkhoffSeries(rows=tuple(rows), observable=observable,
                          index_family=index_family, depth=depth, tol=tol)
