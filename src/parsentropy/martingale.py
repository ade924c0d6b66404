"""The ratio martingale of a stationary source, and exact verifiers for it.

For a word w of length n the martingale value is the ratio of the shifted
cylinder probability to the full one, Z_n = P([w_2..w_n]) / P([w_1..w_n])
(with Z_1 = 1/P([w_1])); its logarithm is non-negative by stationarity and
telescopes the information content of a prefix:

    -log P([x_1^n]) = sum_{k=0}^{n-1} log Z_{n-k} evaluated along the shifts.

This module exposes single-word evaluations of log Z, the one evaluator of
log Z_d over trajectory windows (``_log_z_windows``, which the Birkhoff
observables share), the untruncated and depth-M-truncated splits of that
telescoping identity, and three exact enumeration verifiers: the one-step
martingale identity, the maximal-ratio tail bound, and the expectation
identity E[log Z_n] = H(P_n) - H(P_{n-1}).

The almost-sure limit of Z_n has no finite representation; it is exposed
only through deep truncations.  First-order Markov models reach the limit
at depth 2 exactly, which the tests use as an exact-limit case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientLengthError, OutOfSupportError, PreconditionError
from .measures import (
    ProcessModel,
    Trajectory,
    _INTEGER,
    _K,
    _entropy_of,
    _integer_in,
    _integers,
    _levels,
    _real,
    _ruled,
    _safe_log,
    block_log_probs,
    level_probs,
    log_cylinder_prob,
    prefix_log_probs,
    suffix_log_probs,
)

_THRESHOLDS = (lambda v: all(_real(t) and t > 0 for t in v), "positive thresholds")


@dataclass(frozen=True)
class DecompositionResult:
    """Split of -log P([x_1^n]) into a shift-sum and a residual part.

    ``truncation_M`` is None for the untruncated split (the limit is proxied
    by the deepest ratio the trajectory supports) and the truncation depth
    otherwise.  ``identity_residual`` is the float-level discrepancy between
    the directly evaluated information content and ``i_term + j_term``; the
    identity is exact, so the residual only measures accumulation error.
    """

    neg_log_prob: float
    i_term: float
    j_term: float
    truncation_M: Optional[int] = None

    @property
    def identity_residual(self) -> float:
        return self.neg_log_prob - (self.i_term + self.j_term)


@dataclass(frozen=True)
class TailCheckRow:
    """Exact tail of the running-maximum ratio at one threshold vs. its bounds."""

    threshold: float
    tail_prob: float
    ratio_bound: float
    log_tail_prob: float
    exp_bound: float

    @property
    def passed(self) -> bool:
        return self.tail_prob <= self.ratio_bound and self.log_tail_prob <= self.exp_bound


def z_value(model: ProcessModel, word) -> float:
    """log Z for a single word: shifted minus full cylinder log-probability.

    Raises OutOfSupportError for words of probability zero (the ratio is
    undefined off the support).
    """
    w = _integers(word, "word")
    full = log_cylinder_prob(model, w)
    if not np.isfinite(full):
        raise OutOfSupportError("word has probability zero under the model")
    shifted = 0.0 if w.shape[0] == 1 else log_cylinder_prob(model, w[1:])
    return shifted - full


def _shifted(prev: np.ndarray, level: np.ndarray) -> np.ndarray:
    """P([w_2..w_n]) for each word w of ``level`` = P_n, by rank, from ``prev`` = P_{n-1}."""
    return prev[np.arange(level.shape[0], dtype=np.int64) % prev.shape[0]]


def _log_z_windows(model: ProcessModel, symbols, starts, d: int) -> np.ndarray:
    """log Z_d of each window ``symbols[s:s + d]``; at d = 1 the shifted word is empty.

    A window of probability zero raises OutOfSupportError.
    """
    starts = np.asarray(starts, dtype=np.int64)
    full = block_log_probs(model, symbols, starts, starts + d)
    if not np.all(np.isfinite(full)):
        raise OutOfSupportError(f"a depth-{d} window has probability zero under the model")
    shifted = 0.0 if d == 1 else block_log_probs(model, symbols, starts + 1, starts + d)
    return shifted - full


def verify_martingale_property(model: ProcessModel, n: int) -> float:
    """Max residual of the one-step identity, over every length-n word in support.

    For each such word u the sum of Z_{n+1}(ua) P([ua]) over in-support
    extensions must equal P([u]) Z_n(u), i.e. the shifted probability
    P([u_2..u_n]); the residual is the absolute gap, exactly enumerated.
    """
    _ruled(n, _K, "n", PreconditionError)
    a = model.alphabet_size
    p_prev, p_n, p_next = _levels(model, n - 1, n + 1)
    ext = p_next.reshape(-1, a)                      # P([u a])
    contrib = np.where(ext > 0, _shifted(p_n, p_next).reshape(-1, a), 0.0).sum(axis=1)
    target = _shifted(p_prev, p_n)
    in_support = p_n > 0
    if not in_support.any():
        return 0.0
    return float(np.abs(contrib[in_support] - target[in_support]).max())


def expected_logz_check(model: ProcessModel, n: int) -> float:
    """|E[log Z_n] - (H(P_n) - H(P_{n-1}))| with both sides exactly enumerated."""
    _ruled(n, _K, "n", PreconditionError)
    p_prev, p_n = _levels(model, n - 1, n)
    mask = p_n > 0
    z_log = _safe_log(_shifted(p_prev, p_n)[mask]) - _safe_log(p_n[mask])
    expectation = float((p_n[mask] * z_log).sum())
    increment = _entropy_of(p_n) - _entropy_of(p_prev)
    return abs(expectation - increment)


def zmax_tail_check(model: ProcessModel, n: int, t_grid):
    """Exact tails of max_{k<=n} Z_k against the |A|/t and |A| e^{-t} bounds.

    Returns one row per threshold t: the exact probability that the running
    maximum exceeds t (compared to |A|/t), and the exact probability that
    its logarithm exceeds t (compared to |A| e^{-t}).
    """
    _ruled(n, _K, "n", PreconditionError)
    thresholds = [float(t) for t in _ruled(list(t_grid), _THRESHOLDS, "t_grid", PreconditionError)]
    a = model.alphabet_size
    prev, running = np.ones(1), np.full(1, -np.inf)   # P_0 and the running max of log Z
    for _, level in level_probs(model, n):   # every level once: streamed, not collected
        with np.errstate(invalid="ignore"):
            z_log = np.where(level > 0, _safe_log(_shifted(prev, level)) - _safe_log(level),
                             -np.inf)
        prev, running = level, np.maximum(np.repeat(running, a), z_log)
    rows = []
    for t in thresholds:   # level is P_n
        tail = float(level[running > math.log(t)].sum())
        log_tail = float(level[running > t].sum())
        rows.append(TailCheckRow(threshold=t, tail_prob=tail, ratio_bound=a / t,
                                 log_tail_prob=log_tail, exp_bound=a * math.exp(-t)))
    return rows


def _split(model: ProcessModel, traj: Trajectory, n: int, reach: int = 0) -> tuple:
    """-log P([x_1^n]) by a forward pass and log Z_{n-k} at each shift k < n by a backward one.

    The split reads ``reach`` symbols past x_n.
    """
    _ruled(n, _INTEGER, "n", PreconditionError)
    _ruled(n, _integer_in(1, len(traj) - reach), "n", InsufficientLengthError)
    x = traj.symbols[:n]
    log_p = prefix_log_probs(model, x, at=[n])[0]
    if not np.isfinite(log_p):
        raise OutOfSupportError("prefix has probability zero under the model")
    return -float(log_p), np.diff(suffix_log_probs(model, x))


def chain_rule_decomposition(model: ProcessModel, traj: Trajectory, n: int) -> DecompositionResult:
    """Telescoping split of -log P([x_1^n]) along the shifts of one trajectory.

    The i-term sums the deepest ratio available at each shift given the
    trajectory length (the limit proxy); the j-term collects what remains,
    so ``identity_residual`` is the gap between the forward and backward
    passes of ``_split``.
    """
    neg_log_prob, tele = _split(model, traj, n)
    proxy = np.diff(suffix_log_probs(model, traj.symbols))[:n]   # deepest available ratio
    i_term = float(np.sum(proxy))
    j_term = float(np.sum(tele - proxy))
    return DecompositionResult(neg_log_prob=neg_log_prob, i_term=i_term,
                               j_term=j_term, truncation_M=None)


def truncated_decomposition(model: ProcessModel, traj: Trajectory, n: int, M: int) -> DecompositionResult:
    """Depth-M truncated split: i-term sums log Z_M along the first n shifts.

    Needs n + M <= trajectory length (the window at the last shift reads M
    symbols).  The j-term is fixed by the identity and is cross-checked
    against the direct summation of the per-shift differences.
    """
    _ruled(M, _K, "M", PreconditionError)
    neg_log_prob, tele = _split(model, traj, n, M)
    z_m = _log_z_windows(model, traj.symbols, np.arange(n, dtype=np.int64), M)
    i_term = float(np.sum(z_m))
    j_term = neg_log_prob - i_term
    direct = float(np.sum(tele - z_m))
    if abs(direct - j_term) > 1e-8 * max(1.0, abs(neg_log_prob)):
        raise RuntimeError(
            f"truncated split inconsistent: by-identity j={j_term!r}, direct j={direct!r}"
        )
    return DecompositionResult(neg_log_prob=neg_log_prob, i_term=i_term,
                               j_term=j_term, truncation_M=M)
