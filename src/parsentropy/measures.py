"""Stationary finite-alphabet source models and exact log-domain probabilities.

This module defines the four source variants (i.i.d., first-order Markov,
hidden Markov, two-component mixture); each class carries its validation,
sampling and probability engines, which the public functions call (the
i.i.d. model runs on those of the Markov chain whose every row is ``p``):

- ``log_cylinder_prob`` evaluates a single word exactly in log domain,
- ``prefix_log_probs`` / ``suffix_log_probs`` / ``block_log_probs`` are the
  vectorized batch versions used on long trajectories,
- ``cut_penalties`` gives the factorization gap of every cut where it is
  local (i.i.d. and Markov models),
- ``level_probs`` enumerates full marginals for exact entropy computations.

The word evaluations raise PreconditionError on a symbol outside the alphabet.

Hidden-Markov prefix, suffix and block values come from one blocked scan of the
scaled forward recursion, numpy across chunks with a Python loop over the offset in a
chunk.  Chain paths have the bytes of a sequential inverse-CDF walk: a guide table
counts each uniform's edges with no search, and a chunk-major blocked walk composes
each chunk's maps from the small table of draws.

All probabilities are kept in natural-log units (nats) end to end; the
value ``-inf`` is reserved for out-of-support words.  Higher-order Markov
sources are expressed as hidden-Markov models or by alphabet extension;
only first-order transition matrices are accepted directly.

Stationary initial distributions are supplied explicitly and validated,
never solved for silently; ``stationary_distribution`` is provided as a
convenience for building model files.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import partial, partialmethod
from typing import Iterator, Optional, Union

import numpy as np

from .errors import CapExceededError, ModelFormatError, PreconditionError

ENUM_CAP = 1 << 22   # atoms: every exact enumeration stays under it
RATE_TOL = 1e-5      # nats: a rate sandwich this narrow has converged

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
_STATIONARY_SOLVE_TOL = 1e-14   # residual a solved stationary law may leave
_TINY = np.finfo(float).tiny
_LOWEST = np.finfo(float).min
# Bound the HMM kernel's temporaries to a few MB: blocks per pass, chunks per scan read-out.
_BLOCKS_PER_PASS = 1 << 15
_CHUNKS_PER_READ = 1 << 8
# The sampler's guide table: equal cells of [0, 1); uniforms per slice of its count.
_GUIDE_CELLS = 1 << 12
_DRAWS_PER_SLICE = 1 << 14
# Bound the Markov engines' temporaries: symbol pairs per chunk of a running sum.
_PAIRS_PER_CHUNK = 1 << 14


def _integer(v) -> bool:
    """An integer that is not a bool; numpy integers pass."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> bool:
    """A real number that is not a bool; numpy integers and floats pass."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# A value's rule: a test and what the value must be.  Each numeric test is _integer's or _real's.
_INTEGER = (_integer, "an integer")
_K = (lambda v: _integer(v) and v >= 1, "a positive integer")
_EVEN_K = (lambda v: _integer(v) and v >= 2 and v % 2 == 0, "an even positive integer")
_EPSILON = (lambda v: _real(v) and 0.0 < v < 0.25, "a number in (0, 1/4)")
_SEED = (lambda v: _integer(v) and v >= 0, "a non-negative integer")
_NUMBER = (_real, "a number")
_NUMBERS = (lambda v: type(v) is list and all(map(_real, v)), "a list of numbers")
_MATRIX = (lambda v: type(v) is list and all(map(_NUMBERS[0], v)), "a list of lists of numbers")
_PAIR = (lambda v: type(v) is list and list(map(type, v)) == [dict, dict], "a list of two objects")


def _integer_in(lo: int, hi) -> tuple:
    """The rule that a value is an integer in [lo, hi]."""
    return (lambda v: _integer(v) and lo <= v <= hi, f"an integer in [{lo}, {hi}]")


def _integers(values, where: str) -> np.ndarray:
    """``values`` as integers; PreconditionError naming ``where`` unless integer-typed or empty.

    An integer array keeps its dtype and an empty one of another becomes int64:
    a caller that does arithmetic on the values widens them.  Only the dtype is
    read: the check makes no pass over the values.
    """
    x = np.asarray(values)
    if x.dtype.kind in "iu":
        return x
    if x.size:
        raise PreconditionError(f"{where}: expected integers, got an array of dtype {x.dtype}")
    return x.astype(np.int64)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _safe_log(arr: np.ndarray) -> np.ndarray:
    """Elementwise log with log(0) = -inf and no warning noise."""
    with np.errstate(divide="ignore"):
        return np.log(arr)


def _entropy_of(level: np.ndarray) -> float:
    mask = level > 0
    p = level[mask]
    return float(-(p * np.log(p)).sum())


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled finite prefix with its seed provenance.

    ``symbols`` keep the integer dtype they are given; a sampled trajectory
    holds them in ``np.min_scalar_type(A - 1)``, one byte per symbol up to 256
    symbols, so arithmetic on their values widens them first.  ``component``
    records the index drawn for mixture models (None otherwise).
    """

    symbols: np.ndarray
    seed: int
    model_id: str
    component: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "symbols", _frozen_array(_integers(self.symbols, "symbols"), None))

    def __len__(self) -> int:
        return self.symbols.shape[0]


@dataclass(frozen=True)
class EntropyBracket:
    """Two-sided enclosure of the entropy rate, in nats per symbol."""

    lower: float
    upper: float
    n_used: int
    converged: bool = True

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def hull(self, other: "EntropyBracket") -> "EntropyBracket":
        return EntropyBracket(
            lower=min(self.lower, other.lower),
            upper=max(self.upper, other.upper),
            n_used=max(self.n_used, other.n_used),
            converged=self.converged and other.converged,
        )


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    residual: float
    bound: float


@dataclass(frozen=True)
class ModelValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)


def _check(name: str, residual: float, bound: float) -> ValidationCheck:
    residual = float(residual)
    return ValidationCheck(name=name, passed=residual <= bound, residual=residual, bound=bound)


def _distribution_checks(name: str, v: np.ndarray) -> list:
    return [
        _check(f"{name}.nonnegative", max(0.0, float(-v.min(initial=0.0))), 0.0),
        _check(f"{name}.sums_to_one", abs(float(v.sum()) - 1.0), _ROW_SUM_TOL),
    ]


def _matrix_checks(name: str, m: np.ndarray) -> list:
    rows = np.abs(m.sum(axis=1) - 1.0)
    return [
        _check(f"{name}.nonnegative", max(0.0, float(-m.min(initial=0.0))), 0.0),
        _check(f"{name}.rows_sum_to_one", float(rows.max()), _ROW_SUM_TOL),
    ]


def _stationarity_check(prefix: str, initial: np.ndarray, transition: np.ndarray) -> ValidationCheck:
    return _check(prefix + "stationarity",
                  float(np.abs(initial @ transition - initial).max()), _STATIONARY_TOL)


def _alphabet_check(prefix: str, model: "ProcessModel") -> ValidationCheck:
    return _check(prefix + "alphabet_size", 0.0 if model.alphabet_size >= 2 else 1.0, 0.0)


def _chunks(n: int) -> list:
    """The chunks ``(a, b)`` of at most ``_PAIRS_PER_CHUNK`` that cover 0..n-1, in order."""
    return [(a, min(a + _PAIRS_PER_CHUNK, n)) for a in range(0, n, _PAIRS_PER_CHUNK)]


def _running_sums_at(values, rows: int, n: int, *points) -> list:
    """R[p] for each array ``p`` of ``points``: R[k] sums the first k of n values, R[0] = 0.

    ``values(a, b)`` gives values a..b-1 as the columns of ``rows`` rows (a
    1-d array for one row), each row one running sum, in a new array that
    is summed in place.  They come one chunk at a time, and each chunk's
    cumsum starts from the running sum before it, so every R[k] is the float
    that one cumsum over all n values gives.  Each array of points is read
    in increasing order; one that is not sorted is sorted once.
    """
    picks = []
    for p in points:
        order = None if (p[1:] >= p[:-1]).all() else p.argsort(kind="stable")
        picks.append((p if order is None else p[order], order, np.zeros((rows, p.shape[0]))))
    carry = np.zeros(rows)
    for a, b in _chunks(n):
        run = values(a, b).reshape(rows, -1)
        run[:, 0] += carry                              # R[a] + values[a]: the sum commutes
        np.cumsum(run, axis=1, out=run)                 # run[:, j] = R[a + 1 + j]
        for p, _, out in picks:
            lo, hi = p.searchsorted([a, b], side="right")   # the points in (a, b]
            out[:, lo:hi] = run.take(p[lo:hi] - (a + 1), axis=1)
        carry = run[:, -1]
    for _, order, out in picks:
        if order is not None:
            out[:, order] = out.copy()
    return [out for _, _, out in picks]


def _window_sums(logs, n: int, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Sums of the logs s[i]..e[i]-1 of n, exactly -inf where a window holds a zero factor.

    ``logs(a, b)`` gives logs a..b-1.  The finite parts and the zero factors
    are cumulated separately, so a zero factor outside a window cannot turn
    its sum into inf - inf.
    """
    def parts(a: int, b: int) -> np.ndarray:
        chunk = logs(a, b)
        zero = np.isneginf(chunk)
        return np.stack((np.where(zero, 0.0, chunk), zero))

    (cs, cz), (ce, ze) = _running_sums_at(parts, 2, n, s, e)
    out = ce - cs
    out[ze > cz] = -np.inf
    return out


def _pair_logs(log_t: np.ndarray, x: np.ndarray, a: int, b: int, out=None) -> np.ndarray:
    """``log_t[x[a:b], x[a + 1:b + 1]]``, the log transitions of pairs a..b-1, as one flat take.

    The flat index reaches A^2 - 1, so the symbols widen to ``np.intp`` first:
    in a narrow symbol type it would wrap.  The logs go into ``out`` if given;
    the index is in range, and mode "clip" lets ``take`` write there unbuffered.
    """
    w = x[a:b + 1].astype(np.intp)
    index = w[:-1] * log_t.shape[1]
    index += w[1:]
    return log_t.reshape(-1).take(index, out=out, mode="clip")


def _chunk_len(n: int) -> int:
    """ceil(n ** (1/3)) for n >= 1: the chunk length of the blocked scans over n symbols."""
    m = round(n ** (1 / 3))
    return m + (m ** 3 < n)


def _inverse_cdf(rows: np.ndarray, u: np.ndarray):
    """Every row's inverse CDF at every uniform, with no search per uniform: ``(table, place)``.

    Row r draws ``table[r, place[i]]`` for u[i]: the count of entries <= u[i]
    in its cumulative sums without the last one, which caps the draw at the
    last index (a row may sum to just under 1).  Every such entry is one of
    the sorted ``edges`` of all rows, so the count depends only on ``place``,
    the count of edges <= u[i]; the table counts each row's entries at each
    edge and sums them along the row.  ``place`` comes from a guide table
    (Chen & Asau 1974): the count of edges at or below the start of u's cell
    of [0, 1), cut into ``_GUIDE_CELLS`` equal cells, plus one compare per
    edge inside the cell; a uniform stops at its first edge above it.
    """
    r, k = rows.shape
    cum = np.cumsum(rows, axis=1)[:, :-1]
    edges = np.sort(cum, axis=None)
    edges = edges[np.diff(edges, prepend=-np.inf) > 0]   # not np.unique: it loads numpy.ma
    table = np.zeros((r, edges.shape[0] + 1), dtype=np.min_scalar_type(k - 1))
    np.add.at(table, (np.arange(r)[:, None], np.searchsorted(edges, cum) + 1), 1)
    count = np.min_scalar_type(edges.shape[0])
    starts = np.arange(_GUIDE_CELLS) / _GUIDE_CELLS
    guide = np.searchsorted(edges, starts, side="right").astype(count)
    above = np.append(edges, np.inf)                     # the edge after the last is never <= u
    place = np.empty(u.shape[0], dtype=count)
    for a in range(0, u.shape[0], _DRAWS_PER_SLICE):     # cache-sized temporaries
        v, at = u[a:a + _DRAWS_PER_SLICE], place[a:a + _DRAWS_PER_SLICE]
        guide.take((v * _GUIDE_CELLS).astype(np.intp), out=at, mode="clip")
        hit = above.take(at) <= v
        at += hit
        live = hit.nonzero()[0]
        while live.shape[0]:                             # u above every edge compared so far
            live = live[above.take(at[live]) <= v[live]]
            at[live] += 1
    return np.cumsum(table, axis=1, out=table), place


def _walk_chain(initial: np.ndarray, transition: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States of a chain by inverse CDF, one uniform each, as a blocked walk.

    Step t maps state s to row s's draw at u[t]; step 0 reads ``initial``
    through one extra column of the draw table, whatever the state.  The
    steps are laid out chunk-major (row j holds step j of every chunk), the
    maps composed per chunk, the chunk starts walked, and the chunks filled
    in row by row.  The states keep the draw table's dtype,
    ``np.min_scalar_type(k - 1)``.
    """
    k, n = transition.shape[0], u.shape[0]
    table, place = _inverse_cdf(np.vstack((transition, initial)), u)
    w = table.shape[1] + 1
    draws = np.empty((k, w), dtype=table.dtype)
    draws[:, :-1], draws[:, -1] = table[:k], table[k, place[0]]
    m = _chunk_len(n)
    c = -(-n // m)
    steps = np.zeros(c * m, dtype=np.min_scalar_type(w - 1))   # the padding is never read out
    steps[1:n], steps[0] = place[1:], w - 1
    del place
    steps = np.ascontiguousarray(steps.reshape(c, m).T)
    flat, row = draws.reshape(-1), np.arange(k) * w      # flat index of each state's row
    lands = row.take(flat)                               # flat index of the row each draw lands in
    through = np.broadcast_to(row[:, None], (k, c))
    for j in range(m):                                   # through[s, i]: row after chunk i from s
        through = lands.take(through + steps[j])
    starts, state = np.empty(c, dtype=np.intp), 0
    for i, r in enumerate((through // w).T.tolist()):
        starts[i], state = state, r[state]
    path = np.empty((m, c), dtype=draws.dtype)
    for j in range(m):
        starts = path[j] = flat.take(row.take(starts) + steps[j])
    return np.ascontiguousarray(path.T).reshape(-1)[:n]


def _log_sum_exp(t: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(t))) along ``axis``, overwriting ``t``; -inf where every term is -inf."""
    top = np.maximum.reduce(t, axis=axis, keepdims=True)
    np.maximum(top, _LOWEST, out=top)                  # all terms -inf: any finite shift
    t -= top
    total = np.add.reduce(np.exp(t, out=t), axis=axis, keepdims=True)
    top += np.log(total, out=total)
    return top.squeeze(axis)


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------


class _Model:
    """What every model type provides; the public functions below call it once.

    A subclass declares ``_VARIANT`` and the ``_RULES`` of its dict form's keys
    (the defaults below read the attributes of those names and rebuild a model
    from its dataclass fields) and implements ``_checks(prefix)``,
    ``_prefix(x)``, ``_suffix(x)``, ``_block(x, s, e)``, ``_sample(n, rng)``,
    ``_levels(n_max)`` and ``_rate()``; a model
    whose cut penalty is local also overrides ``_cut_penalties(x)``.
    Constructors check shapes only, so that ``validate_model`` can report on
    a model that is not stochastic.
    """

    def _cut_penalties(self, x: np.ndarray) -> Optional[np.ndarray]:
        return None

    def _params(self) -> dict:
        return {key: np.asarray(getattr(self, key)).tolist() for key in self._RULES}

    @classmethod
    def _from_params(cls, d: dict, path: str):
        return cls(**{field.name: d[field.name] for field in fields(cls)})


@dataclass(frozen=True, eq=False)
class IIDModel(_Model):
    """Product measure with symbol distribution ``p`` (length = alphabet size).

    Its engines are those of the first-order chain whose every row and whose
    start are ``p``, built once per model: that chain is the product measure.
    """

    p: np.ndarray

    _VARIANT = "iid"
    _RULES = {"p": _NUMBERS}

    def __post_init__(self):
        p = _frozen_array(self.p)
        if p.ndim != 1 or p.shape[0] < 1:
            raise ValueError("p must be a 1-d distribution over the alphabet")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_chain", MarkovModel(np.tile(p, (p.shape[0], 1)), p))

    @property
    def alphabet_size(self) -> int:
        return self.p.shape[0]

    def _checks(self, prefix: str) -> list:
        return _distribution_checks(prefix + "p", self.p) + [_alphabet_check(prefix, self)]

    def _on_chain(self, engine: str, *args):
        return getattr(self._chain, engine)(*args)

    _prefix = partialmethod(_on_chain, "_prefix")
    _suffix = partialmethod(_on_chain, "_suffix")
    _block = partialmethod(_on_chain, "_block")
    _cut_penalties = partialmethod(_on_chain, "_cut_penalties")
    _sample = partialmethod(_on_chain, "_sample")
    _levels = partialmethod(_on_chain, "_levels")
    _rate = partialmethod(_on_chain, "_rate")


@dataclass(frozen=True, eq=False)
class MarkovModel(_Model):
    """First-order chain: row-stochastic ``transition`` and stationary ``initial``."""

    transition: np.ndarray
    initial: np.ndarray

    _VARIANT = "markov"
    _RULES = {"transition": _MATRIX, "initial": _NUMBERS}

    def __post_init__(self):
        t = _frozen_array(self.transition)
        pi = _frozen_array(self.initial)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition must be a square matrix")
        if pi.shape != (t.shape[0],):
            raise ValueError("initial must be a distribution over the alphabet")
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "initial", pi)

    @property
    def alphabet_size(self) -> int:
        return self.transition.shape[0]

    def _checks(self, prefix: str) -> list:
        return (_matrix_checks(prefix + "transition", self.transition)
                + _distribution_checks(prefix + "initial", self.initial)
                + [_stationarity_check(prefix, self.initial, self.transition),
                   _alphabet_check(prefix, self)])

    def _prefix(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[0] + 1)
        if x.shape[0]:
            log_t = _safe_log(self.transition)
            for a, b in _chunks(x.shape[0] - 1):   # out[a + 1]: the sum of the pairs before a
                part = out[a + 1:b + 2]
                _pair_logs(log_t, x, a, b, out=part[1:])
                np.cumsum(part, out=part)
            out[1] = _safe_log(self.initial)[x[0]]
            out[2:] += out[1]
        return out

    def _suffix(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(x.shape[0] + 1)
        log_t, log_pi = _safe_log(self.transition), _safe_log(self.initial)
        for a, b in reversed(_chunks(x.shape[0] - 1)):   # out[b]: the sum of the pairs from b
            _pair_logs(log_t, x, a, b, out=out[a:b])
            part = out[a:b + 1][::-1]
            np.cumsum(part, out=part)
        for a, b in _chunks(x.shape[0]):
            out[a:b] += log_pi.take(x[a:b])
        return out

    @np.errstate(invalid="ignore")               # -inf - -inf: only off the support
    def _cut_penalties(self, x: np.ndarray) -> np.ndarray:
        gaps = _safe_log(self.transition) - _safe_log(self.initial)   # each cut's one subtraction
        out = np.empty(max(x.shape[0] - 1, 0))
        for a, b in _chunks(out.shape[0]):
            _pair_logs(gaps, x, a, b, out=out[a:b])
        return out

    def _block(self, x: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """The running sums read at each block's start and end only: a parsing's need no sort."""
        pairs, n = partial(_pair_logs, _safe_log(self.transition), x), x.shape[0] - 1
        out = _safe_log(self.initial).take(x[s])
        if (self.transition == 0).any():   # a log transition is -inf
            out += _window_sums(pairs, n, s, e - 1)
            return out
        (first,), (last,) = _running_sums_at(pairs, 1, n, s, e - 1)
        out += last
        out -= first
        return out

    def _sample(self, n: int, rng: np.random.Generator):
        return _walk_chain(self.initial, self.transition, rng.random(n)), None

    def _levels(self, n_max: int) -> Iterator:
        a = self.alphabet_size
        level = self.initial.copy()
        yield 1, level
        for n in range(2, n_max + 1):
            last = np.arange(level.shape[0], dtype=np.int64) % a
            level = (level[:, None] * self.transition[last, :]).ravel()
            yield n, level

    def _rate(self) -> EntropyBracket:
        rows = self.transition
        mask = rows > 0
        contrib = np.where(mask, -rows * _safe_log(np.where(mask, rows, 1.0)), 0.0)
        h = float(self.initial @ contrib.sum(axis=1))
        return EntropyBracket(h, h, n_used=2)


@dataclass(frozen=True, eq=False)
class HiddenMarkovModel(_Model):
    """Hidden chain with stationary start, emitting one symbol per step."""

    hidden_transition: np.ndarray
    hidden_initial: np.ndarray
    emission: np.ndarray

    _VARIANT = "hidden_markov"
    _RULES = {"hidden_states": _K, "hidden_transition": _MATRIX, "hidden_initial": _NUMBERS,
              "emission": _MATRIX}

    def __post_init__(self):
        q = _frozen_array(self.hidden_transition)
        rho = _frozen_array(self.hidden_initial)
        b = _frozen_array(self.emission)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("hidden_transition must be a square matrix")
        if b.ndim != 2 or b.shape[0] != q.shape[0]:
            raise ValueError("emission must have one row per hidden state")
        if rho.shape != (q.shape[0],):
            raise ValueError("hidden_initial must be a distribution over hidden states")
        object.__setattr__(self, "hidden_transition", q)
        object.__setattr__(self, "hidden_initial", rho)
        object.__setattr__(self, "emission", b)

    @property
    def alphabet_size(self) -> int:
        return self.emission.shape[1]

    @property
    def hidden_states(self) -> int:
        return self.emission.shape[0]

    def _checks(self, prefix: str) -> list:
        return (_matrix_checks(prefix + "hidden_transition", self.hidden_transition)
                + _matrix_checks(prefix + "emission", self.emission)
                + _distribution_checks(prefix + "hidden_initial", self.hidden_initial)
                + [_stationarity_check(prefix, self.hidden_initial, self.hidden_transition),
                   _alphabet_check(prefix, self)])

    @np.errstate(divide="ignore")                           # log(0) = -inf: out of support
    def _forward(self, y: np.ndarray, s: np.ndarray, e: np.ndarray, reverse: bool = False,
                 scan: bool = False) -> np.ndarray:
        """Log-probabilities of the blocks ``y[s:e]``: the kernel of every HMM engine.

        Pieces of at most m = ``_chunk_len(total length)`` steps cover each
        block after its first symbol.  Pass 1 multiplies out every piece's
        transfer matrices, numpy across pieces; pass 2 folds each block's
        pieces by doubling.  With ``scan`` (one block: the word, cut into
        chunks) pass 3 turns pass 1's read-outs into log P(y[:k]), k <= len(y).
        ``reverse`` runs Q^T from ones and reads out against rho: the
        backward recursion on the reversed word.  Stacks keep their index last.
        Row i of a piece's product, the forward vector from hidden state i, has
        its own log scale, and passes 2 and 3 work on log matrices: an entry is
        lost only next to a much larger one of its own row, never another row's.
        """
        S, b, q, rho = self.hidden_states, self.emission, self.hidden_transition, self.hidden_initial
        start, step_t, weight = (np.ones(S), q, rho) if reverse else (rho, q.T, np.ones(S))
        m = _chunk_len(int((e - s).sum()))
        count = np.maximum((e - s + (m - 2)) // m, 1)       # pieces per block, maybe one empty
        order = (-count).argsort(kind="stable")             # blocks by decreasing piece count
        s, e, count = s[order], e[order], count[order]
        ends = count.cumsum()                               # pieces come block after block
        place = np.arange(ends[-1]) - (ends - count).repeat(count)
        starts = (s + 1).repeat(count) + place * m
        lengths = np.minimum(e.repeat(count) - starts, m)
        by_len = (-lengths).argsort(kind="stable")          # pass 1 runs in decreasing length
        at, depth = starts[by_len], int(lengths.max(initial=0))
        prod = np.repeat(np.eye(S)[:, :, None], at.shape[0], axis=2)
        prod_log, spare = np.zeros((S, at.shape[0])), np.empty_like(prod)
        if scan:                                            # reads[j, i, c]: log of row i's read-out
            buf, reads = np.zeros(2 + at.shape[0] * m), np.zeros((depth, S, at.shape[0]))
            grid = buf[2:].reshape(-1, m)                   # log P(y[:k]) = buf[k] = grid[c, j]
        for j, a in enumerate((-lengths[by_len]).searchsorted(-np.arange(depth)).tolist()):
            cur = prod[:, :, :a]
            np.multiply(np.matmul(step_t, cur, out=spare[:, :, :a]), b.take(y[at[:a] + j], axis=1),
                        out=cur)
            total = np.add.reduce(cur, axis=1)              # each row to total 1; a zero row
            prod_log[:, :a] += np.log(total)                # stays 0, with log scale -inf
            cur /= np.maximum(total, _TINY)[:, None]
            if scan:
                np.log(np.matmul(weight, cur, out=reads[j, :, :a]), out=reads[j, :, :a])
                reads[j, :, :a] += prod_log[:, :a]
        back = by_len.argsort()
        logs = np.log(prod.take(back, axis=2, out=spare), out=spare)   # logs[i, l, c]: piece c, i to l
        logs += prod_log.take(back, axis=1)[:, None]
        for d in (1 << r for r in range(int(count[0] - 1).bit_length())):   # d < count[0]
            hi = int(ends[(-count).searchsorted(-d) - 1])   # the pieces of blocks with more than d
            product = _log_sum_exp(logs[:, :, None, :hi - d] + logs[None, :, :, d:hi], 1)
            np.copyto(logs[:, :, d:hi], product, where=place[d:hi] >= d)   # pieces i - 2d + 1 .. i
        v = start[:, None] * b.take(y[s], axis=1)           # entering vector of each block
        log_v = np.log(v)[:, None]
        if scan:                                            # pass 3: enter each chunk, read out
            enter = _log_sum_exp(log_v + logs[:, :, :-1], 0)   # v through the chunks before
            reads += np.concatenate((log_v[:, 0], enter), axis=1)
            buf[1] = np.log(weight @ v[:, 0])               # k = 1; grid: k = 2 + c m + j
            for c in range(0, grid.shape[0], _CHUNKS_PER_READ):   # bounded temporaries
                part = slice(c, c + _CHUNKS_PER_READ)
                grid[part, :depth] = _log_sum_exp(reads[:, :, part], 1).T
            return buf[:y.shape[0] + 1]
        ends_at = logs.take(ends - 1, axis=2) + log_v + np.log(weight)[:, None]
        result = np.empty(s.shape[0])
        result[order] = _log_sum_exp(ends_at.reshape(S * S, -1), 0)
        return result

    def _scan(self, x: np.ndarray, reverse: bool) -> np.ndarray:
        """Log-probabilities of every prefix, or with ``reverse`` of every suffix, of ``x``."""
        e = np.full(1, x.shape[0])
        out = self._forward(x[::-1] if reverse else x, e - e, e, reverse, True) if e[0] else np.zeros(1)
        return out[::-1].copy() if reverse else out

    _prefix = partialmethod(_scan, reverse=False)
    _suffix = partialmethod(_scan, reverse=True)

    def _block(self, x: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        n = _BLOCKS_PER_PASS
        return np.concatenate([self._forward(x, s[i:i + n], e[i:i + n]) for i in range(0, len(s), n)])

    def _sample(self, n: int, rng: np.random.Generator):
        path = _walk_chain(self.hidden_initial, self.hidden_transition, rng.random(n))
        table, place = _inverse_cdf(self.emission, rng.random(n))
        # the flat index reaches S * width - 1: in the narrow state type it would wrap
        return table.reshape(-1).take(path.astype(np.intp) * table.shape[1] + place), None

    def _levels(self, n_max: int) -> Iterator:
        fwd = self.hidden_initial[None, :] * self.emission.T  # (A words, S): rho(s) B(s, a)
        yield 1, fwd.sum(axis=1)
        for n in range(2, n_max + 1):
            g = fwd @ self.hidden_transition
            fwd = (g[:, None, :] * self.emission.T[None, :, :]).reshape(-1, self.hidden_states)
            yield n, fwd.sum(axis=1)

    def _rate(self) -> EntropyBracket:
        a, S = self.alphabet_size, self.hidden_states
        n_max = 1                                # level 1 over the cap: level_probs raises
        while max(a, 2) ** (n_max + 1) <= ENUM_CAP:   # one symbol: the binary depth
            n_max += 1
        # The sweeps run in lockstep and stop at the first narrow bracket, so they stream.
        sweeps = [level_probs(self, n_max)] + [   # and from each hidden state
            level_probs(replace(self, hidden_initial=start), n_max) for start in np.eye(S)]
        rho = self.hidden_initial
        prev_upper_h = 0.0
        prev_lower_h = np.zeros(S)
        lower, upper, n_used = 0.0, float(np.log(a)), 0
        for n in range(1, n_max + 1):
            levels = [next(sweep) for sweep in sweeps]
            upper_h = _entropy_of(levels[0][1])
            lower_h = np.array([_entropy_of(levels[1 + s][1]) for s in range(S)])
            upper_n = upper_h - prev_upper_h
            lower_n = float(rho @ (lower_h - prev_lower_h))
            prev_upper_h, prev_lower_h = upper_h, lower_h
            lower, upper = min(lower_n, upper_n), max(lower_n, upper_n)
            n_used = n
            if upper - lower <= RATE_TOL:
                return EntropyBracket(lower, upper, n_used=n_used)
        return EntropyBracket(lower, upper, n_used=n_used, converged=False)

    @classmethod
    def _from_params(cls, d: dict, path: str) -> "HiddenMarkovModel":
        model = super()._from_params(d, path)
        if model.hidden_states != d["hidden_states"]:
            raise ModelFormatError(f"{path}.hidden_states: inconsistent with emission shape")
        return model


@dataclass(frozen=True, eq=False)
class MixtureModel(_Model):
    """Convex combination of two stationary components over the same alphabet.

    The canonical non-ergodic example: sampling draws one component per
    trajectory, so the per-realization information rate is a non-constant
    function of the realization.
    """

    weight: float
    first: "ProcessModel"
    second: "ProcessModel"

    _VARIANT = "mixture"
    _RULES = {"weight": _NUMBER, "components": _PAIR}

    @property
    def alphabet_size(self) -> int:
        return self.first.alphabet_size

    @property
    def components(self):
        return (self.first, self.second)

    def _checks(self, prefix: str) -> list:
        w_ok = 0.0 < self.weight < 1.0
        same = self.first.alphabet_size == self.second.alphabet_size
        return ([_check(prefix + "weight_in_open_unit_interval", 0.0 if w_ok else 1.0, 0.0),
                 _check(prefix + "components_share_alphabet", 0.0 if same else 1.0, 0.0)]
                + self.first._checks(prefix + "first.")
                + self.second._checks(prefix + "second."))

    def _mix(self, engine: str, *args) -> np.ndarray:
        """log(w P_first + (1 - w) P_second) from the components' log engine."""
        la, lb = math.log(self.weight), math.log1p(-self.weight)
        return np.logaddexp(la + getattr(self.first, engine)(*args),
                            lb + getattr(self.second, engine)(*args))

    _prefix = partialmethod(_mix, "_prefix")
    _suffix = partialmethod(_mix, "_suffix")
    _block = partialmethod(_mix, "_block")

    def _sample(self, n: int, rng: np.random.Generator):
        comp = 0 if rng.random() < self.weight else 1
        symbols, _ = self.components[comp]._sample(n, rng)
        return symbols, comp

    def _mixed(self, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        """w P_first + (1 - w) P_second of one level of each component."""
        return self.weight * p1 + (1.0 - self.weight) * p2

    def _levels(self, n_max: int) -> Iterator:
        for (n, p1), (_, p2) in zip(self.first._levels(n_max), self.second._levels(n_max)):
            yield n, self._mixed(p1, p2)

    def _rate(self) -> EntropyBracket:
        return self.first._rate().hull(self.second._rate())

    def _params(self) -> dict:
        return {"weight": self.weight,
                "components": [model_to_dict(self.first), model_to_dict(self.second)]}

    @classmethod
    def _from_params(cls, d: dict, path: str) -> "MixtureModel":
        comps = d["components"]
        return cls(weight=float(d["weight"]),
                   first=model_from_dict(comps[0], path=f"{path}.components[0]"),
                   second=model_from_dict(comps[1], path=f"{path}.components[1]"))


ProcessModel = Union[IIDModel, MarkovModel, HiddenMarkovModel, MixtureModel]

_VARIANTS = {cls._VARIANT: cls for cls in (IIDModel, MarkovModel, HiddenMarkovModel, MixtureModel)}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_model(model: ProcessModel) -> ModelValidationReport:
    """Check stochasticity and stationarity invariants, with numeric residuals.

    Failures do not raise; the report carries one row per invariant, e.g.
    the sup-norm of ``initial @ transition - initial`` for Markov models.
    """
    return ModelValidationReport(checks=tuple(model._checks("")))


def _require_valid(model: ProcessModel, where: str) -> None:
    """Raise ModelFormatError naming every invariant ``model`` violates."""
    report = validate_model(model)
    if not report.passed:
        rows = "; ".join(f"{c.name} (residual {c.residual:.3g}, bound {c.bound:.3g})"
                         for c in report.failures)
        raise ModelFormatError(f"{where}: model invariants violated: {rows}")


def stationary_distribution(transition) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix, solved directly.

    Least squares on pi (T - I) = 0 with sum(pi) = 1.  Raises
    PreconditionError when the stationary law is not unique (the system has
    rank below k) or when the solution leaves a residual above 1e-14.
    """
    t = np.asarray(transition, dtype=float)
    k = t.shape[0]
    system = np.vstack((t.T - np.eye(k), np.ones((1, k))))
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < k:
        raise PreconditionError(f"the stationary law is not unique (rank {rank} < {k})")
    pi = np.maximum(pi, 0.0)   # round-off can leave -1e-17 on transient states
    pi /= pi.sum()
    residual = float(np.abs(pi @ t - pi).max())
    if residual > _STATIONARY_SOLVE_TOL:
        raise PreconditionError(f"stationary solve left residual {residual:.3e} "
                                f"> {_STATIONARY_SOLVE_TOL:.1e}")
    return pi


# ---------------------------------------------------------------------------
# Cylinder probability engines
# ---------------------------------------------------------------------------


def _symbols(model: ProcessModel, symbols) -> np.ndarray:
    """``symbols`` typed by ``_integers``; PreconditionError naming any outside the alphabet."""
    x = _integers(symbols, "symbols")
    a = model.alphabet_size
    if x.size and (x.min() < 0 or x.max() >= a):
        i = int(np.flatnonzero((x < 0) | (x >= a))[0])
        raise PreconditionError(f"symbol {x.flat[i]} at index {i} is outside the alphabet 0..{a - 1}")
    return x


def log_cylinder_prob(model: ProcessModel, word) -> float:
    """Exact log-probability of the cylinder of ``word``; -inf off support."""
    w = _integers(word, "word")
    if w.ndim != 1 or w.shape[0] == 0:
        raise PreconditionError(f"word: expected a non-empty 1-d sequence, got shape {w.shape}")
    return float(prefix_log_probs(model, w)[-1])


def prefix_log_probs(model: ProcessModel, symbols) -> np.ndarray:
    """Array ``L`` of length n+1 with ``L[j]`` = log-probability of the first j symbols.

    ``L[0] = 0`` (empty word).  A single pass serves every nested prefix of a
    long trajectory.
    """
    out = model._prefix(_symbols(model, symbols))
    out[0] = 0.0   # exactly: a mixture's logaddexp(log w, log(1 - w)) need not round to 0
    return out


def suffix_log_probs(model: ProcessModel, symbols) -> np.ndarray:
    """Array ``S`` of length n+1 with ``S[j]`` = log-probability of ``symbols[j:]``.

    ``S[n] = 0``.  By stationarity this is the cylinder probability of the
    suffix word; the hidden-Markov case runs one scaled backward recursion.
    """
    out = model._suffix(_symbols(model, symbols))
    out[-1] = 0.0   # exactly, as in prefix_log_probs
    return out


def block_log_probs(model: ProcessModel, symbols, starts, ends) -> np.ndarray:
    """Log-probabilities of the sub-words ``symbols[starts[i]:ends[i]]``.

    Vectorized over blocks; all blocks must be non-empty and lie inside the
    symbol array.  Symbols past the last block end are not read.  This is the
    workhorse behind blockwise information sums.
    """
    x = _integers(symbols, "symbols")
    s, e = (_integers(v, "starts, ends").astype(np.int64, copy=False) for v in (starts, ends))
    if s.shape != e.shape:
        raise PreconditionError(f"starts, ends: expected equal shapes, got {s.shape}, {e.shape}")
    if s.shape[0] == 0:
        return np.empty(0)
    if (e <= s).any() or s.min() < 0 or e.max() > x.shape[0]:
        raise PreconditionError(f"starts, ends: expected non-empty blocks in {x.shape[0]} symbols")
    return model._block(_symbols(model, x[:e.max()]), s, e)


def cut_penalties(model: ProcessModel, symbols) -> Optional[np.ndarray]:
    """log P(x_t | x_{<t}) - log P(x_t) at every cut t = 1..n-1, where it is local.

    Entry t - 1 is the factorization gap log P(block) - log P(left) - log P(right)
    of a cut before ``symbols[t]``, for every block that holds ``symbols[t-1:t+1]``:
    0 for i.i.d. models, log T(x_{t-1}, x_t) - log pi(x_t) for Markov models.
    Hidden-Markov and mixture models return None, since their gap depends on
    the block.  Each entry is one table lookup, so equal entries are equal
    bit for bit.  Entries are meaningless where the word has probability 0.
    """
    return model._cut_penalties(_symbols(model, symbols))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def model_id(model: ProcessModel) -> str:
    """Stable 12-hex digest of the model parameters (canonical JSON)."""
    return hashlib.sha256(_canonical(model_to_dict(model)).encode()).hexdigest()[:12]


def sample_trajectory(model: ProcessModel, n: int, seed: int) -> Trajectory:
    """Sample a length-n trajectory; identical (model, n, seed) is bit-identical.

    ``n`` (at least 1) and ``seed`` (at least 0) are integers, not bools;
    numpy integers pass, and anything else is a PreconditionError naming it.
    Raises ModelFormatError, naming the failed invariants, for a model that
    ``validate_model`` rejects.  Draw order is fixed: i.i.d. uses one
    uniform per symbol (inverse CDF); Markov uses one uniform for the initial
    symbol then one per transition; hidden Markov draws the full hidden path
    first, then all emissions; mixtures draw the component label first and
    then delegate to it with the same generator.
    """
    _ruled(n, _K, "n", PreconditionError)
    _ruled(seed, _SEED, "seed", PreconditionError)
    _require_valid(model, "cannot sample")
    symbols, comp = model._sample(n, np.random.default_rng(seed))
    return Trajectory(symbols=symbols, seed=int(seed), model_id=model_id(model), component=comp)


# ---------------------------------------------------------------------------
# Exact enumeration of marginals
# ---------------------------------------------------------------------------


def level_probs(model: ProcessModel, n_max: int) -> Iterator:
    """Yield ``(n, P_n)`` for n = 1..n_max, with P_n over all rank-ordered words.

    Ranks are base-``|A|`` encodings with the first symbol most significant.
    Over ``ENUM_CAP`` atoms, CapExceededError comes first.
    """
    _ruled(n_max, _K, "n_max", PreconditionError)
    a = model.alphabet_size
    if a ** n_max > ENUM_CAP:
        raise CapExceededError(f"enumeration of {a}^{n_max} atoms exceeds the cap of {ENUM_CAP}")
    yield from model._levels(n_max)


def _levels(model: ProcessModel, lo: int, hi: int) -> list:
    """[P_lo, ..., P_hi] from one walk to ``hi``, with P_0 = [1]; no other level is kept."""
    return [np.ones(1)][lo:] + [level for k, level in level_probs(model, hi) if k >= lo]


def marginal_entropy(model: ProcessModel, n: int) -> float:
    """Exact Shannon entropy of the n-th marginal, by full enumeration (nats)."""
    _ruled(n, _K, "n", PreconditionError)
    return _entropy_of(*_levels(model, n, n))


def beta_sequence(model: ProcessModel, n_max: int) -> np.ndarray:
    """Increments H(P_n) - H(P_{n-1}) for n = 1..n_max, with H(P_0) = 0.

    Non-increasing, and flat from n = m+1 on exactly for Markov sources of
    order <= m; the limit is the entropy rate.
    """
    _ruled(n_max, _K, "n_max", PreconditionError)
    return np.diff([_entropy_of(level) for level in _levels(model, 0, n_max)])


def entropy_rate(model: ProcessModel) -> EntropyBracket:
    """Entropy rate as an exact point or a sandwich bracket (nats per symbol).

    i.i.d. and Markov models have closed forms.  Hidden-Markov models are
    bracketed between the conditional entropy of the next symbol given the
    past with and without the initial hidden state, both computed by exact
    enumeration and widening n until the width drops to ``RATE_TOL``; if
    the next level would exceed ``ENUM_CAP`` first, the bracket at the
    deepest level, the tightest one, is returned with ``converged=False``.
    Mixtures return the hull of their component brackets (the
    per-realization rate is not constant).
    """
    return model._rate()


def _tail_parsing_limit(h_half: float, K: int, h: float) -> float:
    """The tail parsing's limit (2 H(P_{K/2})/K + h)/2 at the rate value ``h``."""
    return 0.5 * (2.0 * h_half / K + h)


@dataclass(frozen=True)
class DiscrepancyGap:
    """Result of ``discrepancy_gap``: the gap and the enumerated quantities behind it."""

    gap: float
    h_bracket: EntropyBracket
    h_k: float                   # H(P_K)
    h_half: float                # H(P_{K/2})

    @property
    def bracket_width(self) -> float:
        return self.h_bracket.width


def discrepancy_gap(model: ProcessModel, K: int) -> DiscrepancyGap:
    """H(P_K)/K - (2 H(P_{K/2})/K + h)/2, positive iff the two-limit split exists.

    Zero (up to the reported bracket width) exactly when the model is Markov
    of order <= K; strictly positive otherwise.
    """
    _ruled(K, _EVEN_K, "K", PreconditionError)
    levels = _levels(model, K // 2, K)
    h_k, h_half = _entropy_of(levels[-1]), _entropy_of(levels[0])
    bracket = entropy_rate(model)
    gap = h_k / K - _tail_parsing_limit(h_half, K, bracket.mid)
    return DiscrepancyGap(gap=gap, h_bracket=bracket, h_k=h_k, h_half=h_half)


# ---------------------------------------------------------------------------
# Model files (JSON)
# ---------------------------------------------------------------------------


def _read_json(path, error: type) -> dict:
    """The JSON object in the file ``path``; else ``error`` naming the file (and line)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (OSError, ValueError) as exc:   # ValueError: the file is not UTF-8 text
        raise error(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{path}: expected a JSON object")
    return raw


def _write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` as ``_canonical`` writes it, but indented by 2 and LF-ended."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=np.generic.item)
        fh.write("\n")


def _canonical(obj) -> str:
    """``obj`` as compact JSON with sorted keys, a numpy scalar as the Python number it holds.

    This is the text behind every id, hash and params cell.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=np.generic.item)


def _one_of(names: tuple) -> tuple:
    """The rule that a value is one of ``names``."""
    return (lambda v: v in names, f"one of {sorted(names)}")


def _ruled(value, rule, where: str, error: type):
    """``value`` if it passes ``rule``, a (test, description) pair; else ``error``."""
    ok, what = rule
    if not ok(value):
        raise error(f"{where}: expected {what}, got {value!r}")
    return value


def _closed(section, rules: dict, where: str, error: type, optional: bool = False) -> dict:
    """``section`` if it is an object whose keys have ``rules`` and pass them; else ``error``.

    Every key of ``rules`` is required unless ``optional``.
    """
    if not isinstance(section, dict):
        raise error(f"{where}: expected an object")
    unknown = set(section) - set(rules)
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown)}")
    missing = set() if optional else set(rules) - set(section)
    if missing:
        raise error(f"{where}: missing keys {sorted(missing)}")
    for key, value in section.items():
        _ruled(value, rules[key], f"{where}.{key}", error)
    return section


def model_to_dict(model: ProcessModel) -> dict:
    return {"alphabet_size": model.alphabet_size, "variant": model._VARIANT, **model._params()}


def model_from_dict(d: dict, path: str = "$") -> ProcessModel:
    """Build a model from its dict form, a closed object typed by its variant's rules."""
    if not isinstance(d, dict):
        raise ModelFormatError(f"{path}: expected an object")
    variant = _one_of(tuple(_VARIANTS))
    cls = _VARIANTS[_ruled(d.get("variant"), variant, f"{path}.variant", ModelFormatError)]
    _closed(d, {"alphabet_size": _K, "variant": variant, **cls._RULES}, path, ModelFormatError)
    try:
        model = cls._from_params(d, path)
    except (ValueError, TypeError) as exc:
        raise ModelFormatError(f"{path}: malformed parameters ({exc})") from exc
    if model.alphabet_size != d["alphabet_size"]:
        raise ModelFormatError(f"{path}.alphabet_size: inconsistent with parameter shapes")
    return model


def load_model(path) -> ProcessModel:
    """Read and validate a model JSON file; raises ModelFormatError on problems."""
    model = model_from_dict(_read_json(path, ModelFormatError), f"{path}:$")
    _require_valid(model, str(path))
    return model


def save_model(model: ProcessModel, path) -> None:
    _write_json(path, model_to_dict(model))


# ---------------------------------------------------------------------------
# Bundled reference models
# ---------------------------------------------------------------------------


def reference_model(name: str) -> ProcessModel:
    """Reference sources used by the verification suites.

    - ``m1``: binary Markov chain with p(0->1)=0.3, p(1->0)=0.2, start (0.4, 0.6)
    - ``h1``: binary symmetric hidden-Markov source, hidden flip 0.1,
      emission fidelity 0.9
    - ``iid_uniform``: fair-coin product measure
    - ``mixture_m1_uniform``: equal-weight mixture of ``m1`` and ``iid_uniform``
    """
    _ruled(name, _one_of(REFERENCE_MODEL_NAMES), "name", PreconditionError)
    if name == "m1":
        return MarkovModel(transition=[[0.7, 0.3], [0.2, 0.8]], initial=[0.4, 0.6])
    if name == "h1":
        return HiddenMarkovModel(hidden_transition=[[0.9, 0.1], [0.1, 0.9]],
                                 hidden_initial=[0.5, 0.5],
                                 emission=[[0.9, 0.1], [0.1, 0.9]])
    if name == "iid_uniform":
        return IIDModel(p=[0.5, 0.5])
    return MixtureModel(weight=0.5, first=reference_model("m1"),   # mixture_m1_uniform
                        second=reference_model("iid_uniform"))


REFERENCE_MODEL_NAMES = ("m1", "h1", "iid_uniform", "mixture_m1_uniform")
