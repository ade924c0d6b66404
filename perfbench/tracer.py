"""Layer tracer: times parsentropy's layers from outside, without touching src/.

``Tracer.install`` rebinds each traced public function in every parsentropy
module that holds it (``from .measures import x`` makes a second binding, so
patching the defining module alone would miss calls made through the copy).
``Tracer.uninstall`` puts every original object back.

A span records its layer name, a label, start, end, parent and process id.
A span opens only at the outermost call into its layer, so recursion (the
mixture engines, ``make_parsing`` -> ``parse_fixed``) folds into one span;
counts follow the same rule per counting group.  Spans stay in memory and
the pass runner writes them out when the pass ends.  In the process pool,
each cell runs under ``run_cell`` in the worker and ships its spans and
counts back with its result, so worker time reaches the trace.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import parsentropy
from parsentropy import cli, estimator, martingale, measures, parsing

MODULES = (parsentropy, measures, parsing, estimator, martingale, cli)


def _scan_counts(kind):
    def count(tracer, args, result):
        n = {f"measures.{kind}_symbols": len(args["symbols"]), f"measures.{kind}_calls": 1}
        if tracer.parse_label == "adversarial":
            n["parsing.adversarial_scans"] = 1
        return n
    return count


def _block_counts(tracer, args, result):
    starts = np.asarray(args["starts"])
    return {"measures.block_eval_blocks": int(starts.shape[0]),
            "measures.block_eval_symbols": int((np.asarray(args["ends"]) - starts).sum())}


def _parse_counts(tracer, args, result):
    n = {"parsing.blocks": int(result.c)}
    if tracer.parse_label == "adversarial":
        n["parsing.adversarial_cuts"] = int(result.c) - 1
    return n


def _record_counts(tracer, args, result):
    rows = result.rows if hasattr(result, "rows") else result.series
    return {"estimator.records": len(rows)}


def _family_of_spec(args):
    return args["spec"].family


PARSER_FAMILIES = ("fixed", "growing", "lz78", "random_sublinear", "adversarial",
                   "counterexample_v", "counterexample_w")

# (module, function, layer, counting group, count function, label).  The label
# names the parser family in the parsing layer (make_parsing reads it from the
# spec, parse_<family> from its name) and the function elsewhere.
TRACED = (
    (measures, "sample_trajectory", "measures.sample", "sample",
     lambda t, a, r: {"measures.sample_symbols": int(a["n"])}, None),
    (measures, "prefix_log_probs", "measures.prefix_scan", "prefix",
     _scan_counts("prefix_scan"), None),
    (measures, "suffix_log_probs", "measures.suffix_scan", "suffix",
     _scan_counts("suffix_scan"), None),
    (measures, "block_log_probs", "measures.block_eval", "block", _block_counts, None),
    (measures, "level_probs", "measures.enum", "level_probs", None, None),
    (measures, "marginal_entropy", "measures.enum", None, None, None),
    (measures, "entropy_rate", "measures.enum", None, None, None),
    (measures, "discrepancy_gap", "measures.enum", None, None, None),
    (parsing, "make_parsing", "parsing.parse", "parse", _parse_counts, _family_of_spec),
    *[(parsing, f"parse_{family}", "parsing.parse", "parse", _parse_counts, None)
      for family in PARSER_FAMILIES],
    (estimator, "convergence_experiment", "estimator.self", "experiment", _record_counts, None),
    (estimator, "counterexample_experiment", "estimator.self", "experiment", _record_counts, None),
    (estimator, "perturbation_experiment", "estimator.self", "experiment", _record_counts, None),
    (estimator, "sublinear_birkhoff_check", "estimator.self", "experiment", _record_counts, None),
    (estimator, "oracle_target", "estimator.oracle", None, None, None),
    (martingale, "verify_martingale_property", "martingale.verify", None, None, None),
    (martingale, "expected_logz_check", "martingale.verify", None, None, None),
    (martingale, "zmax_tail_check", "martingale.verify", None, None, None),
    (martingale, "chain_rule_decomposition", "martingale.verify", None, None, None),
    (martingale, "truncated_decomposition", "martingale.verify", None, None, None),
    (cli, "parse_config", "cli.config", None, None, None),
    (cli, "_records_to_csv", "cli.emit", None, None, None),
    (cli, "cmd_simulate", "cli.self", None, None, None),
    (cli, "cmd_verify", "cli.self", None, None, None),
)
_active = None  # the installed Tracer of this process, for pool cells


def traced_bindings():
    """(module, attribute, original object) for every binding ``install`` rebinds."""
    out = []
    for home, name, *_ in TRACED:
        original = getattr(home, name)
        out += [(m, name, original) for m in MODULES if getattr(m, name, None) is original]
    out += [(m, "ProcessPoolExecutor", ProcessPoolExecutor) for m in MODULES
            if getattr(m, "ProcessPoolExecutor", None) is ProcessPoolExecutor]
    return out


class Tracer:
    """Spans and counts of one process; install() patches, uninstall() restores."""

    def __init__(self):
        self._saved = []
        self._clear()

    def _clear(self):
        self.pid = os.getpid()
        self.spans = []     # [id, layer, label, start, end, parent id, pid]
        self.counts = Counter()
        self.pool_capacity_s = 0.0   # sum over pools of workers x pool wall time
        self._stack = []
        self._layer_depth = Counter()
        self._group_depth = Counter()
        self._ids = itertools.count()
        self.parse_label = None

    # -- spans -------------------------------------------------------------
    def _enter(self, layer, label, group):
        """Open a span unless ``layer`` is already open; returns the exit token."""
        span = None
        if self._layer_depth[layer] == 0:
            parent = self._stack[-1][0] if self._stack else None
            span = [f"{self.pid}.{next(self._ids)}", layer, label, time.perf_counter(),
                    None, parent, self.pid]
            self._stack.append(span)
            if layer == "parsing.parse":
                self.parse_label = label
        self._layer_depth[layer] += 1
        if group is not None:
            self._group_depth[group] += 1
        return span, layer, group

    def _exit(self, token, counts=None):
        span, layer, group = token
        self._layer_depth[layer] -= 1
        outermost = True
        if group is not None:
            self._group_depth[group] -= 1
            outermost = self._group_depth[group] == 0
        if counts is not None and outermost:
            self.counts.update(counts(self) if callable(counts) else counts)
        if span is not None:
            span[4] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
            if layer == "parsing.parse":
                self.parse_label = None

    @contextlib.contextmanager
    def span(self, layer, label=None):
        token = self._enter(layer, label, None)
        try:
            yield
        finally:
            self._exit(token)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, layer, group, count, label):
        sig = inspect.signature(fn)
        tracer = self

        def label_of(args):
            return label(args) if label else fn.__name__.removeprefix("parse_")

        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator: the consumer's code between
            # yields belongs to the consumer, not to this layer.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                gen = fn(*args, **kwargs)
                a = bound["model"].alphabet_size
                try:
                    while True:
                        token = tracer._enter(layer, label_of(bound), group)
                        try:
                            item = next(gen)
                        except StopIteration:
                            tracer._exit(token)
                            return
                        except BaseException:
                            tracer._exit(token)
                            raise
                        tracer._exit(token, {"measures.enum_atoms": a ** item[0]})
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            token = tracer._enter(layer, label_of(bound), group)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(token)
                raise
            tracer._exit(token, count and (lambda t: count(t, bound, result)))
            return result
        return wrapper

    def install(self):
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed in this process")
        wrappers = {}
        for home, name, layer, group, count, label in TRACED:
            wrappers[name] = self._wrap(getattr(home, name), layer, group, count, label)
        self._saved = traced_bindings()
        for module, name, _ in self._saved:
            setattr(module, name, TracedPool if name == "ProcessPoolExecutor" else wrappers[name])
        _active = self

    def uninstall(self):
        global _active
        for module, name, original in self._saved:
            setattr(module, name, original)
        self._saved = []
        _active = None


def run_cell(fn, arg):
    """Pool-worker side of TracedPool.map: run one cell under a worker root span."""
    tracer = _active
    if tracer is None:        # spawned worker: patch this fresh interpreter
        tracer = Tracer()
        tracer.install()
    elif tracer.pid != os.getpid():   # forked worker: drop the parent's open spans
        tracer._clear()
    start = len(tracer.spans)
    before = Counter(tracer.counts)
    with tracer.span("estimator.self", "pool_cell"):
        value = fn(arg)
    return value, tracer.spans[start:], dict(tracer.counts - before)


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that times the parent's waits and collects worker spans."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._opened = time.perf_counter()

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        tracer = _active
        with tracer.span("cli.pool_wait", "map"):
            cells = list(super().map(run_cell, itertools.repeat(fn), *iterables,
                                     timeout=timeout, chunksize=chunksize))
        values = []
        for value, spans, counts in cells:
            tracer.spans.extend(spans)
            tracer.counts.update(counts)
            values.append(value)
        return iter(values)

    def shutdown(self, wait=True, **kwargs):
        tracer = _active
        with tracer.span("cli.pool_wait", "shutdown"):
            super().shutdown(wait, **kwargs)
        tracer.pool_capacity_s += self._max_workers * (time.perf_counter() - self._opened)


def self_times(spans):
    """Map span id -> duration minus the time its child spans cover."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[5] is not None and s[5] in own:
            own[s[5]] -= s[4] - s[3]
    return own


def layer_metrics(spans, counts, pool_capacity_s):
    """Per-layer metrics of one traced pass: self times by layer plus counts."""
    out = {name: 0.0 for name in LAYER_TIMES}
    out.update({f"parsing.self_s.{f}": 0.0 for f in PARSER_FAMILIES})
    own = self_times(spans)
    busy = 0.0
    for s in spans:
        key = f"parsing.self_s.{s[2]}" if s[1] == "parsing.parse" else f"{s[1]}_s"
        out[key] = out.get(key, 0.0) + own[s[0]]
        if s[2] == "pool_cell":
            busy += s[4] - s[3]
    for name in COUNTS:
        out[name] = int(counts.get(name, 0))
    cuts = counts.get("parsing.adversarial_cuts", 0)
    out["parsing.adversarial_scans_per_cut"] = (
        counts.get("parsing.adversarial_scans", 0) / cuts if cuts else 0.0)
    out["cli.pool_busy_frac"] = busy / pool_capacity_s if pool_capacity_s else 0.0
    return out


LAYER_TIMES = ("measures.sample_s", "measures.prefix_scan_s", "measures.suffix_scan_s",
               "measures.block_eval_s", "measures.enum_s", "estimator.self_s",
               "estimator.oracle_s", "martingale.verify_s", "cli.config_s", "cli.emit_s",
               "cli.self_s", "cli.pool_wait_s")
COUNTS = ("measures.sample_symbols", "measures.prefix_scan_symbols",
          "measures.prefix_scan_calls", "measures.suffix_scan_symbols",
          "measures.suffix_scan_calls", "measures.block_eval_blocks",
          "measures.block_eval_symbols", "measures.enum_atoms", "parsing.blocks",
          "estimator.records")
