"""Command-line front end: verification suites, experiment runs, reports.

Three subcommands:

- ``verify [--suite S] [--model FILE ...] [--out DIR]`` runs the exact
  enumeration and construction checks on the bundled reference models and
  prints one residual row per check; exit 0 iff everything passes.
- ``simulate --config FILE [--workers K] [--out DIR]`` runs one experiment
  described by a JSON config and writes results.csv, summary.json and
  manifest.json; repeated runs of the same config produce byte-identical
  CSV regardless of the worker count.
- ``report DIR`` turns a completed run directory into plot-ready TSV files.

Exit codes: 0 pass; 2 a verify check or model file failed; 3 the experiment
raised a typed toolkit error (``ParsentropyError``); 4 a config, model file,
``manifest.json`` or ``results.csv`` that is missing, unreadable or breaks its
schema, or a bad ``--workers`` or suite.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ModelFormatError,
    ParsentropyError,
)
from .measures import (
    _EPSILON,
    _EVEN_K,
    _INTEGER,
    _K,
    _SEED,
    _canonical,
    _check,
    _closed,
    _entropy_of,
    _levels,
    _one_of,
    _read_json,
    _ruled,
    _write_json,
    RATE_TOL,
    EntropyBracket,
    ProcessModel,
    entropy_rate,
    load_model,
    model_id,
    reference_model,
    sample_trajectory,
)
from .martingale import (
    chain_rule_decomposition,
    expected_logz_check,
    truncated_decomposition,
    verify_martingale_property,
    zmax_tail_check,
)
from .parsing import (
    _PLAN,
    Parsing,
    ParserSpec,
    apply_perturbation_plan,
    make_parsing,
    validate_parsing,
    validate_perturbed,
)
from .estimator import (
    _BOTH_PARITIES,
    _DEPTHS,
    _EPSILONS,
    _GRID,
    _INDEX_FAMILY,
    _MODE,
    _OBSERVABLE,
    _ONE_LIMIT,
    _SEEDS,
    _TOL,
    TWO_LIMIT_TOL_REL,
    convergence_experiment,
    counterexample_experiment,
    perturbation_experiment,
    sublinear_birkhoff_check,
)

SEED_ALGORITHM = ("seedsequence-v1: per-trajectory seed i is the first uint64 state "
                  "word of numpy SeedSequence([master_seed, i])")

CSV_COLUMNS = [
    "N", "seed", "parser_family", "parser_params",
    "blockwise_info:estimate", "smb_info:estimate", "residual:estimate",
    "c_over_N:estimate", "target:oracle", "deviation:estimate",
]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# The section of each single-trajectory experiment: {key: rule}.  Only the
# birkhoff keys are optional; sublinear_birkhoff_check holds their defaults.
_SECTIONS = {
    "counterexample": {"K": _EVEN_K,
                       "epsilon_schedule": (lambda v: isinstance(v, list), "a list of numbers")},
    "perturbation": {"plan": _PLAN},
    "birkhoff": {"observable": _OBSERVABLE, "index_family": _INDEX_FAMILY,
                 "depth": _INTEGER},   # its minimum: _DEPTHS
}
_EXPERIMENTS = ("convergence", *_SECTIONS)
_SCHEMA_VERSION = (lambda v: _INTEGER[0](v) and v == 1, "the integer 1")
_TOP_KEYS = {"schema_version", "experiment", "model", "parser", "n_grid", "seeds", "mode",
             "tolerance", *_SECTIONS}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    experiment: str
    model_path: str
    parser_spec: Optional[ParserSpec]
    n_grid: tuple
    seeds: tuple
    mode: str
    tolerance: float
    section: dict     # the experiment's own section; {} for convergence

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(_canonical(self.raw).encode()).hexdigest()


def _expand_grid(spec, where: str) -> tuple:
    _ruled(spec, (lambda v: isinstance(v, list), "a list of lengths"), where, ConfigError)
    grid = sorted({_ruled(n, _K, f"{where}[{i}]", ConfigError) for i, n in enumerate(spec)})
    return _ruled(tuple(grid), _GRID, where, ConfigError)


def derive_seeds(master_seed: int, count: int) -> tuple:
    return tuple(
        int(np.random.SeedSequence([int(master_seed), i]).generate_state(1, dtype=np.uint64)[0])
        for i in range(count)
    )


def _expand_seeds(spec, where: str) -> tuple:
    if isinstance(spec, list):
        seeds = tuple(_ruled(s, _SEED, f"{where}[{i}]", ConfigError) for i, s in enumerate(spec))
    elif isinstance(spec, dict):
        _closed(spec, {"count": _K, "master_seed": _SEED}, where, ConfigError)
        seeds = derive_seeds(spec["master_seed"], spec["count"])
    else:
        raise ConfigError(f"{where}: expected a list or a count/master_seed object")
    return _ruled(seeds, (lambda s: len(s) > 0, "at least one seed"), where, ConfigError)


def parse_config(path) -> ExperimentConfig:
    raw = _read_json(path, ConfigError)
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    _ruled(raw.get("schema_version"), _SCHEMA_VERSION, f"{path}:schema_version", ConfigError)
    experiment = _ruled(raw.get("experiment"), _one_of(_EXPERIMENTS), f"{path}:experiment", ConfigError)
    if "model" not in raw or not isinstance(raw["model"], str):
        raise ConfigError(f"{path}: 'model' must be a file path")
    if "n_grid" not in raw or "seeds" not in raw:
        raise ConfigError(f"{path}: 'n_grid' and 'seeds' are required")
    grid = _expand_grid(raw["n_grid"], f"{path}:n_grid")
    seeds = _expand_seeds(raw["seeds"], f"{path}:seeds")
    mode = _ruled(raw.get("mode", "as"), _MODE, f"{path}:mode", ConfigError)
    tolerance = float(_ruled(raw.get("tolerance", 0.01), _TOL, f"{path}:tolerance", ConfigError))
    if experiment != "convergence" and (len(seeds) != 1 or mode != "as"):
        raise ConfigError(f"{path}: the {experiment} experiment follows one trajectory; "
                          "it needs exactly one seed and mode 'as'")
    _ruled(seeds, _SEEDS[mode], f"{path}:seeds", ConfigError)
    if experiment == "counterexample" and "tolerance" in raw:
        raise ConfigError(f"{path}:tolerance: not used by the counterexample experiment, whose "
                          f"verdict allows {TWO_LIMIT_TOL_REL:.0%} of each limit")

    parser_spec = None
    if experiment in ("convergence", "perturbation"):
        p = raw.get("parser")
        if not isinstance(p, dict) or "family" not in p:
            raise ConfigError(f"{path}: 'parser' with a 'family' is required for {experiment}")
        params = {k: v for k, v in p.items() if k != "family"}
        try:
            parser_spec = ParserSpec(family=p["family"], params=params)
        except ValueError as exc:
            raise ConfigError(f"{path}:parser: {exc}") from exc
        _ruled(parser_spec.family, _ONE_LIMIT, f"{path}:parser.family", ConfigError)
    elif "parser" in raw:
        raise ConfigError(f"{path}: 'parser' is not used by the {experiment} experiment")

    for name in _SECTIONS:
        if name != experiment and name in raw:
            raise ConfigError(f"{path}: '{name}' only applies to the {name} experiment")
    section, where = {}, f"{path}:{experiment}"   # convergence has no section
    if experiment in _SECTIONS:
        section = _closed(raw.get(experiment, {}), _SECTIONS[experiment], where, ConfigError,
                          optional=experiment == "birkhoff")
    if experiment == "counterexample":   # each epsilon, their order, then the grid's parities
        schedule, where = section["epsilon_schedule"], f"{where}.epsilon_schedule"
        for i, e in enumerate(schedule):
            _ruled(e, _EPSILON, f"{where}[{i}]", ConfigError)
        _ruled(schedule, _EPSILONS, where, ConfigError)
        _ruled(grid, _BOTH_PARITIES, f"{path}:n_grid", ConfigError)
    if experiment == "birkhoff":   # the observable's least depth, defaults as in the call
        args = inspect.signature(sublinear_birkhoff_check).bind_partial(**section)
        args.apply_defaults()
        _ruled(args.arguments["depth"], _DEPTHS[args.arguments["observable"]], f"{where}.depth",
               ConfigError)

    return ExperimentConfig(
        raw=raw, experiment=experiment, model_path=raw["model"], parser_spec=parser_spec,
        n_grid=grid, seeds=seeds, mode=mode, tolerance=tolerance, section=section,
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _records_to_csv(path, header, rows, delimiter: str = ",") -> None:
    """Write ``header`` and ``rows`` to ``path``, fields split by ``delimiter``, LF line ends.

    Every table the CLI emits goes through here; perfbench's tracer times it
    by this name as the ``cli.emit`` layer.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _target_dict(target) -> dict:
    return {"lower": _round12(target.lower), "upper": _round12(target.upper),
            "mid": _round12(target.mid)}


def _rate_section(bracket: Optional[EntropyBracket]) -> dict:
    """``oracle.rate``: the entropy-rate bracket a target was built from; none for exact ones."""
    if bracket is None:
        return {}
    return {"rate": {"lower": _round12(bracket.lower), "upper": _round12(bracket.upper),
                     "width": _round12(bracket.width), "n_used": bracket.n_used,
                     "converged": bracket.converged}}


def _verdict(ok) -> str:
    return "pass" if ok else "fail"


def _experiment(config: ExperimentConfig, model: ProcessModel, map_fn=map) -> tuple:
    """Run the configured experiment: (verdict, summary.json sections, results.csv header, rows).

    ``map_fn`` spreads convergence seeds over workers.  The rows are a
    generator, so they are formatted as they are written.
    """
    tolerance = {"tolerance": _round12(config.tolerance)}
    if config.experiment == "birkhoff":
        report = sublinear_birkhoff_check(model, N_grid=config.n_grid, seed=config.seeds[0],
                                          tol=config.tolerance, **config.section)
        sections = {"birkhoff": {
            "observable": report.observable,
            "index_family": report.index_family,
            "depth": report.depth,
            "rows": [[n, _round12(v)] for n, v in report.rows],
            "final_value": _round12(report.final_value),
            "verdict": _verdict(report.verdict),
        }, **tolerance}
        header = ["N", "seed", "observable", "index_family", "depth", "value:estimate"]
        rows = ([n, config.seeds[0], report.observable, report.index_family, report.depth,
                 _fmt(v)] for n, v in report.rows)
        return report.verdict, sections, header, rows
    if config.experiment == "counterexample":   # its verdict writes its own tolerances
        cx = config.section
        report = counterexample_experiment(model, cx["K"], cx["epsilon_schedule"], config.n_grid,
                                           config.seeds[0])
        sections = {
            "oracle": {
                "limit_even": _round12(report.limit_even),
                "limit_odd": _target_dict(report.limit_odd),
                "gap": _round12(report.gap),
                "h_bracket_width": _round12(report.h_bracket.width),
                **_rate_section(report.h_bracket),
            },
            "results": {
                "even_tail_avg": _round12(report.even_tail_avg),
                "odd_tail_avg": _round12(report.odd_tail_avg),
                "parity_gap": _round12(report.parity_gap),
                "tol_even": _round12(report.tol_even),
                "tol_odd": _round12(report.tol_odd),
                "tol_gap": _round12(report.tol_gap),
                "even": _verdict(report.even_ok),
                "odd": _verdict(report.odd_ok),
                "gap": _verdict(report.gap_ok),
                "verdict": _verdict(report.verdict),
            },
        }
    else:   # one report shape for convergence and perturbation
        if config.experiment == "convergence":
            report = convergence_experiment(
                model, config.parser_spec, config.n_grid, config.seeds,
                target_mode=config.mode, tol=config.tolerance, map_fn=map_fn)
        else:
            report = perturbation_experiment(
                model, config.parser_spec, config.section["plan"],
                config.n_grid, config.seeds[0], tol=config.tolerance)
        sections = {   # a perturbation's section is its plan
            "parser": {"family": config.parser_spec.family, "params": config.parser_spec.params,
                       **config.section},
            "oracle": {"target": _target_dict(report.target), **_rate_section(report.target.rate)},
            "results": {
                "tail_deviation": _round12(report.tail_deviation),
                "l1_deviation": _round12(report.l1_deviation),
                "effective_tolerance": _round12(report.effective_tol),
                "verdict": _verdict(report.verdict),
            },
            **tolerance,
        }
    rows = ([r.N, r.seed, r.parser_family, r.parser_params, _fmt(r.blockwise_info),
             _fmt(r.smb_info), _fmt(r.residual), _fmt(r.c_over_N), _fmt(r.target.mid),
             _fmt(r.deviation)] for r in sorted(report.series, key=lambda r: (r.seed, r.N)))
    return report.verdict, sections, CSV_COLUMNS, rows


def cmd_simulate(config_path: str, workers: Optional[int] = None,
                 out_dir: Optional[str] = None) -> int:
    try:
        config = parse_config(config_path)
        model = load_model(Path(config_path).parent / config.model_path
                           if not os.path.isabs(config.model_path) else config.model_path)
        n_workers = _ruled((os.cpu_count() or 1) if workers is None else workers, _K, "workers",
                           ConfigError)
    except (ConfigError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    wall: dict = {}
    try:
        t0 = time.perf_counter()
        # only an l1 convergence run has cells to spread: one per seed
        pool_size = min(n_workers, len(config.seeds)) if config.mode == "l1" else 1
        if pool_size > 1:
            with ProcessPoolExecutor(max_workers=pool_size) as pool:
                ok, sections, header, rows = _experiment(config, model, pool.map)
        else:
            ok, sections, header, rows = _experiment(config, model)
        wall["estimation"] = time.perf_counter() - t0
    except ParsentropyError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3

    out = Path(out_dir or "runs") / config.config_hash[:12]   # only a run with a report
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "experiment": config.experiment,
        "model_id": model_id(model),
        "mode": config.mode,
        "units": "nats",
        **sections,
    }
    verdict = _verdict(ok)
    rate = summary.get("oracle", {}).get("rate")
    warnings = [] if rate is None or rate["converged"] else [
        f"the entropy-rate bracket did not converge: width {rate['width']:.3e} nats > "
        f"{RATE_TOL:.0e} at n_used = {rate['n_used']}; the verdict counts every value inside "
        "it as on target"]
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    t0 = time.perf_counter()
    _records_to_csv(out / "results.csv", header, rows)
    _write_json(out / "summary.json", summary)
    wall["emission"] = time.perf_counter() - t0
    _write_json(out / "manifest.json", {
        "tool_version": __version__,
        "config_hash": config.config_hash,
        "experiment": config.experiment,
        "model_id": model_id(model),
        "seed_algorithm": SEED_ALGORITHM,
        "oracle_values": summary.get("oracle", summary.get("birkhoff")),
        "verdicts": {config.experiment: verdict},
        "warnings": warnings,
        "wall_clock_s": {k: round(v, 3) for k, v in wall.items()},
        "workers": pool_size,
        "emitted": ["results.csv", "summary.json"],
    })
    print(f"run complete: {out}")
    print(f"  {config.experiment}: {verdict}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# A verify row is (model id, parameters, ValidationCheck); measures._check decides its pass.
def _model_rows(model: ProcessModel, params: str) -> list:
    """One ``model.<check>`` row per validation check of ``model``."""
    mid = model_id(model)
    return [(mid, params, check) for check in model._checks("model.")]


def _measures_rows(name: str) -> list:
    model = reference_model(name)
    mid, a = model_id(model), model.alphabet_size
    *levels, p10, p11 = _levels(model, 0, 11)
    entropies = [_entropy_of(level) for level in levels[:9]]   # H(P_0), ..., H(P_8)
    betas = np.diff(entropies)
    ratios = [h / n for n, h in enumerate(entropies) if n]
    checks = (   # (check, parameters, residual, bound)
        ("normalization", f"{name},n=11", abs(float(p11.sum()) - 1.0), 1e-10),
        ("kolmogorov_consistency", f"{name},n=10",
         float(np.abs(p11.reshape(-1, a).sum(axis=1) - p10).max()), 1e-12),
        ("shift_stationarity", f"{name},n=10",
         float(np.abs(p11.reshape(a, -1).sum(axis=0) - p10).max()), 1e-12),
        ("cylinder_monotonicity", f"{name},n=10",
         max(0.0, float((p11.reshape(-1, a) - p10[:, None]).max())), 1e-15),
        ("beta_nonincreasing", f"{name},n_max=8", max(0.0, float(np.diff(betas).max())), 1e-9),
        ("beta_final_above_rate", f"{name},n_max=8",
         max(0.0, entropy_rate(model).lower - float(betas[-1])), 1e-9),
        ("entropy_per_symbol_nonincreasing", name, max(0.0, float(np.diff(ratios).max())), 1e-9),
    )
    return _model_rows(model, name) + [(mid, params, _check(check, residual, bound))
                                       for check, params, residual, bound in checks]


def _martingale_rows(name: str) -> list:
    model = reference_model(name)
    mid = model_id(model)
    excess = max(0.0, *(max(row.tail_prob - row.ratio_bound, row.log_tail_prob - row.exp_bound)
                        for row in zmax_tail_check(model, 10, (1.5, 2.0, 3.0, 5.0))))
    traj = sample_trajectory(model, 10_001, seed=7)
    checks = (   # (check, parameters, residual, bound)
        ("martingale_one_step", f"{name},n=6", verify_martingale_property(model, 6), 1e-10),
        ("expected_logz", f"{name},n=6", expected_logz_check(model, 6), 1e-10),
        ("zmax_tail_bounds", f"{name},n=10,t=(1.5,2,3,5)", excess, 0.0),
        ("chain_rule_identity", f"{name},n=10000",
         abs(chain_rule_decomposition(model, traj, 10_000).identity_residual), 1e-9),
        ("truncated_identity", f"{name},n=1000,M=2",
         abs(truncated_decomposition(model, traj, 1000, 2).identity_residual), 1e-9),
    )
    return [(mid, params, _check(check, residual, bound))
            for check, params, residual, bound in checks]


# The parsing suite's parsings: check -> (source model, family, params, N, parameters text).
# Each source gives make_parsing its model, a 10001-symbol trajectory (seed 7) and its rate.
_PARSINGS = {
    "parse_fixed": ("m1", "fixed", {"K": 4}, 10_000, "K=4,N=10000"),
    "parse_growing_sqrt": ("m1", "growing", {"schedule": "sqrt"}, 10_000, "N=10000"),
    "parse_growing_log2": ("m1", "growing", {"schedule": "log2"}, 10_000, "N=10000"),
    "parse_lz78": ("m1", "lz78", {}, 10_000, "N=10000"),
    "parse_random_sublinear": ("m1", "random_sublinear", {"budget": "sqrt", "seed": 5}, 10_000,
                               "budget=sqrt,N=10000"),
    "parse_adversarial": ("m1", "adversarial", {"budget": 32}, 2_000, "budget=32,N=2000"),
    "parse_counterexample_v": ("h1", "counterexample_v", {"K": 4, "epsilon": 0.05}, 9_999,
                               "K=4,eps=0.05,N=9999"),
    "parse_counterexample_w_even": ("h1", "counterexample_w", {"K": 4, "epsilon": 0.05}, 10_000,
                                    "K=4,N=10000"),
}


def _parsing_rows() -> list:
    sources = {}   # source: (model id, make_parsing's model, traj and h_ref)
    for name in ("m1", "h1"):
        model = reference_model(name)
        sources[name] = (model_id(model), model, sample_trajectory(model, 10_001, seed=7),
                         entropy_rate(model).mid)
    rows, parsings = [], {}   # a yes/no check's residual is 1.0 when it fails
    for check, (source, family, params, n, text) in _PARSINGS.items():
        mid, *inputs = sources[source]
        parsing = parsings[check] = make_parsing(ParserSpec(family, params), n, *inputs)
        rows.append((mid, text, _check(check, not validate_parsing(parsing, n).passed, 0.0)))

    mid_m1, _, traj, _ = sources["m1"]
    lz = parsings["parse_lz78"]
    phrases = [traj.symbols[s:e].tobytes() for s, e in zip(lz.starts[:-1], lz.ends[:-1])]
    rows.append((mid_m1, "N=10000",
                 _check("lz78_distinct_phrases", len(phrases) - len(set(phrases)), 0.0)))

    source, _, tail, n_v, text = _PARSINGS["parse_counterexample_v"]
    c = parsings["parse_counterexample_v"].c
    low = n_v * (1 - 2 * tail["epsilon"]) / tail["K"] - 1
    high = n_v / tail["K"] + 1
    rows.append((sources[source][0], text,
                 _check("tail_parsing_block_count", max(0.0, low - c, c - high), 0.0)))

    base = parsings["parse_growing_sqrt"]
    for plan in ("trim1", "extend1"):
        failed = not validate_perturbed(apply_perturbation_plan(base, plan)).passed
        rows.append((mid_m1, "growing sqrt,N=10000", _check(f"perturbation_{plan}", failed, 0.0)))

    text = base.to_text()
    changed = Parsing.from_text(text).to_text() != text
    rows.append((mid_m1, "growing sqrt,N=10000",
                 _check("parsing_serialization_roundtrip", changed, 0.0)))
    return rows


_REFERENCE = ("iid_uniform", "m1", "h1")
# verify's suites, each a function that builds its rows; "all" runs them in this order
_SUITES = {
    "measures": lambda: [row for name in (*_REFERENCE, "mixture_m1_uniform")
                         for row in _measures_rows(name)],
    "martingale": lambda: [row for name in _REFERENCE for row in _martingale_rows(name)],
    "parsing": _parsing_rows,
}


def cmd_verify(suite: str = "all", model_files=(), out_dir: Optional[str] = None) -> int:
    if suite != "all" and suite not in _SUITES:
        print(f"error: unknown suite {suite!r}", file=sys.stderr)
        return 4
    rows = [row for name in (_SUITES if suite == "all" else [suite]) for row in _SUITES[name]()]
    for path in model_files:
        try:
            model = load_model(path)
        except ModelFormatError as exc:
            rows.append(("-", str(path), _check("model_file", 1.0, 0.0)))
            print(f"model file invalid: {exc}", file=sys.stderr)
            continue
        rows.extend(_model_rows(model, str(path)))

    width = max(len(check.name) for _, _, check in rows) + 2
    print(f"{'check':<{width}}{'model':<14}{'residual':>12}  {'bound':>9}  status")
    for mid, _, check in rows:
        print(f"{check.name:<{width}}{mid:<14}{check.residual:>12.3e}  "
              f"{check.bound:>9.1e}  {'pass' if check.passed else 'FAIL'}")
    failed = sum(not check.passed for _, _, check in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")

    if out_dir is not None:
        outp = Path(out_dir)
        outp.mkdir(parents=True, exist_ok=True)
        _records_to_csv(outp / "verify_results.csv",
                        ["check_name", "model_id", "parameters", "residual", "bound", "pass"],
                        ([check.name, mid, params, _fmt(check.residual), _fmt(check.bound),
                          _verdict(check.passed)] for mid, params, check in rows))
    return 0 if not failed else 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _results_row(row: dict, line: int) -> dict:
    """A row of results.csv, refused unless it fills the header and N and seed are integers."""
    if None in row or None in row.values():   # DictReader's marks of a long or a short row
        raise ValueError(f"line {line}: the row's field count differs from the header's")
    for column in ("N", "seed"):
        if not row.get(column, "0").isdecimal():   # digits only, as simulate writes them
            raise ValueError(f"line {line}: {column} is {row[column]!r}, not an integer >= 0")
    return row


def cmd_report(run_dir: str) -> int:
    run = Path(run_dir)
    results = run / "results.csv"
    try:
        manifest = _read_json(run / "manifest.json", ParsentropyError)
        experiment = manifest.get("experiment")
        columns = ["N", "value:estimate"] if experiment == "birkhoff" else CSV_COLUMNS
        with open(results, newline="") as fh:
            reader = csv.DictReader(fh)
            if not set(columns) <= set(reader.fieldnames or ()):
                raise ValueError(f"expected the columns {columns}, got {reader.fieldnames}")
            data = [_results_row(row, reader.line_num) for row in reader]
    except ParsentropyError as exc:   # the manifest
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, csv.Error) as exc:   # results.csv; ValueError: not UTF-8 too
        print(f"error: {results}: {exc}", file=sys.stderr)
        return 4
    mid = manifest.get("model_id", "model")

    if experiment == "birkhoff":
        out = run / f"plot__{mid}__birkhoff.tsv"
        _records_to_csv(out, columns, ([row[c] for c in columns] for row in data), "\t")
        print(f"wrote {out}")
        return 0

    families = sorted({row["parser_family"] for row in data})
    oracle = manifest.get("oracle_values") or {}
    for family in families:
        out = run / f"plot__{mid}__{family}.tsv"
        rows = [row for row in data if row["parser_family"] == family]
        rows.sort(key=lambda row: (int(row["N"]), int(row["seed"])))
        if experiment == "counterexample":
            columns = ["N", "parity", "blockwise_info:estimate", "limit_even:oracle",
                       "limit_odd:oracle"]
            even, odd = oracle.get("limit_even"), (oracle.get("limit_odd") or {}).get("mid")
            table = ([row["N"], "odd" if int(row["N"]) % 2 else "even",
                      row["blockwise_info:estimate"], even, odd] for row in rows)
        else:
            columns = ["N", "seed", "blockwise_info:estimate", "target:oracle",
                       "deviation:estimate"]
            table = ([row[column] for column in columns] for row in rows)
        _records_to_csv(out, columns, table, "\t")
        print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parsentropy",
        description="Blockwise information of parsed stationary sources: "
                    "verification suites and convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run exact verification suites")
    p_verify.add_argument("--suite", default="all", choices=[*_SUITES, "all"])
    p_verify.add_argument("--model", action="append", default=[],
                          help="additional model JSON file to validate (repeatable)")
    p_verify.add_argument("--out", default=None, help="directory for verify_results.csv")

    p_sim = sub.add_parser("simulate", help="run one experiment from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CPU count)")
    p_sim.add_argument("--out", default=None, help="output directory root")

    p_rep = sub.add_parser("report", help="emit plot-ready TSV tables for a run")
    p_rep.add_argument("run_dir")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.suite, args.model, args.out)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.workers, args.out)
    return cmd_report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
