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

Exit codes: 0 pass, 2 invariant failure, 3 experiment precondition failure,
4 I/O, config, or manifest error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
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
    ProcessModel,
    beta_sequence,
    entropy_rate,
    level_probs,
    load_model,
    marginal_entropy,
    model_id,
    reference_model,
    sample_trajectory,
    validate_model,
)
from .martingale import (
    chain_rule_decomposition,
    expected_logz_check,
    truncated_decomposition,
    verify_martingale_property,
    zmax_tail_check,
)
from .parsing import (
    _K,
    _PARSERS,
    _SEED,
    PERTURBATION_PLANS,
    Parsing,
    ParserSpec,
    apply_perturbation_plan,
    make_parsing,
    parse_counterexample_v,
    parse_lz78,
    validate_parsing,
    validate_perturbed,
)
from .estimator import (
    BIRKHOFF_OBSERVABLES,
    INDEX_FAMILIES,
    TWO_LIMIT_TOL_REL,
    BirkhoffSeries,
    CounterexampleReport,
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

# A config value's rule: a test and what the value must be, as in parsing._PARSERS.
_POSITIVE = (lambda v: type(v) in (int, float) and 0 < v < math.inf, "a positive number")


def _one_of(names: tuple) -> tuple:
    """The rule that a value is one of ``names``."""
    return (lambda v: v in names, f"one of {sorted(names)}")


# The section of each single-trajectory experiment: {key: rule}.  Only the
# birkhoff keys are optional; sublinear_birkhoff_check holds their defaults.
_SECTIONS = {
    "counterexample": {"K": _PARSERS["counterexample_w"]["K"],
                       "epsilon_schedule": (lambda v: isinstance(v, list), "a list of numbers")},
    "perturbation": {"plan": _one_of(tuple(PERTURBATION_PLANS))},
    "birkhoff": {"observable": _one_of(BIRKHOFF_OBSERVABLES),
                 "index_family": _one_of(INDEX_FAMILIES), "depth": _K},
}
_EXPERIMENTS = ("convergence", *_SECTIONS)
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
        payload = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _ruled(value, rule, where: str):
    """``value`` if it passes ``rule``, a (test, description) pair; else ConfigError."""
    ok, what = rule
    if not ok(value):
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    return value


def _closed(section, rules: dict, where: str, optional: bool = False) -> dict:
    """``section`` if it is an object whose keys have ``rules`` and pass them; else ConfigError.

    Every key of ``rules`` is required unless ``optional``.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(section) - set(rules)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set() if optional else set(rules) - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    for key, value in section.items():
        _ruled(value, rules[key], f"{where}.{key}")
    return section


def _expand_grid(spec, where: str) -> tuple:
    if not isinstance(spec, list):
        raise ConfigError(f"{where}: expected a list of lengths, got {spec!r}")
    grid = sorted({_ruled(n, _K, f"{where}[{i}]") for i, n in enumerate(spec)})
    if not grid:
        raise ConfigError(f"{where}: need at least one length")
    return tuple(grid)


def derive_seeds(master_seed: int, count: int) -> tuple:
    return tuple(
        int(np.random.SeedSequence([int(master_seed), i]).generate_state(1, dtype=np.uint64)[0])
        for i in range(count)
    )


def _expand_seeds(spec, where: str) -> tuple:
    if isinstance(spec, list):
        seeds = tuple(_ruled(s, _SEED, f"{where}[{i}]") for i, s in enumerate(spec))
    elif isinstance(spec, dict):
        _closed(spec, {"count": _K, "master_seed": _SEED}, where)
        seeds = derive_seeds(spec["master_seed"], spec["count"])
    else:
        raise ConfigError(f"{where}: expected a list or a count/master_seed object")
    if not seeds:
        raise ConfigError(f"{where}: need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{where}: seeds must be distinct")
    return seeds


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    if raw.get("schema_version") != 1:
        raise ConfigError(f"{path}: schema_version must be 1")
    experiment = _ruled(raw.get("experiment"), _one_of(_EXPERIMENTS), f"{path}:experiment")
    if "model" not in raw or not isinstance(raw["model"], str):
        raise ConfigError(f"{path}: 'model' must be a file path")
    if "n_grid" not in raw or "seeds" not in raw:
        raise ConfigError(f"{path}: 'n_grid' and 'seeds' are required")
    grid = _expand_grid(raw["n_grid"], f"{path}:n_grid")
    seeds = _expand_seeds(raw["seeds"], f"{path}:seeds")
    mode = _ruled(raw.get("mode", "as"), _one_of(("as", "l1")), f"{path}:mode")
    tolerance = float(_ruled(raw.get("tolerance", 0.01), _POSITIVE, f"{path}:tolerance"))
    if experiment != "convergence" and (len(seeds) != 1 or mode != "as"):
        raise ConfigError(f"{path}: the {experiment} experiment follows one trajectory; "
                          "it needs exactly one seed and mode 'as'")
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
    elif "parser" in raw:
        raise ConfigError(f"{path}: 'parser' is not used by the {experiment} experiment")

    for name in _SECTIONS:
        if name != experiment and name in raw:
            raise ConfigError(f"{path}: '{name}' only applies to the {name} experiment")
    section, where = {}, f"{path}:{experiment}"   # convergence has no section
    if experiment in _SECTIONS:
        section = _closed(raw.get(experiment, {}), _SECTIONS[experiment], where,
                          optional=experiment == "birkhoff")
    if experiment == "counterexample":   # each epsilon by its parser's rule, then their order
        schedule = section["epsilon_schedule"]
        for i, e in enumerate(schedule):
            _ruled(e, _PARSERS["counterexample_w"]["epsilon"], f"{where}.epsilon_schedule[{i}]")
        _ruled(schedule, (lambda v: v and all(b <= a for a, b in zip(v, v[1:])),
                          "a non-empty, non-increasing list"), f"{where}.epsilon_schedule")

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


def _run_experiment(config: ExperimentConfig, model: ProcessModel, map_fn=map):
    """Run the configured experiment; ``map_fn`` spreads convergence seeds over workers."""
    if config.experiment == "convergence":
        return convergence_experiment(
            model, config.parser_spec, config.n_grid, config.seeds,
            target_mode=config.mode, tol=config.tolerance, map_fn=map_fn)
    if config.experiment == "perturbation":
        return perturbation_experiment(
            model, config.parser_spec, config.section["plan"],
            config.n_grid, config.seeds[0], tol=config.tolerance)
    if config.experiment == "counterexample":
        cx = config.section
        return counterexample_experiment(model, cx["K"], cx["epsilon_schedule"], config.n_grid,
                                         config.seeds[0])
    return sublinear_birkhoff_check(model, N_grid=config.n_grid, seed=config.seeds[0],
                                    tol=config.tolerance, **config.section)


def _verdict(ok) -> str:
    return "pass" if ok else "fail"


def _summary_sections(config: ExperimentConfig, report) -> dict:
    """The report-specific sections of summary.json."""
    if isinstance(report, BirkhoffSeries):
        return {"birkhoff": {
            "observable": report.observable,
            "index_family": report.index_family,
            "depth": report.depth,
            "rows": [[n, _round12(v)] for n, v in report.rows],
            "final_value": _round12(report.final_value),
            "verdict": _verdict(report.verdict),
        }}
    if isinstance(report, CounterexampleReport):
        return {
            "oracle": {
                "limit_even": _round12(report.limit_even),
                "limit_odd": _target_dict(report.limit_odd),
                "gap": _round12(report.gap),
                "h_bracket_width": _round12(report.h_bracket.width),
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
    return {   # a perturbation's section is its plan
        "parser": {"family": config.parser_spec.family, "params": config.parser_spec.params,
                   **config.section},
        "oracle": {"target": _target_dict(report.target)},
        "results": {
            "tail_deviation": _round12(report.tail_deviation),
            "l1_deviation": _round12(report.l1_deviation),
            "effective_tolerance": _round12(report.effective_tol),
            "verdict": _verdict(report.verdict),
        },
    }


def cmd_simulate(config_path: str, workers: Optional[int] = None,
                 out_dir: Optional[str] = None) -> int:
    try:
        config = parse_config(config_path)
        model = load_model(Path(config_path).parent / config.model_path
                           if not os.path.isabs(config.model_path) else config.model_path)
        n_workers = (os.cpu_count() or 1) if workers is None else workers
        if n_workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {workers}")
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
                report = _run_experiment(config, model, pool.map)
        else:
            report = _run_experiment(config, model)
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
        **_summary_sections(config, report),
    }
    if config.experiment != "counterexample":   # its verdict writes its own tolerances
        summary["tolerance"] = _round12(config.tolerance)
    verdict = _verdict(report.verdict)
    t0 = time.perf_counter()
    if isinstance(report, BirkhoffSeries):
        header = ["N", "seed", "observable", "index_family", "depth", "value:estimate"]
        rows = ([n, config.seeds[0], report.observable, report.index_family, report.depth,
                 _fmt(v)] for n, v in report.rows)
    else:
        header = CSV_COLUMNS
        rows = ([r.N, r.seed, r.parser_family, r.parser_params, _fmt(r.blockwise_info),
                 _fmt(r.smb_info), _fmt(r.residual), _fmt(r.c_over_N), _fmt(r.target.mid),
                 _fmt(r.deviation)] for r in sorted(report.series, key=lambda r: (r.seed, r.N)))
    _records_to_csv(out / "results.csv", header, rows)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    wall["emission"] = time.perf_counter() - t0
    manifest = {
        "tool_version": __version__,
        "config_hash": config.config_hash,
        "experiment": config.experiment,
        "model_id": model_id(model),
        "seed_algorithm": SEED_ALGORITHM,
        "oracle_values": summary.get("oracle", summary.get("birkhoff")),
        "verdicts": {config.experiment: verdict},
        "wall_clock_s": {k: round(v, 3) for k, v in wall.items()},
        "workers": pool_size,
        "emitted": ["results.csv", "summary.json"],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"run complete: {out}")
    print(f"  {config.experiment}: {verdict}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRow:
    check_name: str
    model_id: str
    parameters: str
    residual: float
    bound: float
    passed: bool


def _vr(check: str, mid: str, params: str, residual: float, bound: float) -> VerifyRow:
    return VerifyRow(check, mid, params, float(residual), float(bound),
                     float(residual) <= float(bound))


def _measures_rows(name: str, model: ProcessModel) -> list:
    mid = model_id(model)
    rows = []
    for check in validate_model(model).checks:
        rows.append(_vr(f"model.{check.name}", mid, name, check.residual, check.bound))
    levels = {}
    for n, level in level_probs(model, 11):
        levels[n] = level
    rows.append(_vr("normalization", mid, f"{name},n=11",
                    abs(float(levels[11].sum()) - 1.0), 1e-10))
    a = model.alphabet_size
    child_sum = levels[11].reshape(-1, a).sum(axis=1)
    rows.append(_vr("kolmogorov_consistency", mid, f"{name},n=10",
                    float(np.abs(child_sum - levels[10]).max()), 1e-12))
    shift_sum = levels[11].reshape(a, -1).sum(axis=0)
    rows.append(_vr("shift_stationarity", mid, f"{name},n=10",
                    float(np.abs(shift_sum - levels[10]).max()), 1e-12))
    ext = levels[11].reshape(-1, a)
    rows.append(_vr("cylinder_monotonicity", mid, f"{name},n=10",
                    max(0.0, float((ext - levels[10][:, None]).max())), 1e-15))
    betas = beta_sequence(model, 8)
    rows.append(_vr("beta_nonincreasing", mid, f"{name},n_max=8",
                    max(0.0, float(np.diff(betas).max())), 1e-9))
    bracket = entropy_rate(model)
    rows.append(_vr("beta_final_above_rate", mid, f"{name},n_max=8",
                    max(0.0, bracket.lower - float(betas[-1])), 1e-9))
    ratios = [marginal_entropy(model, n) / n for n in range(1, 9)]
    rows.append(_vr("entropy_per_symbol_nonincreasing", mid, name,
                    max(0.0, float(np.diff(ratios).max())), 1e-9))
    return rows


def _martingale_rows(name: str, model: ProcessModel) -> list:
    mid = model_id(model)
    rows = [
        _vr("martingale_one_step", mid, f"{name},n=6",
            verify_martingale_property(model, 6), 1e-10),
        _vr("expected_logz", mid, f"{name},n=6", expected_logz_check(model, 6), 1e-10),
    ]
    excess = 0.0
    for row in zmax_tail_check(model, 10, (1.5, 2.0, 3.0, 5.0)):
        excess = max(excess, row.tail_prob - row.ratio_bound,
                     row.log_tail_prob - row.exp_bound)
    rows.append(_vr("zmax_tail_bounds", mid, f"{name},n=10,t=(1.5,2,3,5)",
                    max(0.0, excess), 0.0))
    traj = sample_trajectory(model, 10_001, seed=7)
    dec = chain_rule_decomposition(model, traj, 10_000)
    rows.append(_vr("chain_rule_identity", mid, f"{name},n=10000",
                    abs(dec.identity_residual), 1e-9))
    trunc = truncated_decomposition(model, traj, 1000, 2)
    rows.append(_vr("truncated_identity", mid, f"{name},n=1000,M=2",
                    abs(trunc.identity_residual), 1e-9))
    return rows


def _parsing_rows() -> list:
    m1 = reference_model("m1")
    h1 = reference_model("h1")
    mid_m1, mid_h1 = model_id(m1), model_id(h1)
    traj = sample_trajectory(m1, 10_001, seed=7)
    traj_h1 = sample_trajectory(h1, 10_001, seed=7)
    h_mid = entropy_rate(h1).mid
    rows = []

    def check_valid(check: str, mid: str, params: str, parsing: Parsing, n: int):
        rep = validate_parsing(parsing, n)
        rows.append(_vr(check, mid, params, 0.0 if rep.passed else 1.0, 0.0))

    specs = [
        ("parse_fixed", make_parsing(ParserSpec("fixed", {"K": 4}), 10_000), 10_000, mid_m1, "K=4,N=10000"),
        ("parse_growing_sqrt", make_parsing(ParserSpec("growing", {"schedule": "sqrt"}), 10_000), 10_000, mid_m1, "N=10000"),
        ("parse_growing_log2", make_parsing(ParserSpec("growing", {"schedule": "log2"}), 10_000), 10_000, mid_m1, "N=10000"),
        ("parse_lz78", parse_lz78(traj, 10_000), 10_000, mid_m1, "N=10000"),
        ("parse_random_sublinear",
         make_parsing(ParserSpec("random_sublinear", {"budget": "sqrt", "seed": 5}), 10_000),
         10_000, mid_m1, "budget=sqrt,N=10000"),
        ("parse_adversarial",
         make_parsing(ParserSpec("adversarial", {"budget": 32}), 2_000, model=m1, traj=traj),
         2_000, mid_m1, "budget=32,N=2000"),
        ("parse_counterexample_v",
         parse_counterexample_v(h1, traj_h1, 9_999, 4, h_mid, 0.05), 9_999, mid_h1,
         "K=4,eps=0.05,N=9999"),
        ("parse_counterexample_w_even",
         make_parsing(ParserSpec("counterexample_w", {"K": 4, "epsilon": 0.05}), 10_000,
                      model=h1, traj=traj_h1, h_ref=h_mid), 10_000, mid_h1, "K=4,N=10000"),
    ]
    for check, parsing, n, mid, params in specs:
        check_valid(check, mid, params, parsing, n)

    lz = parse_lz78(traj, 10_000)
    phrases = set()
    dup = 0
    for s, e in zip(lz.starts[:-1], lz.ends[:-1]):
        key = tuple(traj.symbols[s:e].tolist())
        dup += key in phrases
        phrases.add(key)
    rows.append(_vr("lz78_distinct_phrases", mid_m1, "N=10000", float(dup), 0.0))

    n, K, eps = 9_999, 4, 0.05
    v = parse_counterexample_v(h1, traj_h1, n, K, h_mid, eps)
    low = n * (1 - 2 * eps) / K - 1
    high = n / K + 1
    excess = max(0.0, low - v.c, v.c - high)
    rows.append(_vr("tail_parsing_block_count", mid_h1, f"K=4,eps=0.05,N={n}", excess, 0.0))

    base = make_parsing(ParserSpec("growing", {"schedule": "sqrt"}), 10_000)
    for plan in ("trim1", "extend1"):
        pert = apply_perturbation_plan(base, plan)
        rep = validate_perturbed(pert)
        rows.append(_vr(f"perturbation_{plan}", mid_m1, "growing sqrt,N=10000",
                        0.0 if rep.passed else 1.0, 0.0))

    text = base.to_text()
    round_trip = Parsing.from_text(text).to_text()
    rows.append(_vr("parsing_serialization_roundtrip", mid_m1, "growing sqrt,N=10000",
                    0.0 if text == round_trip else 1.0, 0.0))
    return rows


def cmd_verify(suite: str = "all", model_files=(), out_dir: Optional[str] = None) -> int:
    rows: list = []
    reference = [(name, reference_model(name)) for name in ("iid_uniform", "m1", "h1")]
    if suite in ("measures", "all"):
        for name, model in reference + [("mixture_m1_uniform", reference_model("mixture_m1_uniform"))]:
            rows.extend(_measures_rows(name, model))
    if suite in ("martingale", "all"):
        for name, model in reference:
            rows.extend(_martingale_rows(name, model))
    if suite in ("parsing", "all"):
        rows.extend(_parsing_rows())
    if suite not in ("measures", "martingale", "parsing", "all"):
        print(f"error: unknown suite {suite!r}", file=sys.stderr)
        return 4
    for path in model_files:
        try:
            model = load_model(path)
        except ModelFormatError as exc:
            rows.append(VerifyRow("model_file", "-", str(path), 1.0, 0.0, False))
            print(f"model file invalid: {exc}", file=sys.stderr)
            continue
        for check in validate_model(model).checks:
            rows.append(_vr(f"model.{check.name}", model_id(model), str(path),
                            check.residual, check.bound))

    width = max(len(r.check_name) for r in rows) + 2
    print(f"{'check':<{width}}{'model':<14}{'residual':>12}  {'bound':>9}  status")
    for r in rows:
        print(f"{r.check_name:<{width}}{r.model_id:<14}{r.residual:>12.3e}  "
              f"{r.bound:>9.1e}  {'pass' if r.passed else 'FAIL'}")
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")

    if out_dir is not None:
        outp = Path(out_dir)
        outp.mkdir(parents=True, exist_ok=True)
        _records_to_csv(outp / "verify_results.csv",
                        ["check_name", "model_id", "parameters", "residual", "bound", "pass"],
                        ([r.check_name, r.model_id, r.parameters, _fmt(r.residual),
                          _fmt(r.bound), _verdict(r.passed)] for r in rows))
    return 0 if not failed else 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(run_dir: str) -> int:
    run = Path(run_dir)
    manifest_path = run / "manifest.json"
    if not manifest_path.exists():
        print(f"error: no manifest.json in {run}", file=sys.stderr)
        return 4
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    results = run / "results.csv"
    if not results.exists():
        print(f"error: no results.csv in {run}", file=sys.stderr)
        return 4
    with open(results, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = list(reader)
    mid = manifest.get("model_id", "model")

    if manifest.get("experiment") == "birkhoff":
        out = run / f"plot__{mid}__birkhoff.tsv"
        _records_to_csv(out, ["N", "value:estimate"], ([row[0], row[5]] for row in data), "\t")
        print(f"wrote {out}")
        return 0

    idx = {name: i for i, name in enumerate(header)}
    families = sorted({row[idx["parser_family"]] for row in data})
    oracle = manifest.get("oracle_values") or {}
    for family in families:
        out = run / f"plot__{mid}__{family}.tsv"
        rows = [row for row in data if row[idx["parser_family"]] == family]
        rows.sort(key=lambda row: (int(row[idx["N"]]), int(row[idx["seed"]])))
        if manifest.get("experiment") == "counterexample":
            columns = ["N", "parity", "blockwise_info:estimate", "limit_even:oracle",
                       "limit_odd:oracle"]
            even, odd = oracle.get("limit_even"), (oracle.get("limit_odd") or {}).get("mid")
            table = ([row[idx["N"]], "odd" if int(row[idx["N"]]) % 2 else "even",
                      row[idx["blockwise_info:estimate"]], even, odd] for row in rows)
        else:
            columns = ["N", "seed", "blockwise_info:estimate", "target:oracle",
                       "deviation:estimate"]
            table = ([row[idx[column]] for column in columns] for row in rows)
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
    p_verify.add_argument("--suite", default="all",
                          choices=["martingale", "measures", "parsing", "all"])
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
