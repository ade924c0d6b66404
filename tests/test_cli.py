import json
import re

import numpy as np
import pytest

from parsentropy import (
    ConfigError,
    HiddenMarkovModel,
    ModelFormatError,
    ParserSpec,
    PreconditionError,
    apply_perturbation_plan,
    convergence_experiment,
    counterexample_experiment,
    discrepancy_gap,
    entropy_rate,
    estimator,
    load_model,
    model_to_dict,
    oracle_target,
    parse_fixed,
    perturbation_experiment,
    reference_model,
    save_model,
    sublinear_birkhoff_check,
)
from parsentropy import cli
from parsentropy.cli import (
    CSV_COLUMNS,
    cmd_report,
    cmd_simulate,
    cmd_verify,
    derive_seeds,
    main,
    parse_config,
)
from parsentropy.measures import RATE_TOL


@pytest.fixture()
def m1_file(tmp_path):
    path = tmp_path / "m1.json"
    save_model(reference_model("m1"), path)
    return path


def _write_config(tmp_path, name="config.json", **overrides):
    config = {
        "schema_version": 1,
        "experiment": "convergence",
        "model": "m1.json",
        "parser": {"family": "growing", "schedule": "sqrt"},
        "n_grid": [500, 2000],
        "seeds": [7],
        "mode": "as",
        "tolerance": 0.05,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_config_roundtrip(tmp_path, m1_file):
    path = _write_config(tmp_path)
    config = parse_config(path)
    assert config.experiment == "convergence"
    assert config.n_grid == (500, 2000)
    assert config.parser_spec.family == "growing"
    assert config.config_hash == parse_config(path).config_hash


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = _write_config(tmp_path, typo_key=1)
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(path)


def test_parse_config_rejects_bad_version(tmp_path):
    path = _write_config(tmp_path, schema_version=2)
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_schema_version_is_the_integer_one(tmp_path, m1_file, version):
    path = _write_config(tmp_path, schema_version=version)
    with pytest.raises(ConfigError, match=":schema_version: expected the integer 1"):
        parse_config(path)
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4


def test_parse_config_rejects_misplaced_sections(tmp_path):
    path = _write_config(tmp_path, counterexample={"K": 4, "epsilon_schedule": [0.1]})
    with pytest.raises(ConfigError, match="counterexample"):
        parse_config(path)


def test_parse_config_rejects_bad_parser(tmp_path):
    path = _write_config(tmp_path, parser={"family": "fixed", "K": 3, "junk": 1})
    with pytest.raises(ConfigError, match="parser"):
        parse_config(path)


def test_seed_derivation_is_deterministic(tmp_path):
    path = _write_config(tmp_path, mode="l1", seeds={"count": 20, "master_seed": 99})
    config = parse_config(path)
    assert config.seeds == derive_seeds(99, 20)
    assert len(set(config.seeds)) == 20


@pytest.mark.parametrize("seeds", [
    [], [-1], [3.7], ["4"], {"count": 0, "master_seed": 1}, {"count": "3", "master_seed": 1},
    {"count": 3, "master_seed": 1.5}, {"count": True, "master_seed": 1},
    {"count": 3, "master_seed": -1},
])
def test_simulate_rejects_bad_seeds(tmp_path, m1_file, seeds):
    path = _write_config(tmp_path, experiment="perturbation", perturbation={"plan": "trim1"},
                         seeds=seeds)
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(path)
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4


@pytest.mark.parametrize("key,value", [("workers", 2), ("output_dir", "elsewhere")])
def test_config_has_no_workers_or_output_dir_keys(tmp_path, m1_file, key, value):
    path = _write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(path)
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4


# What makes a valid config of each single-trajectory experiment; None deletes the key.
_SINGLE_TRAJECTORY = {
    "perturbation": {"perturbation": {"plan": "trim1"}},
    "counterexample": {"parser": None, "tolerance": None, "n_grid": [500, 2001],
                       "counterexample": {"K": 4, "epsilon_schedule": [0.1]}},
    "birkhoff": {"parser": None, "birkhoff": {"depth": 8}},
}


def _experiment_config(tmp_path, experiment, **overrides):
    config = json.loads(_write_config(tmp_path, experiment=experiment).read_text())
    config.update(_SINGLE_TRAJECTORY[experiment], **overrides)
    path = tmp_path / "single.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
    return path


@pytest.mark.parametrize("experiment", sorted(_SINGLE_TRAJECTORY))
@pytest.mark.parametrize("overrides", [
    {"seeds": [7, 8]},
    {"mode": "l1"},
    {"mode": "l1", "seeds": {"count": 20, "master_seed": 1}},
], ids=["two-seeds", "l1-mode", "l1-mode-20-seeds"])
def test_single_trajectory_experiments_reject_ignored_settings(tmp_path, m1_file,
                                                               experiment, overrides):
    accepted = _experiment_config(tmp_path, experiment)
    assert parse_config(accepted).seeds == (7,)
    path = _experiment_config(tmp_path, experiment, **overrides)
    with pytest.raises(ConfigError, match="exactly one seed and mode 'as'"):
        parse_config(path)
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4


def test_counterexample_rejects_tolerance(tmp_path, m1_file):
    path = _experiment_config(tmp_path, "counterexample", tolerance=1e-9)
    with pytest.raises(ConfigError, match="tolerance: not used"):
        parse_config(path)
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4


@pytest.mark.parametrize("key,overrides", [
    # each setting has one form: a grid is a list, the two-limit gap is a constant,
    # and a budget is a count or "sqrt"
    ("n_grid", {"n_grid": {"start": 10, "stop": 12, "points": 5}}),
    ("n_grid", {"n_grid": {"start": 1000, "stop": 100_000, "points": 3, "parity": "both"}}),
    ("min_gap", {"experiment": "counterexample", "parser": None, "tolerance": None,
                 "counterexample": {"K": 4, "epsilon_schedule": [0.1], "min_gap": 1e-3}}),
    ("budget", {"parser": {"family": "random_sublinear", "budget": "log2", "seed": 1}}),
    ("budget", {"parser": {"family": "adversarial", "budget": "log2"}}),
    ("n_grid[1]", {"n_grid": [500, 1000.7]}),
    ("n_grid[0]", {"n_grid": [True, 2000]}),
    ("tolerance", {"tolerance": "x"}),
    ("tolerance", {"tolerance": float("nan")}),
    ("counterexample.K", {"experiment": "counterexample", "parser": None, "tolerance": None,
                          "counterexample": {"K": 4.5, "epsilon_schedule": [0.1]}}),
    ("counterexample.epsilon_schedule", {
        "experiment": "counterexample", "parser": None, "tolerance": None,
        "counterexample": {"K": 4, "epsilon_schedule": 0.1}}),
    ("birkhoff.depth", {"experiment": "birkhoff", "parser": None, "birkhoff": {"depth": 8.5}}),
    ("parser: K", {"parser": {"family": "fixed", "K": True}}),
    ("parser: budget", {"parser": {"family": "adversarial", "budget": True}}),
    ("parser: seed", {"parser": {"family": "random_sublinear", "budget": 4, "seed": "x"}}),
    ("parser: seed", {"parser": {"family": "random_sublinear", "budget": 4, "seed": -1}}),
    ("parser: epsilon", {"parser": {"family": "counterexample_v", "K": 4, "epsilon": "x"}}),
    ("parser: epsilon", {"parser": {"family": "counterexample_w", "K": 4,
                                    "epsilon": float("nan")}}),
    ("parser: family", {"parser": {"family": "counterexample_u", "K": 4}}),
    ("perturbation.plan", {"experiment": "perturbation", "perturbation": {"plan": "trim2"}}),
    ("birkhoff.observable", {"experiment": "birkhoff", "parser": None,
                             "birkhoff": {"observable": "abs_log_z"}}),
    ("birkhoff.index_family", {"experiment": "birkhoff", "parser": None,
                               "birkhoff": {"index_family": ["prefix_sqrt"]}}),
    ("counterexample.K", {"experiment": "counterexample", "parser": None, "tolerance": None,
                          "counterexample": {"K": 3, "epsilon_schedule": [0.1]}}),
    ("counterexample.epsilon_schedule[0]", {
        "experiment": "counterexample", "parser": None, "tolerance": None,
        "counterexample": {"K": 4, "epsilon_schedule": [0.3]}}),
    ("counterexample.epsilon_schedule", {
        "experiment": "counterexample", "parser": None, "tolerance": None,
        "counterexample": {"K": 4, "epsilon_schedule": [0.05, 0.1]}}),
    ("counterexample.epsilon_schedule", {
        "experiment": "counterexample", "parser": None, "tolerance": None,
        "counterexample": {"K": 4, "epsilon_schedule": []}}),
    # names, sections and the seeds object
    (":experiment:", {"experiment": "blockwise"}),
    (":mode:", {"mode": "l2"}),
    ("'perturbation' only applies", {"perturbation": {"plan": "trim1"}}),
    ("'birkhoff' only applies", {"birkhoff": {}}),
    (":perturbation: expected an object", {"experiment": "perturbation",
                                           "perturbation": "trim1"}),
    (":birkhoff: expected an object", {"experiment": "birkhoff", "parser": None,
                                       "birkhoff": ["abs_log_z_d"]}),
    (":seeds: unknown keys ['stride']", {"seeds": {"count": 3, "master_seed": 1, "stride": 2}}),
    (":seeds: missing keys ['master_seed']", {"seeds": {"count": 3}}),
    # the seed count each mode needs, and the parser that has two limits
    (":seeds: expected exactly one seed", {"seeds": [1, 2]}),
    (":seeds: expected at least 20 distinct seeds", {"mode": "l1", "seeds": [1, 2, 3, 4, 5]}),
    (":seeds: expected at least 20 distinct seeds", {"mode": "l1",
                                                     "seeds": {"count": 19, "master_seed": 1}}),
    (":parser.family: expected a family with one limit", {
        "parser": {"family": "counterexample_w", "K": 4, "epsilon": 0.05}}),
    (":parser.family: expected a family with one limit", {
        "experiment": "perturbation", "perturbation": {"plan": "trim1"},
        "parser": {"family": "counterexample_w", "K": 4, "epsilon": 0.05}}),
    # the library's rules that reach config time: each observable's least depth (the
    # default observable needs 2) and both parities in a two-limit grid
    ("birkhoff.depth: expected at least 2", {"experiment": "birkhoff", "parser": None,
                                             "birkhoff": {"observable": "abs_log_z_d",
                                                          "depth": 1}}),
    ("birkhoff.depth: expected at least 2", {"experiment": "birkhoff", "parser": None,
                                             "birkhoff": {"depth": 1}}),
    (":n_grid: expected even and odd lengths", {
        "experiment": "counterexample", "parser": None, "tolerance": None,
        "n_grid": [1000, 2000, 4000], "counterexample": {"K": 4, "epsilon_schedule": [0.1]}}),
])
def test_malformed_config_numbers_exit_4_naming_the_key(tmp_path, m1_file, key, overrides):
    config = json.loads(_write_config(tmp_path).read_text())
    config.update(overrides)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(path)
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4
    assert not (tmp_path / "o").exists()


_TWO_LIMIT = {"experiment": "counterexample", "parser": None, "tolerance": None,
              "n_grid": [1000, 1001]}


# A config value and a library argument that break one rule: (config overrides, its
# key, the library call, its argument).  Each rule is one object, so both errors say
# the same after the key.
@pytest.mark.parametrize("overrides,key,call,argument", [
    ({"mode": "l2"}, "mode", lambda m1, h1: convergence_experiment(
        m1, ParserSpec("lz78"), [100], [1], target_mode="l2"), "target_mode"),
    ({"seeds": [1, 2]}, "seeds", lambda m1, h1: convergence_experiment(
        m1, ParserSpec("lz78"), [100], [1, 2]), "seeds"),
    ({"mode": "l1", "seeds": [1, 2, 3]}, "seeds", lambda m1, h1: convergence_experiment(
        m1, ParserSpec("lz78"), [100], [1, 2, 3], target_mode="l1"), "seeds"),
    ({"parser": {"family": "counterexample_w", "K": 4, "epsilon": 0.05}}, "parser.family",
     lambda m1, h1: oracle_target(h1, ParserSpec("counterexample_w", {"K": 4, "epsilon": 0.05})),
     "spec.family"),
    ({**_TWO_LIMIT, "counterexample": {"K": 4.0, "epsilon_schedule": [0.1]}},
     "counterexample.K", lambda m1, h1: discrepancy_gap(h1, 4.0), "K"),
    ({**_TWO_LIMIT, "counterexample": {"K": 3, "epsilon_schedule": [0.1]}},
     "counterexample.K", lambda m1, h1: discrepancy_gap(h1, 3), "K"),
    ({**_TWO_LIMIT, "counterexample": {"K": 4, "epsilon_schedule": [0.1, 0.25]}},
     "counterexample.epsilon_schedule[1]",
     lambda m1, h1: counterexample_experiment(h1, 4, [0.1, 0.25], [1000, 1001], 7),
     "epsilon_schedule[1]"),
    ({**_TWO_LIMIT, "counterexample": {"K": 4, "epsilon_schedule": [0.05, 0.1]}},
     "counterexample.epsilon_schedule",
     lambda m1, h1: counterexample_experiment(h1, 4, [0.05, 0.1], [1000, 1001], 7),
     "epsilon_schedule"),
    ({**_TWO_LIMIT, "n_grid": [1001, 2001], "counterexample": {"K": 4, "epsilon_schedule": [0.1]}},
     "n_grid", lambda m1, h1: counterexample_experiment(h1, 4, [0.1], [1001, 2001], 7), "N_grid"),
    ({"n_grid": []}, "n_grid", lambda m1, h1: convergence_experiment(
        m1, ParserSpec("lz78"), [], [1]), "N_grid"),
    ({"experiment": "perturbation", "perturbation": {"plan": "trim2"}}, "perturbation.plan",
     lambda m1, h1: apply_perturbation_plan(parse_fixed(10, 2), "trim2"), "plan_name"),
    ({"experiment": "perturbation", "perturbation": {"plan": "trim2"}}, "perturbation.plan",
     lambda m1, h1: perturbation_experiment(m1, ParserSpec("growing", {"schedule": "sqrt"}),
                                            "trim2", [10**3, 10**6], 7), "plan"),
    ({"experiment": "birkhoff", "parser": None, "birkhoff": {"observable": "abs_log_z"}},
     "birkhoff.observable", lambda m1, h1: sublinear_birkhoff_check(m1, "abs_log_z"),
     "observable"),
    ({"experiment": "birkhoff", "parser": None, "birkhoff": {"index_family": "sqrt"}},
     "birkhoff.index_family",
     lambda m1, h1: sublinear_birkhoff_check(m1, index_family="sqrt"), "index_family"),
    ({"experiment": "birkhoff", "parser": None,
      "birkhoff": {"observable": "log_zmax_to_depth_d", "depth": 0}}, "birkhoff.depth",
     lambda m1, h1: sublinear_birkhoff_check(m1, "log_zmax_to_depth_d", depth=0), "depth"),
    ({"experiment": "birkhoff", "parser": None, "birkhoff": {"depth": 1}}, "birkhoff.depth",
     lambda m1, h1: sublinear_birkhoff_check(m1, depth=1), "depth"),
    ({"tolerance": "0.01"}, "tolerance", lambda m1, h1: convergence_experiment(
        m1, ParserSpec("lz78"), [100], [1], tol="0.01"), "tol"),
], ids=["mode", "as-seeds", "l1-seeds", "two-limits", "K-float", "K-odd", "epsilon",
        "epsilon-order", "parities", "empty-grid", "plan", "plan-experiment", "observable",
        "index_family", "depth-log_zmax", "depth-default", "tolerance"])
def test_config_and_library_apply_one_rule(tmp_path, m1_file, m1, h1, overrides, key, call,
                                           argument):
    config = json.loads(_write_config(tmp_path).read_text())
    config.update(overrides)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if v is not None}))
    with pytest.raises(ConfigError, match=re.escape(f":{key}: expected ")) as config_error:
        parse_config(path)
    with pytest.raises(PreconditionError, match=f"^{re.escape(argument)}: expected ") as error:
        call(m1, h1)
    expected = [str(e.value).split(": expected ", 1)[1].split(", got ")[0]
                for e in (config_error, error)]
    assert expected[0] == expected[1]


@pytest.mark.parametrize("workers", [0, -1])
def test_simulate_rejects_worker_count_below_one(tmp_path, m1_file, workers):
    path = _write_config(tmp_path)
    assert cmd_simulate(str(path), workers=workers, out_dir=str(tmp_path / "o")) == 4
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", [True, 2.5, "2"])
def test_simulate_refuses_a_worker_count_that_is_not_an_integer(tmp_path, m1_file, capsys,
                                                                 workers):
    path = _write_config(tmp_path)
    assert cmd_simulate(str(path), workers=workers, out_dir=str(tmp_path / "o")) == 4
    assert capsys.readouterr().err.startswith("error: workers: expected a positive integer, got ")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_artifacts_and_passes(tmp_path, m1_file):
    path = _write_config(tmp_path)
    out = tmp_path / "runs"
    assert cmd_simulate(str(path), workers=1, out_dir=str(out)) == 0
    run_dir = next(out.iterdir())
    assert (run_dir / "results.csv").exists()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["results"]["verdict"] == "pass"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config_hash"]
    header = (run_dir / "results.csv").read_text().splitlines()[0]
    assert header == ("N,seed,parser_family,parser_params,blockwise_info:estimate,"
                      "smb_info:estimate,residual:estimate,c_over_N:estimate,"
                      "target:oracle,deviation:estimate")


def test_simulate_is_byte_deterministic_across_runs_and_workers(tmp_path, m1_file):
    path = _write_config(tmp_path, mode="l1", seeds=list(range(20)), n_grid=[2000])
    outs = []
    for i, workers in enumerate((1, 1, 3)):
        out = tmp_path / f"runs{i}"
        assert cmd_simulate(str(path), workers=workers, out_dir=str(out)) == 0
        run_dir = next(out.iterdir())
        outs.append((run_dir / "results.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_simulate_counterexample_precondition_exit_code(tmp_path, m1_file):
    path = _write_config(
        tmp_path, experiment="counterexample", parser=None,
        counterexample={"K": 4, "epsilon_schedule": [0.1]},
        n_grid=[1000, 1001, 2000, 2001])
    config = json.loads(path.read_text())
    del config["parser"], config["tolerance"]
    path.write_text(json.dumps(config))
    # first-order chain: the two limits coincide, so the gap check refuses it
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 3
    assert not (tmp_path / "o").exists()


def test_simulate_bad_config_exit_code(tmp_path, m1_file):
    path = _write_config(tmp_path, typo=1)
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4
    missing = _write_config(tmp_path, name="missing_model.json", model="nope.json")
    assert cmd_simulate(str(missing), workers=1, out_dir=str(tmp_path / "o")) == 4


def test_simulate_perturbation_and_birkhoff(tmp_path, m1_file):
    pert = _write_config(tmp_path, name="pert.json", experiment="perturbation",
                         perturbation={"plan": "trim1"}, n_grid=[10_000, 100_000])
    assert cmd_simulate(str(pert), workers=1, out_dir=str(tmp_path / "p")) == 0
    config = json.loads(_write_config(tmp_path, name="b.json").read_text())
    del config["parser"]
    config.update(experiment="birkhoff", n_grid=[10_000], tolerance=0.01,
                  birkhoff={"observable": "abs_log_z_d", "depth": 8})
    b = tmp_path / "b.json"
    b.write_text(json.dumps(config))
    assert cmd_simulate(str(b), workers=1, out_dir=str(tmp_path / "bout")) == 0


TOP_KEYS = {"experiment", "model_id", "mode", "tolerance", "units"}


def _run_summary(path, out):
    assert cmd_simulate(str(path), workers=1, out_dir=str(out)) == 0
    run_dir = next(out.iterdir())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return json.loads((run_dir / "summary.json").read_text()), manifest


def test_summary_sections_perturbation(tmp_path, m1_file):
    path = _write_config(tmp_path, experiment="perturbation",
                         perturbation={"plan": "trim1"}, n_grid=[10_000, 100_000])
    summary, manifest = _run_summary(path, tmp_path / "o")
    assert set(summary) == TOP_KEYS | {"parser", "oracle", "results"}
    assert summary["parser"] == {"family": "growing", "params": {"schedule": "sqrt"},
                                 "plan": "trim1"}
    assert set(summary["oracle"]) == {"target", "rate"}
    assert set(summary["oracle"]["target"]) == {"lower", "upper", "mid"}
    # m1's rate is exact: a converged bracket of width 0, from levels 1 and 2
    assert summary["oracle"]["rate"] == {
        "lower": summary["oracle"]["target"]["lower"],
        "upper": summary["oracle"]["target"]["upper"],
        "width": 0.0, "n_used": 2, "converged": True}
    assert set(summary["results"]) == {"tail_deviation", "l1_deviation",
                                       "effective_tolerance", "verdict"}
    assert manifest["verdicts"] == {"perturbation": summary["results"]["verdict"]}
    assert manifest["oracle_values"] == summary["oracle"]
    assert manifest["warnings"] == []


def test_summary_sections_counterexample(tmp_path):
    save_model(reference_model("h1"), tmp_path / "h1.json")
    config = json.loads(_write_config(tmp_path).read_text())
    del config["parser"], config["tolerance"]
    config.update(experiment="counterexample", model="h1.json",
                  n_grid=[1000, 1001, 2000, 2001],
                  counterexample={"K": 4, "epsilon_schedule": [0.1]})
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(config))
    summary, manifest = _run_summary(path, tmp_path / "o")
    # the verdict's own tolerances replace the unused top-level one
    assert set(summary) == TOP_KEYS - {"tolerance"} | {"oracle", "results"}
    assert set(summary["oracle"]) == {"limit_even", "limit_odd", "gap", "h_bracket_width",
                                      "rate"}
    rate = summary["oracle"]["rate"]
    assert (rate["width"], rate["n_used"], rate["converged"]) == (
        summary["oracle"]["h_bracket_width"], 8, True)
    assert set(summary["results"]) == {"even_tail_avg", "odd_tail_avg", "parity_gap",
                                       "tol_even", "tol_odd", "tol_gap",
                                       "even", "odd", "gap", "verdict"}
    oracle, results = summary["oracle"], summary["results"]
    assert results["tol_even"] == pytest.approx(0.02 * oracle["limit_even"], rel=1e-10)
    assert results["tol_odd"] == pytest.approx(0.02 * oracle["limit_odd"]["mid"], rel=1e-10)
    assert results["tol_gap"] == pytest.approx(results["tol_even"] + results["tol_odd"],
                                               rel=1e-10)
    assert manifest["verdicts"] == {"counterexample": summary["results"]["verdict"]}
    assert manifest["oracle_values"] == summary["oracle"]
    assert manifest["warnings"] == []


def test_summary_of_a_fixed_k_target_has_no_rate(tmp_path, m1_file):
    # H(P_K)/K is exact: no entropy-rate bracket lies behind it
    path = _write_config(tmp_path, parser={"family": "fixed", "K": 4})
    summary, manifest = _run_summary(path, tmp_path / "o")
    assert set(summary["oracle"]) == {"target"}
    assert manifest["warnings"] == []


def test_a_rate_bracket_that_did_not_converge_is_flagged(tmp_path, capsys):
    # 16 symbols: the sandwich stops at n_used = 5, the deepest level under ENUM_CAP
    emission = np.full((2, 16), 0.5 / 15)
    emission[0, 0] = emission[1, 1] = 0.5
    model = HiddenMarkovModel([[0.99, 0.01], [0.01, 0.99]], [0.5, 0.5], emission)
    save_model(model, tmp_path / "sticky.json")
    path = _write_config(tmp_path, model="sticky.json", n_grid=[1000, 10_000])
    capsys.readouterr()
    summary, manifest = _run_summary(path, tmp_path / "o")
    bracket = entropy_rate(model)
    rate = summary["oracle"]["rate"]
    assert rate == {"lower": cli._round12(bracket.lower), "upper": cli._round12(bracket.upper),
                    "width": cli._round12(bracket.width), "n_used": 5, "converged": False}
    assert rate["width"] > RATE_TOL
    # the verdict keeps its meaning: the estimate lies inside the wide bracket, so it
    # passes at deviation 0, and the flag next to it says how sharp that pass is
    assert (summary["results"]["tail_deviation"], summary["results"]["verdict"]) == (0.0, "pass")
    assert manifest["verdicts"] == {"convergence": summary["results"]["verdict"]}
    assert len(manifest["warnings"]) == 1
    assert "did not converge" in manifest["warnings"][0]
    warned = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warned == [f"warning: {manifest['warnings'][0]}"]


def test_simulate_tail_selection_on_a_mixture_exit_code(tmp_path, capsys):
    save_model(reference_model("mixture_m1_uniform"), tmp_path / "mix.json")
    path = _write_config(tmp_path, model="mix.json",
                         parser={"family": "counterexample_v", "K": 4, "epsilon": 0.1})
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 3
    assert "expected an ergodic model (a mixture is not)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_summary_sections_birkhoff(tmp_path, m1_file):
    config = json.loads(_write_config(tmp_path).read_text())
    del config["parser"]
    config.update(experiment="birkhoff", n_grid=[1000, 10_000], tolerance=0.01,
                  birkhoff={"observable": "abs_log_z_d", "depth": 8})
    path = tmp_path / "b.json"
    path.write_text(json.dumps(config))
    summary, manifest = _run_summary(path, tmp_path / "o")
    assert set(summary) == TOP_KEYS | {"birkhoff"}
    assert set(summary["birkhoff"]) == {"observable", "index_family", "depth", "rows",
                                        "final_value", "verdict"}
    assert [row[0] for row in summary["birkhoff"]["rows"]] == [1000, 10_000]
    assert manifest["verdicts"] == {"birkhoff": summary["birkhoff"]["verdict"]}
    assert manifest["oracle_values"] == summary["birkhoff"]


@pytest.mark.parametrize("mode,seeds,workers,recorded", [
    ("l1", list(range(20)), 2, 2),     # the pool's processes run the cells
    ("l1", list(range(20)), 1, 1),
    ("as", [7], 3, 1),                 # one trajectory runs in this process
], ids=["l1-pool-of-2", "l1-one-worker", "as-three-workers"])
def test_manifest_records_the_processes_that_ran_the_cells(tmp_path, m1_file, mode, seeds,
                                                           workers, recorded):
    path = _write_config(tmp_path, mode=mode, seeds=seeds, n_grid=[2000])
    out = tmp_path / "o"
    assert cmd_simulate(str(path), workers=workers, out_dir=str(out)) == 0
    manifest = json.loads((next(out.iterdir()) / "manifest.json").read_text())
    assert manifest["workers"] == recorded


def test_simulate_block_longer_than_prefix_exit_code(tmp_path, m1_file):
    path = _write_config(tmp_path, parser={"family": "fixed", "K": 8}, n_grid=[4, 100])
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 3


def test_simulate_non_numeric_section_value_is_a_config_error(tmp_path, m1_file):
    config = json.loads(_write_config(tmp_path).read_text())
    del config["parser"]
    config.update(experiment="birkhoff", birkhoff={"depth": "eight"})
    path = tmp_path / "b.json"
    path.write_text(json.dumps(config))
    assert cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o")) == 4


def test_simulate_does_not_remap_untyped_errors(tmp_path, m1_file, monkeypatch):
    # only typed preconditions exit 3; a plain ValueError is a fault and surfaces
    def broken(*args, **kwargs):
        raise ValueError("fault inside block evaluation")

    monkeypatch.setattr(estimator, "block_log_probs", broken)
    path = _write_config(tmp_path)
    with pytest.raises(ValueError, match="fault inside block evaluation"):
        cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "o"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["measures", "martingale", "parsing"])
def test_verify_suites_pass(suite, capsys):
    assert cmd_verify(suite) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_refuses_an_unknown_suite_before_any_runs(capsys, monkeypatch):
    def never():
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_SUITES", {name: never for name in cli._SUITES})
    assert cmd_verify("bogus") == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown suite 'bogus'" in captured.err
    with pytest.raises(SystemExit):   # argparse offers the same table
        main(["verify", "--suite", "bogus"])
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err and all(s in err for s in (*cli._SUITES, "all"))


def test_verify_writes_csv(tmp_path, capsys):
    assert cmd_verify("parsing", out_dir=str(tmp_path)) == 0
    lines = (tmp_path / "verify_results.csv").read_text().splitlines()
    assert lines[0] == "check_name,model_id,parameters,residual,bound,pass"
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_flags_corrupted_model_file(tmp_path, capsys):
    bad = model_to_dict(reference_model("m1"))
    bad["transition"][0][0] = 0.71  # row sum 1.01
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cmd_verify("parsing", model_files=[str(path)]) == 2


def test_verify_accepts_valid_model_file(tmp_path, m1_file):
    assert cmd_verify("parsing", model_files=[str(m1_file)]) == 0


@pytest.mark.parametrize("name,key,value,what", [
    ("iid_uniform", "p", [True, False], "a list of numbers"),
    ("iid_uniform", "p", ["0.5", "0.5"], "a list of numbers"),
    ("m1", "alphabet_size", 2.0, "a positive integer"),
    ("m1", "transition", [[0.7, "0.3"], [0.2, 0.8]], "a list of lists of numbers"),
    ("h1", "hidden_states", 2.0, "a positive integer"),
    ("mixture_m1_uniform", "weight", "0.5", "a number"),
    ("mixture_m1_uniform", "components", [model_to_dict(reference_model("m1"))],
     "a list of two objects"),
    ("mixture_m1_uniform", "components", ["m1", "iid_uniform"], "a list of two objects"),
    ("m1", "variant", ["markov"], "one of ['hidden_markov', 'iid', 'markov', 'mixture']"),
], ids=["p-bools", "p-strings", "alphabet_size-float", "transition-string",
        "hidden_states-float", "weight-string", "components-one", "components-names",
        "variant-list"])
def test_untyped_model_value_fails_naming_the_key(tmp_path, capsys, name, key, value, what):
    model = model_to_dict(reference_model(name))
    model[key] = value
    path = tmp_path / "m1.json"   # the model file the default config names
    path.write_text(json.dumps(model))
    named = f"{path}:$.{key}: expected {what}"   # the file, then the key
    with pytest.raises(ModelFormatError, match=re.escape(f"{named}, got ")):
        load_model(path)
    capsys.readouterr()
    assert cmd_simulate(str(_write_config(tmp_path)), workers=1, out_dir=str(tmp_path / "o")) == 4
    assert not (tmp_path / "o").exists()
    assert named in capsys.readouterr().err
    assert cmd_verify("parsing", model_files=[str(path)]) == 2
    captured = capsys.readouterr()
    assert re.search(r"^model_file +- .* FAIL$", captured.out, re.M)
    assert named in captured.err


def test_non_utf8_config_or_model_file_exits_4_naming_the_file(tmp_path, m1_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match=re.escape(f"{bad}: ")):
        parse_config(bad)
    with pytest.raises(ModelFormatError, match=re.escape(f"{bad}: ")):
        load_model(bad)
    capsys.readouterr()
    assert cmd_simulate(str(bad), workers=1, out_dir=str(tmp_path / "o")) == 4
    assert cmd_simulate(str(_write_config(tmp_path, model="bad.json")), workers=1,
                        out_dir=str(tmp_path / "o")) == 4
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.count(f"error: {bad}: ") == 2


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_emits_plot_tables(tmp_path, m1_file):
    path = _write_config(tmp_path)
    out = tmp_path / "runs"
    cmd_simulate(str(path), workers=1, out_dir=str(out))
    run_dir = next(out.iterdir())
    assert cmd_report(str(run_dir)) == 0
    plots = list(run_dir.glob("plot__*.tsv"))
    assert len(plots) == 1
    lines = plots[0].read_text().splitlines()
    assert lines[0].startswith("N\tseed\tblockwise_info:estimate")
    assert len(lines) == 3  # header + two grid points


def test_report_missing_manifest_exits_4(tmp_path):
    assert cmd_report(str(tmp_path)) == 4


@pytest.mark.parametrize("text,why", [
    ('{"experiment": "convergence", "model_id"', "invalid JSON at line 1"),
    ("[1, 2]", "expected a JSON object"),
    (None, "No such file"),
], ids=["truncated", "not-an-object", "missing"])
def test_report_malformed_manifest_exits_4_naming_the_file(tmp_path, m1_file, capsys,
                                                           text, why):
    out = tmp_path / "runs"
    assert cmd_simulate(str(_write_config(tmp_path)), workers=1, out_dir=str(out)) == 0
    manifest = next(out.iterdir()) / "manifest.json"
    if text is None:
        manifest.unlink()
    else:
        manifest.write_text(text)
    capsys.readouterr()
    assert cmd_report(str(manifest.parent)) == 4
    err = capsys.readouterr().err
    assert str(manifest) in err and why in err
    assert not list(manifest.parent.glob("plot__*.tsv"))


def _results(*row: str) -> bytes:
    """A results.csv with the full header and one row."""
    return ",".join(CSV_COLUMNS).encode() + b"\n" + ",".join(row).encode() + b"\n"


ROW = ("500", "7", "growing", "sqrt", "0.5", "0.5", "0", "0.1", "0.5", "0")


@pytest.mark.parametrize("experiment,text,why", [
    ("convergence", b"", "expected the columns"),
    ("convergence", b"N,seed,blockwise_info:estimate,target:oracle,deviation:estimate\n"
                    b"500,7,0.5,0.5,0\n", "expected the columns"),
    ("birkhoff", b"N,seed,observable,index_family,depth\n500,7,abs_log_z_d,prefix_sqrt,8\n",
     "expected the columns"),
    ("convergence", b"\xff\xfe", ""),   # the message is the locale codec's
    ("convergence", _results("x", *ROW[1:]), "line 2: N is 'x', not an integer >= 0"),
    ("convergence", _results(ROW[0], "seven", *ROW[2:]),
     "line 2: seed is 'seven', not an integer >= 0"),
    ("birkhoff", b"N,seed,observable,index_family,depth,value:estimate\n"
                 b"1e4,7,abs_log_z_d,prefix_sqrt,8,0.01\n", "line 2: N is '1e4'"),
    ("convergence", _results(*ROW[:3]), "line 2: the row's field count differs"),
    ("convergence", _results(*ROW, "extra"), "line 2: the row's field count differs"),
], ids=["empty", "no-parser_family", "birkhoff-no-value", "not-utf8", "N-not-integer",
        "seed-not-integer", "birkhoff-N-not-integer", "short-row", "long-row"])
def test_report_malformed_results_exits_4_naming_the_file(tmp_path, m1_file, capsys,
                                                          experiment, text, why):
    out = tmp_path / "runs"
    config = (_write_config(tmp_path) if experiment == "convergence"
              else _experiment_config(tmp_path, experiment))
    assert cmd_simulate(str(config), workers=1, out_dir=str(out)) == 0
    results = next(out.iterdir()) / "results.csv"
    results.write_bytes(text)
    capsys.readouterr()
    assert cmd_report(str(results.parent)) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results}: ") and err.count("\n") == 1
    assert why in err
    assert not list(results.parent.glob("plot__*.tsv"))


def test_main_dispatch(tmp_path, m1_file, capsys):
    path = _write_config(tmp_path)
    assert main(["simulate", "--config", str(path), "--workers", "1",
                 "--out", str(tmp_path / "o")]) == 0
