"""Output bytes of small simulate runs, their reports and verify, pinned.

One small config per experiment shape: a convergence run in each mode, a
perturbation, the two-limit counterexample, a Birkhoff series with the
section's defaults, the hidden-Markov greedy adversary, and LZ78 phrases on
the hidden-Markov source.  Each run's results.csv, summary.json and the
plot TSVs that ``report`` writes are pinned, and so are the stdout and
verify_results.csv of ``verify --suite all``, and the ``model.*`` rows that
``verify --model`` prints for a Markov and a mixture model file.  A change that moves any cell
of these files changes its sha256 here; such a change has to say why in
CHANGES.md and re-pin the digest.
"""

import contextlib
import hashlib
import io
import json

import pytest

from parsentropy import ParserSpec, model_id, reference_model, save_model
from parsentropy.cli import cmd_report, cmd_simulate, cmd_verify, main

SQRT = {"family": "growing", "schedule": "sqrt"}


def _config(experiment, model, n_grid, seeds, **sections):
    return {"schema_version": 1, "experiment": experiment, "model": f"{model}.json",
            "n_grid": n_grid, "seeds": seeds, **sections}


PINNED = {
    "m1-growing-sqrt": (
        _config("convergence", "m1", [10**3, 10**4, 10**5], [7], parser=SQRT),
        "0a77c534fc167fd4a0644e2a0e5fa68c867edf0243e24e6c57ddeb5dd60a8e64"),
    "m1-trim1": (
        _config("perturbation", "m1", [10**4, 10**5], [7], parser=SQRT,
                perturbation={"plan": "trim1"}),
        "01890ed15f9a4fec0914e62b1b771250d7807d064f31dfc8160a708f3e607be5"),
    "h1-two-limit": (
        _config("counterexample", "h1", [1000, 1001, 2000, 2001], [7],
                counterexample={"K": 4, "epsilon_schedule": [0.1]}),
        "e885cfd92222d09a0152bbf0337faba47e49af9d6ba5f8de70e09a8a07d2d5ea"),
    "m1-birkhoff-defaults": (
        _config("birkhoff", "m1", [10**4, 10**5], [7], birkhoff={}),
        "73f1bac930ee4c5005fe84b171e9c112550e6c625c324ba601b5eda0de67c86f"),
    "h1-adversarial-sqrt": (
        _config("convergence", "h1", [1000, 3000], [7], tolerance=0.02,
                parser={"family": "adversarial", "budget": "sqrt"}),
        "3e399d499f74fa92be4cabb292dedc84c74a6d75c9c209929935d9cd0afb34e5"),
    "h1-lz78": (
        _config("convergence", "h1", [10**3, 10**4, 10**5], [7], parser={"family": "lz78"}),
        "197c1814bc42afcf25240c3a9d3dd5bd6c84e0421f767ffa0cb9f4ea4f90306f"),
    "mixture-growing-sqrt-l1": (
        _config("convergence", "mixture_m1_uniform", [10**4],
                {"count": 20, "master_seed": 99}, parser=SQRT, mode="l1", tolerance=0.02),
        "30d7e8be44749d7031c17d8d94db2770a46098a8588c57bf3f0f195a5c6b51bf"),
}


# summary.json and report's plot TSVs of each run in PINNED: file name -> sha256
PINNED_REPORTS = {
    "h1-adversarial-sqrt": {
        "plot__a89b940ff9cb__adversarial.tsv":
            "910819bdfd3b038fa4fccd991769391eeeda7305533d47be3561e3f735dbf632",
        "summary.json": "6d1ab06adf49fc308e011d7d0a403f176011c94f443a847ee290605eda4a89e7"},
    "h1-lz78": {
        "plot__a89b940ff9cb__lz78.tsv":
            "010e5917f2e376801b496a527b354ab66d13212696268fefb7ac3cce532e7dc5",
        "summary.json": "1fd8849a945033e9a2adf53ca62890e1d32926fb9a60d808147c64a4b10f0b70"},
    "h1-two-limit": {
        "plot__a89b940ff9cb__counterexample_w.tsv":
            "a6e3db79bf11d8de7a427b9221e027d4a40c257d700e9967b6e1e6535f122777",
        "summary.json": "363bcd9d6009bb959f18934b2dbd4716b9fb0e218e31d415dea7eeed045db8a8"},
    "m1-birkhoff-defaults": {
        "plot__1607aad86c0f__birkhoff.tsv":
            "2c791a4094be82a1aa1581c43d29bc7b7ab259fbbed2ddb46bb708564d7f5e61",
        "summary.json": "aeba95890c6f2ab5ee3eebef0f0b23d8922ed1a3c9735d70cf1f52e80f1546a1"},
    "m1-growing-sqrt": {
        "plot__1607aad86c0f__growing.tsv":
            "3f7056991c65fa9b1ac7ab049f7be504f9fc2ac8a313dcec98b1063200e7ae12",
        "summary.json": "2ab7d444ffddf3d95c903c0894aa0f6764a76ea30cedab396e44e00e24476c9d"},
    "m1-trim1": {
        "plot__1607aad86c0f__growing.tsv":
            "d92c01ec6b011f7ee4ea4580a077321e78f3ea6e5e3283c7ab4cef7cc2de3293",
        "summary.json": "55f4462a7eb5db07771044e9a0d0a50e658932c9ddc0fb0370d553110fe1bc88"},
    "mixture-growing-sqrt-l1": {
        "plot__9a095316671b__growing.tsv":
            "f3fb2589c50ae3fa17a6f3ddc0f37ecdefb43ec1c25c42dae6e3864837fb8099",
        "summary.json": "7d7832f3c2d63f6205c133c378970db2775c1f72818658ba8c22f9a9f5c7931b"},
}
VERIFY_RESULTS_CSV = "003b9e49391a2016d228c81f8a532309470bb0d0d74a9c70d29e3d3a4998b227"
VERIFY_STDOUT = "d546d0bd3e82ec384edd8346de67158b832dcd49e93e4825980fae48b1a65722"
# The model.* rows of `verify --suite parsing --model m1.json --model mixture.json`;
# the mixture's components nest as model.first. and model.second.
VERIFY_MODEL_ROWS = """\
model.transition.nonnegative            1607aad86c0f     0.000e+00    0.0e+00  pass
model.transition.rows_sum_to_one        1607aad86c0f     0.000e+00    1.0e-12  pass
model.initial.nonnegative               1607aad86c0f     0.000e+00    0.0e+00  pass
model.initial.sums_to_one               1607aad86c0f     0.000e+00    1.0e-12  pass
model.stationarity                      1607aad86c0f     5.551e-17    1.0e-10  pass
model.alphabet_size                     1607aad86c0f     0.000e+00    0.0e+00  pass
model.weight_in_open_unit_interval      9a095316671b     0.000e+00    0.0e+00  pass
model.components_share_alphabet         9a095316671b     0.000e+00    0.0e+00  pass
model.first.transition.nonnegative      9a095316671b     0.000e+00    0.0e+00  pass
model.first.transition.rows_sum_to_one  9a095316671b     0.000e+00    1.0e-12  pass
model.first.initial.nonnegative         9a095316671b     0.000e+00    0.0e+00  pass
model.first.initial.sums_to_one         9a095316671b     0.000e+00    1.0e-12  pass
model.first.stationarity                9a095316671b     5.551e-17    1.0e-10  pass
model.first.alphabet_size               9a095316671b     0.000e+00    0.0e+00  pass
model.second.p.nonnegative              9a095316671b     0.000e+00    0.0e+00  pass
model.second.p.sums_to_one              9a095316671b     0.000e+00    1.0e-12  pass
model.second.alphabet_size              9a095316671b     0.000e+00    0.0e+00  pass
"""

# The canonical JSON text behind ids, run directories and the parser_params cell.
MODEL_IDS = {"m1": "1607aad86c0f", "h1": "a89b940ff9cb", "iid_uniform": "1a9e6768a8f6",
             "mixture_m1_uniform": "9a095316671b"}
RUN_DIR = ("m1-growing-sqrt", "1fc7e60dc8ad")   # a PINNED config and its config_hash[:12]
DESCRIBED = {   # one ParserSpec per family: (params, describe())
    "fixed": ({"K": 4}, '{"K":4}'),
    "growing": ({"schedule": "sqrt"}, '{"schedule":"sqrt"}'),
    "lz78": ({}, "{}"),
    "random_sublinear": ({"seed": 5, "budget": "sqrt"}, '{"budget":"sqrt","seed":5}'),
    "adversarial": ({"budget": 32}, '{"budget":32}'),
    "counterexample_v": ({"epsilon": 0.05, "K": 4}, '{"K":4,"epsilon":0.05}'),
    "counterexample_w": ({"K": 4, "epsilon": 0.05}, '{"K":4,"epsilon":0.05}'),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The run directory of a PINNED config, simulated once per module."""
    made = {}

    def run(name):
        if name not in made:
            config, _ = PINNED[name]
            root = tmp_path_factory.mktemp(name)
            save_model(reference_model(config["model"].removesuffix(".json")),
                       root / config["model"])
            path = root / "config.json"
            path.write_text(json.dumps(config))
            out = root / "out"
            assert cmd_simulate(str(path), workers=1, out_dir=str(out)) == 0
            made[name] = next(out.iterdir())
        return made[name]
    return run


@pytest.mark.parametrize("name", sorted(PINNED))
def test_results_csv_bytes_are_pinned(run_dir, name):
    csv_bytes = (run_dir(name) / "results.csv").read_bytes()
    assert _sha256(csv_bytes) == PINNED[name][1]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_summary_and_report_bytes_are_pinned(run_dir, name):
    run = run_dir(name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cmd_report(str(run)) == 0
    written = {f.name: _sha256(f.read_bytes()) for f in run.iterdir()
               if f.name == "summary.json" or f.name.startswith("plot__")}
    assert written == PINNED_REPORTS[name]


def test_verify_all_bytes_are_pinned(tmp_path):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cmd_verify("all", (), str(tmp_path)) == 0
    assert _sha256(stdout.getvalue().encode()) == VERIFY_STDOUT
    assert _sha256((tmp_path / "verify_results.csv").read_bytes()) == VERIFY_RESULTS_CSV


def test_verify_model_file_rows_are_pinned(tmp_path):
    files = []
    for name in ("m1", "mixture_m1_uniform"):
        save_model(reference_model(name), tmp_path / f"{name}.json")
        files += ["--model", str(tmp_path / f"{name}.json")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["verify", "--suite", "parsing", *files]) == 0
    lines = stdout.getvalue().splitlines(keepends=True)
    assert "".join(line for line in lines if line.startswith("model.")) == VERIFY_MODEL_ROWS
    assert lines[-1] == "30/30 checks passed\n"


@pytest.mark.parametrize("name", sorted(MODEL_IDS))
def test_reference_model_ids_are_pinned(name):
    assert model_id(reference_model(name)) == MODEL_IDS[name]


def test_run_directory_name_is_pinned(run_dir):
    name, config_hash = RUN_DIR
    assert run_dir(name).name == config_hash


@pytest.mark.parametrize("family", sorted(DESCRIBED))
def test_parser_params_text_is_pinned(family):
    params, text = DESCRIBED[family]
    assert ParserSpec(family, params).describe() == text
