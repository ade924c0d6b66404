"""Output bytes of small simulate runs, their reports and verify, pinned.

One small config per experiment shape: a convergence run in each mode, a
perturbation, the two-limit counterexample, a Birkhoff series with the
section's defaults, the hidden-Markov greedy adversary, and LZ78 phrases on
the hidden-Markov source.  Each run's results.csv, summary.json and the
plot TSVs that ``report`` writes are pinned, and so are the stdout and
verify_results.csv of ``verify --suite all``.  A change that moves any cell
of these files changes its sha256 here; such a change has to say why in
CHANGES.md and re-pin the digest.
"""

import contextlib
import hashlib
import io
import json

import pytest

from parsentropy import reference_model, save_model
from parsentropy.cli import cmd_report, cmd_simulate, cmd_verify

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
        "summary.json": "d9ba51ceeee04f94491612ddc995f6f797d479d8424fe730382c5636308d882d"},
    "h1-lz78": {
        "plot__a89b940ff9cb__lz78.tsv":
            "010e5917f2e376801b496a527b354ab66d13212696268fefb7ac3cce532e7dc5",
        "summary.json": "d20982f649144218dddc301b860318a812be37686fdeb69142e9330cf191de0a"},
    "h1-two-limit": {
        "plot__a89b940ff9cb__counterexample_w.tsv":
            "a6e3db79bf11d8de7a427b9221e027d4a40c257d700e9967b6e1e6535f122777",
        "summary.json": "802113ad88f3ae6ff8deb79ce692db4e5b83cf448d2a3c3b07f3f0fd649da51b"},
    "m1-birkhoff-defaults": {
        "plot__1607aad86c0f__birkhoff.tsv":
            "2c791a4094be82a1aa1581c43d29bc7b7ab259fbbed2ddb46bb708564d7f5e61",
        "summary.json": "aeba95890c6f2ab5ee3eebef0f0b23d8922ed1a3c9735d70cf1f52e80f1546a1"},
    "m1-growing-sqrt": {
        "plot__1607aad86c0f__growing.tsv":
            "3f7056991c65fa9b1ac7ab049f7be504f9fc2ac8a313dcec98b1063200e7ae12",
        "summary.json": "36647146ed111c897ab9e1045c271c7488c2caae3ef532e2969d004965ddf347"},
    "m1-trim1": {
        "plot__1607aad86c0f__growing.tsv":
            "d92c01ec6b011f7ee4ea4580a077321e78f3ea6e5e3283c7ab4cef7cc2de3293",
        "summary.json": "6019f6cefde51e9a664075288134bfe1d76518eed08a962fb2f0a40ff658796f"},
    "mixture-growing-sqrt-l1": {
        "plot__9a095316671b__growing.tsv":
            "f3fb2589c50ae3fa17a6f3ddc0f37ecdefb43ec1c25c42dae6e3864837fb8099",
        "summary.json": "fe07a1f1042d34ce300b670b81d4222ed911e79714425e7578d65986f950234b"},
}
VERIFY_RESULTS_CSV = "003b9e49391a2016d228c81f8a532309470bb0d0d74a9c70d29e3d3a4998b227"
VERIFY_STDOUT = "d546d0bd3e82ec384edd8346de67158b832dcd49e93e4825980fae48b1a65722"


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
