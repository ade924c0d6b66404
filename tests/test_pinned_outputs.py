"""results.csv bytes of small simulate runs, pinned.

One small config per experiment shape: a convergence run in each mode, a
perturbation, the two-limit counterexample, a Birkhoff series with the
section's defaults, the hidden-Markov greedy adversary, and LZ78 phrases on
the hidden-Markov source.  A change that moves any cell of these files
changes its sha256 here; such a change has to say why in CHANGES.md and
re-pin the digest.
"""

import hashlib
import json

import pytest

from parsentropy import reference_model, save_model
from parsentropy.cli import cmd_simulate

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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_results_csv_bytes_are_pinned(tmp_path, name):
    config, digest = PINNED[name]
    save_model(reference_model(config["model"].removesuffix(".json")), tmp_path / config["model"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cmd_simulate(str(path), workers=1, out_dir=str(out)) == 0
    csv_bytes = (next(out.iterdir()) / "results.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == digest
