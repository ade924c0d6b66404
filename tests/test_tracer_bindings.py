"""The benchmark's layer tracer (perfbench/tracer.py) still binds what it times.

The tracer rebinds public functions by name, so a renamed or dropped
function, or a changed signature it reads arguments from, breaks it; and
only the work done inside a rebound function reaches its layer.  This loads
the tracer from its file without changing it.
"""

import importlib.util
import json
from pathlib import Path

import parsentropy
from parsentropy import cli, reference_model, save_model

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_times_enumeration_and_restores_bindings():
    tracer = _load_tracer()
    bindings = tracer.traced_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(module, name) is not original for module, name, original in bindings)
        parsentropy.entropy_rate(reference_model("h1"))
    finally:
        t.uninstall()
    assert all(getattr(module, name) is original for module, name, original in bindings)
    assert [span[1] for span in t.spans] == ["measures.enum"]
    # h1's sandwich reaches n = 8 (2 + 4 + ... + 256 = 510 atoms) in three sweeps
    # through level_probs: from the stationary law and from each of the 2 hidden states
    assert t.counts["measures.enum_atoms"] == 3 * 510


def test_tracer_times_sampling_and_lz78_of_a_simulate(tmp_path):
    # sample_trajectory and parse_lz78 do the work of their layers themselves
    save_model(reference_model("m1"), tmp_path / "m1.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "schema_version": 1, "experiment": "convergence", "model": "m1.json",
        "parser": {"family": "lz78"}, "n_grid": [1000, 4000], "seeds": [7], "tolerance": 1.0}))
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.cmd_simulate(str(path), workers=1, out_dir=str(tmp_path / "out")) == 0
        traj = parsentropy.sample_trajectory(reference_model("m1"), 100, seed=1)
        lz78 = parsentropy.parse_lz78(traj, 100)
    finally:
        t.uninstall()
    spans = [(span[1], span[2]) for span in t.spans]
    assert ("measures.sample", "sample_trajectory") in spans
    assert ("cli.emit", "_records_to_csv") in spans
    assert spans.count(("parsing.parse", "lz78")) >= 2       # the run's parse and the direct call
    assert t.counts["measures.sample_symbols"] >= 4100
    assert t.counts["parsing.blocks"] >= lz78.c
