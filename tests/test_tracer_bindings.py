"""The benchmark's layer tracer (perfbench/tracer.py) still binds what it times.

The tracer rebinds public functions by name, so a renamed or dropped
function, or a changed signature it reads arguments from, breaks it.  This
loads the tracer from its file without changing it.
"""

import importlib.util
from pathlib import Path

import parsentropy
from parsentropy import reference_model

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
    assert t.counts["measures.enum_atoms"] > 0
