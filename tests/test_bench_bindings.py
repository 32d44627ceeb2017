"""The benchmark harness's layer bindings resolve against the package.

``bench/tracer.py`` wraps the functions its ``LAYERS`` table names, and
``bench/workloads.py`` checks answers by some of those layers; a refactor
that renames or removes one breaks the benchmark, so it fails here first.
The two files are loaded from their paths, as ``bench/run.py`` loads them.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name: str):
    """Import bench/<name>.py under its bare name, registered only for this test."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves(monkeypatch):
    # workloads imports its sibling ``oracles`` by bare name
    tracer, _, workloads = (_load(monkeypatch, n) for n in ("tracer", "oracles", "workloads"))
    bindings = tracer._Bindings("treemajority")
    assert bindings.originals.keys() == tracer.LAYERS.keys()
    for layer, function in bindings.originals.items():
        assert callable(function), layer
    assert set(workloads.CHECKED) <= set(tracer.LAYERS)
