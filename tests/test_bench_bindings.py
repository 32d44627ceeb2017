"""The benchmark harness's layer bindings resolve against the package.

``bench/tracer.py`` wraps the functions its ``LAYERS`` table names, and
``bench/workloads.py`` checks answers by some of those layers; a refactor
that renames or removes one breaks the benchmark, so it fails here first.
The two files are loaded from their paths, as ``bench/run.py`` loads them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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


SIMULATE = ["simulate", "--m", "3", "--p", "0.7", "--depth", "3", "--horizon", "2",
            "--pi0", "0.3", "--reps", "5", "--seed", "1"]
ESTIMATE = ["estimate-g", "--m", "3", "--p", "0.7", "--x", "0.3", "--samples", "100", "--seed", "1"]


def test_forbid_reaches_the_simulator_through_the_cli(monkeypatch):
    # cli imports mc's functions when a request runs, so a rebinding in mc is what it calls
    tracer = _load(monkeypatch, "tracer")
    from treemajority import cli

    with tracer.forbid("treemajority", ["mc.simulate_tree", "mc.estimate_g_one_step"]):
        for argv in (SIMULATE, ESTIMATE):
            with pytest.raises(tracer.OracleDependenceError):
                cli.main(argv)
    assert cli.main(SIMULATE) == 0


def test_tracer_counts_simulator_spans_through_the_cli(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    from treemajority import cli

    traced = tracer.Tracer("treemajority")
    traced.install()
    try:
        for request_id in range(3):
            traced.request_id = request_id
            assert cli.main(SIMULATE) == 0
    finally:
        traced.uninstall()
    counts = traced.counts[traced.layers.index("mc.simulate_tree")]
    assert counts["calls"] == 3
    assert counts["vertex_updates"] == 3 * 5 * 2 * (1 + 3 + 9)
