"""The benchmark must still run against the package.

``perfbench/tracer.py`` patches rydcat functions by name; a rename in
the package would silently leave a layer untraced.  The workloads in
``perfbench/workloads.py`` call rydcat names and fields directly; a
deleted one would otherwise show only when the benchmark is run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(layer, attr):
    obj = importlib.import_module(layer.module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_layers_resolve_and_install(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    names = [(layer, attr) for layer in tracer.LAYERS for attr in layer.attrs]
    originals = [_resolve(layer, attr) for layer, attr in names]
    assert all(callable(obj) for obj in originals)

    from rydcat import montecarlo

    spans = tracer.Tracer()
    spans.install()
    try:
        for layer, attr in names:
            assert hasattr(_resolve(layer, attr), "__wrapped__"), attr
        result = montecarlo.run_monte_carlo(
            montecarlo.MonteCarloConfig(n_atoms=5, n_runs=3))
    finally:
        spans.uninstall()
    summary = spans.take()
    assert summary["montecarlo"]["calls"] == 1
    assert summary["work"]["montecarlo.runs"] == 3
    assert [_resolve(layer, attr) for layer, attr in names] == originals
    untraced = montecarlo.run_monte_carlo(
        montecarlo.MonteCarloConfig(n_atoms=5, n_runs=3))
    assert np.array_equal(result.b, untraced.b)


@pytest.mark.parametrize("name", ["mc-ref", "scan-small", "closed-form"])
def test_in_process_workload_runs_and_checks(monkeypatch, name):
    # Built at its tiny size from seed 0, one op at 1 and one at 2
    # workers; the workload's own check must find nothing, including
    # that the second op repeats the first bit for bit.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    assert workload.in_process
    inputs = workload.build(0, True)
    refs = workload.prepare(inputs)
    first = None
    for workers in (1, 2):
        result = workload.op(inputs, workers)
        assert workload.check(inputs, refs, result, first) == []
        if first is None:
            first = result


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["amplitudes", "figure2", "headline", "xcheck"])
def test_cli_output_matches_workload_reference(monkeypatch, capsys, command, fmt):
    # The cli-cold workload's output check, run in-process: what
    # ``rydcat.cli.main`` prints must parse to the blocks the workload
    # computes through the API.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    from rydcat import cli

    argv = [command, *workloads.CLI_ARGS[command], "--seed", "0", "--format", fmt]
    assert cli.main(argv) == 0
    want = workloads._expected(command, 0, config_call=False)
    if fmt == "csv":
        want.pop("fit", None)
    assert workloads._parse(capsys.readouterr().out, fmt) == want
