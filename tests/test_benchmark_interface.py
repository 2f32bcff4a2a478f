"""The library names the benchmark under perfbench/ reaches by attribute.

perfbench/tracing.py swaps timing wrappers in for every op and span it
lists, so a rename or deletion there breaks only the traced benchmark
run. This reads those lists (importing the module changes nothing) and
checks each name still exists, along with the other names the
benchmark's workloads call. A wrapper also fixes how the library calls
its op (``conv2d(x, p)``), so one traced step runs too.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def tracing():
    return perfbench_module("tracing")


def test_traced_ops_and_spans_exist(tracing):
    for owner, attr, name in tracing.OPS + tracing.SPANS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
    assert {m.__name__ for m in tracing.RECORDERS} == {
        "racdnn.nn", "racdnn.attention", "racdnn.tensor"}
    for module in tracing.RECORDERS:
        assert callable(getattr(module, "record", None)), f"{module.__name__}.record is gone"


def test_workload_calls_exist(tracing):
    N, T, nn = tracing.N, tracing.T, tracing.nn
    for owner, attr in [(nn, "conv_output_size"), (N, "preset"), (N, "refinement_loss"),
                        (N.InitialNet, "initial_saliency"), (N.InitialNet, "parameters"),
                        (N.RefineNet, "load_decoder_from"), (N.RefineNet, "parameters"),
                        (T, "backward"), (T, "zero_grads"), (T.Graph, "__len__")]:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
    assert "raw_final" in {f.name for f in dataclasses.fields(N.RefinementTrace)}


def test_one_traced_train_step_passes_its_check(tracing):
    workloads = perfbench_module("workloads")
    w = workloads.Workload("train_tiny", "tiny", 2, "train_two_stage", "a traced step, fast")
    nets = workloads.build_nets(w.preset, 0)
    batch = workloads.make_inputs(w, 0)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = tracer.run_step(workloads.step, w, nets, batch)
    finally:
        tracer.restore()
    assert workloads.check(w, out) == []
    metrics = tracer.layer_metrics()
    assert metrics["nn.conv2d.calls"] > 0 and metrics["nn.conv2d.bwd_s"] > 0
