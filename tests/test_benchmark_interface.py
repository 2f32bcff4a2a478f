"""The library names the benchmark under perfbench/ reaches by attribute.

perfbench/tracing.py swaps timing wrappers in for every op and span it
lists, so a rename or deletion there breaks only the traced benchmark
run. This reads those lists (importing the module changes nothing) and
checks each name still exists, along with the other names the
benchmark's workloads call.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


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
