"""Smoke test of the benchmark itself, on the `tiny` preset.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import run
import tracing
import workloads as wl

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
# each workload's step on the smallest preset
TINY = {name: dataclasses.replace(w, preset="tiny") for name, w in wl.WORKLOADS.items()}


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_step_passes_its_check(name):
    w = TINY[name]
    nets = wl.build_nets(w.preset, 0)
    out = wl.step(w, nets, wl.make_inputs(w, 0)[0])
    assert wl.check(w, out) == []
    # a value off by 1e-6 relative is caught by the digest comparison
    ref = {k: v * (1 + 1e-6) for k, v in wl.digest(out).items()}
    assert wl.check(w, out, ref)


def test_workloads_match_benchmark_json():
    assert [x["name"] for x in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    ref = json.loads(wl.REFERENCE.read_text())
    for w in wl.WORKLOADS.values():
        assert len(wl.load_reference(w, ref["seed"])) == wl.POOL


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted_with_units(name):
    metrics, stats, notes = run.end_to_end(wl, TINY[name], 0, 0.05)
    assert {k: m["unit"] for k, m in metrics.items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    assert stats.failed == 0 and notes["error_rate"] == 0.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_metrics_emitted_with_units(name):
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.OPS + tracing.SPANS]
    metrics, stats, _ = run.traced(wl, TINY[name], 0, 0.05, {})
    assert {k: m["unit"] for k, m in metrics.items()} == units("per_layer")
    assert stats.failed == 0
    # the library's own functions are back in place
    assert originals == [getattr(owner, attr) for owner, attr, _ in tracing.OPS + tracing.SPANS]
    v = {k: m["value"] for k, m in metrics.items()}
    # ops have no traced children, so their fwd/bwd times are self times
    self_times = [k for k in v if k.endswith(("fwd_s", "bwd_s", "_self_s"))]
    self_times += ["attention.inverse_support.s", "tensor.backward.walk_s",
                   "trace.unattributed_s"]
    total = sum(v[k] for k in self_times)
    assert math.isclose(total, v["trace.step_s"], rel_tol=1e-9)
    if TINY[name].kind == "infer":
        assert v["tensor.backward.s"] == 0.0
        assert all(v[k] == 0.0 for k in v if k.endswith("bwd_s"))
    if TINY[name].kind == "train_initial":
        assert all(v[k] == 0.0 for k in v if k.startswith("attention."))
    if TINY[name].kind == "train_two_stage":
        assert v["attention.bilinear_sample.bwd_s"] > 0.0


def test_corrupted_output_counts_toward_error_rate(monkeypatch):
    w = TINY["train_toy"]
    good = wl.STEPS[w.kind]

    def corrupted(*args):
        out = good(*args)
        out.maps["refined"] = out.maps["refined"].copy()
        out.maps["refined"][0, 0, 0, 0] = np.nan
        return out

    monkeypatch.setitem(wl.STEPS, w.kind, corrupted)
    _, stats, notes = run.end_to_end(wl, w, 0, 0.05)
    assert stats.failed == stats.attempted > 0
    assert notes["error_rate"] == 1.0
    assert "not finite" in stats.problems[0]
