"""Traced run: timing wrappers around racdnn's public functions, installed
from outside the library, and the per-layer metrics computed from them.

Each wrapper records a span (name, start, end, parent, step). Every
module's `record` is wrapped too, so that the backward closure an op puts
on the tape is timed under that op's name when `backward` calls it. A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from workloads import N, T
from racdnn import attention as A
from racdnn import nn

_clock = time.perf_counter

# (module, attribute, span name); the span name doubles as the op label
OPS = [
    (nn, "conv2d", "nn.conv2d"),
    (nn, "batchnorm", "nn.batchnorm"),
    (nn, "unpool", "nn.unpool"),
    (nn, "linear", "nn.linear"),
    (nn, "bce_with_logits", "nn.bce_with_logits"),
    (A, "bilinear_sample", "attention.bilinear_sample"),
    (A, "affine_grid", "attention.affine_grid"),
    (A, "constrain_attention", "attention.constrain_attention"),
    (A, "inverse_support", "attention.inverse_support"),
    (T, "add", "tensor.add"),
    (T, "relu", "tensor.relu"),
    (T, "sigmoid", "tensor.sigmoid"),
    (T, "reshape", "tensor.reshape"),
    (T, "masked_add", "tensor.masked_add"),
]
SPANS = [
    (T, "backward", "tensor.backward"),
    (N.InitialNet, "forward_raw", "networks.initial.forward"),
    (N.RefineNet, "run_refinement", "networks.refine.rollout"),
    (N.RefineNet, "init_state", "networks.refine.init_state"),
    (N.RefineNet, "attend", "networks.refine.attend"),
    (N.RefineNet, "refine_step", "networks.refine.refine_step"),
    (N.RefineNet, "conv_recurrent_step", "networks.refine.recurrent"),
    (N.RefineNet, "fc_recurrent_step", "networks.refine.recurrent"),
    (N.RefineNet, "localize", "networks.refine.localize"),
]
RECORDERS = (nn, A, T)
ELEMENTWISE = ("tensor.add", "tensor.relu", "tensor.sigmoid", "tensor.reshape",
               "tensor.masked_add")
NETWORK_SPANS = ("networks.initial.forward", "networks.refine.rollout",
                 "networks.refine.init_state", "networks.refine.attend",
                 "networks.refine.refine_step", "networks.refine.recurrent",
                 "networks.refine.localize")
STEP = "step"

# per-layer metric name -> unit; the traced run emits exactly these
METRICS = {
    "nn.conv2d.fwd_s": "s", "nn.conv2d.bwd_s": "s", "nn.conv2d.calls": "count",
    "nn.conv2d.gflop": "GFLOP", "nn.conv2d.fwd_gflops": "GFLOP/s",
    "nn.conv2d.bwd_gflops": "GFLOP/s",
    **{f"nn.{op}.{d}_s": "s" for op in ("batchnorm", "unpool", "linear", "bce_with_logits")
       for d in ("fwd", "bwd")},
    "attention.bilinear_sample.fwd_s": "s", "attention.bilinear_sample.bwd_s": "s",
    "attention.affine_grid.fwd_s": "s", "attention.affine_grid.bwd_s": "s",
    "attention.inverse_support.s": "s",
    "attention.constrain_attention.fwd_s": "s", "attention.constrain_attention.bwd_s": "s",
    "attention.calls": "count",
    "tensor.backward.s": "s", "tensor.backward.walk_s": "s", "tensor.tape.nodes": "count",
    "tensor.elementwise.fwd_s": "s", "tensor.elementwise.bwd_s": "s",
    "tensor.retained_mb": "MB", "tensor.step_peak_mb": "MB",
    **{f"{name}{part}_s": "s" for name in NETWORK_SPANS for part in ("", "_self")},
    "trace.step_s": "s", "trace.unattributed_s": "s", "trace_overhead": "ratio",
}


class Tracer:
    """In-memory span log. `install()` swaps the wrappers in, `restore()`
    puts the library's own functions back."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, step]
        self.stack = []        # indices of open spans
        self.step = -1
        self.flop = {"fwd": 0, "bwd": 0}
        self._call_flop = 0    # forward flop of the conv2d call now running
        self._saved = []

    def _begin(self, name):
        self.spans.append([name, _clock(), 0.0, self.stack[-1] if self.stack else -1, self.step])
        self.stack.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self.stack.pop()][2] = _clock()

    def wrap(self, fn, name):
        def timed(*args, **kwargs):
            self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()
        return timed

    def _wrap_conv(self, fn):
        timed = self.wrap(fn, "nn.conv2d")

        def conv2d(x, p):
            c_out, c_in, kh, kw = p.weights.shape
            ho = nn.conv_output_size(x.shape[-2], kh, p.stride, p.padding)
            wo = nn.conv_output_size(x.shape[-1], kw, p.stride, p.padding)
            batch = x.shape[0] if x.ndim == 4 else 1
            self._call_flop = 2 * batch * c_out * ho * wo * c_in * kh * kw
            self.flop["fwd"] += self._call_flop
            return timed(x, p)
        return conv2d

    def _wrap_record(self, fn):
        ops = {name for _, _, name in OPS}

        def record(out_data, inputs, backward_fn):
            op = self.spans[self.stack[-1]][0] if self.stack else None
            if op not in ops:
                return fn(out_data, inputs, backward_fn)
            # input and weight gradients: twice the forward multiply-adds
            flop = 2 * self._call_flop if op == "nn.conv2d" else 0
            timed = self.wrap(backward_fn, op + ".bwd")

            def traced_backward(og):
                self.flop["bwd"] += flop
                return timed(og)
            return fn(out_data, inputs, traced_backward)
        return record

    def install(self):
        def swap(owner, attr, new):
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for owner, attr, name in OPS + SPANS:
            fn = getattr(owner, attr)
            swap(owner, attr, self._wrap_conv(fn) if name == "nn.conv2d" else self.wrap(fn, name))
        for module in RECORDERS:
            swap(module, "record", self._wrap_record(module.record))

    def restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_step(self, fn, *args):
        """Run `fn(*args)` as one traced step and return its result."""
        self.step += 1
        self._begin(STEP)
        try:
            return fn(*args)
        finally:
            self._end()

    def totals(self):
        """Per span name: summed duration, summed self time and count."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total, self_time, count = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            total[name] += end - start
            self_time[name] += end - start - cov
            count[name] += 1
        return total, self_time, count

    def layer_metrics(self) -> dict:
        """Per-step averages over the traced steps, without the memory
        figures and the overhead ratio, which the caller measures."""
        n = self.step + 1
        total, self_time, count = self.totals()
        out = {}
        for _, _, name in OPS:
            if f"{name}.fwd_s" in METRICS:
                out[f"{name}.fwd_s"] = total[name] / n
                out[f"{name}.bwd_s"] = total[name + ".bwd"] / n
        out["nn.conv2d.calls"] = count["nn.conv2d"] / n
        out["nn.conv2d.gflop"] = (self.flop["fwd"] + self.flop["bwd"]) / n / 1e9
        out["nn.conv2d.fwd_gflops"] = _rate(self.flop["fwd"], total["nn.conv2d"])
        out["nn.conv2d.bwd_gflops"] = _rate(self.flop["bwd"], total["nn.conv2d.bwd"])
        out["attention.inverse_support.s"] = total["attention.inverse_support"] / n
        out["attention.calls"] = sum(count[name] for _, _, name in OPS
                                     if name.startswith("attention.")) / n
        out["tensor.backward.s"] = total["tensor.backward"] / n
        out["tensor.backward.walk_s"] = self_time["tensor.backward"] / n
        out["tensor.elementwise.fwd_s"] = sum(total[k] for k in ELEMENTWISE) / n
        out["tensor.elementwise.bwd_s"] = sum(total[k + ".bwd"] for k in ELEMENTWISE) / n
        for name in NETWORK_SPANS:
            out[f"{name}_s"] = total[name] / n
            out[f"{name}_self_s"] = self_time[name] / n
        out["trace.step_s"] = total[STEP] / n
        out["trace.unattributed_s"] = self_time[STEP] / n
        return out

    def dump(self, path, env):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "env": env,
            "fields": ["name", "start_s", "end_s", "parent", "step"],
            "spans": self.spans}))


def _rate(flop, seconds):
    return flop / seconds / 1e9 if seconds > 0 else 0.0
