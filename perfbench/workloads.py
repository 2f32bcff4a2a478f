"""Workloads of the racdnn benchmark: seeded inputs, nets, one step each,
and the output check that decides whether a step counts as failed.

The library is driven only through its public functions, and it receives
only arrays. Inputs are made up front from the seed, never inside a timed
step.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# always the checkout's own sources, never an installed copy
sys.path.insert(0, str(SRC))
from racdnn import networks as N  # noqa: E402
from racdnn import tensor as T  # noqa: E402

# input batches per run; steps cycle through them
POOL = 4
# digests must agree to this relative tolerance: loose enough for float64
# sums taken in another order (matmul for einsum, other BLAS threading),
# far tighter than any real change to the maths
DIGEST_RTOL = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    batch: int
    kind: str        # "infer", "train_initial" or "train_two_stage"
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("infer_paper", "paper", 2, "infer",
             "deployed inference: forward conv2d, infer-mode batchnorm and bilinear_sample; "
             "no tape and no backward"),
    Workload("train_paper_initial", "paper", 2, "train_initial",
             "paper-size conv2d backward with no attention ops at all"),
    Workload("train_toy", "toy", 8, "train_two_stage",
             "the only refinement backward: bilinear_sample scatter, affine_grid, recurrent "
             "convs, many small tape nodes"),
)}


# ---------------------------------------------------------------------------
# inputs


def make_inputs(w: Workload, seed: int):
    """POOL batches of (images [B,3,S,S], masks [B,1,M,M]): one textured
    ellipse per image over blocky noise, its mask drawn at map resolution."""
    p = N.preset(w.preset)
    rng = np.random.default_rng([seed, 1])
    s, m = p.input_size, p.map_size
    img_axis = np.linspace(-1.0, 1.0, s)
    map_axis = np.linspace(-1.0, 1.0, m)

    def ellipse(axis, c, r, angle):
        x, y = axis[None, :] - c[0], axis[:, None] - c[1]
        u = x * np.cos(angle) + y * np.sin(angle)
        v = -x * np.sin(angle) + y * np.cos(angle)
        return (u / r[0]) ** 2 + (v / r[1]) ** 2 <= 1.0

    batches = []
    for _ in range(POOL):
        images = np.empty((w.batch, 3, s, s))
        masks = np.empty((w.batch, 1, m, m))
        for i in range(w.batch):
            block = max(1, s // 8)
            coarse = rng.uniform(0.2, 0.6, size=(3, s // block + 1, s // block + 1))
            bg = np.repeat(np.repeat(coarse, block, axis=1), block, axis=2)[:, :s, :s]
            c = rng.uniform(-0.5, 0.5, size=2)
            r = rng.uniform(0.2, 0.5, size=2)
            angle = rng.uniform(0.0, np.pi)
            inside = ellipse(img_axis, c, r, angle)
            color = rng.uniform(0.5, 1.0, size=3)[:, None, None]
            img = np.where(inside[None], color, bg) + rng.normal(0.0, 0.05, size=(3, s, s))
            images[i] = np.clip(img, 0.0, 1.0)
            masks[i, 0] = ellipse(map_axis, c, r, angle)
        batches.append((images, masks))
    return batches


# ---------------------------------------------------------------------------
# nets and steps


@dataclass
class Nets:
    initial: N.InitialNet
    refine: N.RefineNet


def build_nets(preset: str, seed: int) -> Nets:
    """Set-up as a user pays it: both nets, then the decoder transfer."""
    rng = np.random.default_rng([seed, 2])
    p = N.preset(preset)
    initial = N.InitialNet(p, rng)
    refine = N.RefineNet(p, rng)
    refine.load_decoder_from(initial)
    return Nets(initial, refine)


@dataclass
class Outputs:
    maps: dict          # name -> saliency map array, expected in [0, 1]
    losses: dict        # name -> float
    grads: dict         # parameter name -> grad array (or None) before zero_grads
    tape_nodes: int


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _infer(nets: Nets, images, masks) -> Outputs:
    x = T.Tensor(images)
    r0, s0 = nets.initial.initial_saliency(x)
    s, _ = nets.refine.run_refinement(x, r0)
    return Outputs({"initial": s0.data, "refined": s.data}, {}, {}, 0)


def _train_initial(nets: Nets, images, masks) -> Outputs:
    params = nets.initial.parameters()
    with T.Graph() as g:
        r0 = nets.initial.forward_raw(T.Tensor(images), mode="train")
        loss = N.refinement_loss(r0, masks)
    T.backward(loss)
    grads = {f"initial.{k}": p.grad for k, p in params.items()}
    T.zero_grads(params)
    return Outputs({"initial": _sigmoid(r0.data)}, {"initial": loss.item()}, grads, len(g))


def _train_two_stage(nets: Nets, images, masks) -> Outputs:
    x = T.Tensor(images)
    p_init = nets.initial.parameters()
    p_ref = nets.refine.parameters()
    with T.Graph() as g1:
        r0 = nets.initial.forward_raw(x, mode="train")
        loss1 = N.refinement_loss(r0, masks)
    T.backward(loss1)
    # the refinement stage starts from the initial map as a constant
    with T.Graph() as g2:
        s, trace = nets.refine.run_refinement(x, T.Tensor(r0.data), mode="train")
        loss2 = N.refinement_loss(trace.raw_final, masks)
    T.backward(loss2)
    grads = {f"initial.{k}": p.grad for k, p in p_init.items()}
    grads.update({f"refine.{k}": p.grad for k, p in p_ref.items()})
    T.zero_grads(p_init)
    T.zero_grads(p_ref)
    return Outputs({"initial": _sigmoid(r0.data), "refined": s.data},
                   {"initial": loss1.item(), "refined": loss2.item()},
                   grads, len(g1) + len(g2))


STEPS = {"infer": _infer, "train_initial": _train_initial, "train_two_stage": _train_two_stage}


def step(w: Workload, nets: Nets, batch) -> Outputs:
    return STEPS[w.kind](nets, *batch)


# ---------------------------------------------------------------------------
# output check


def digest(out: Outputs) -> dict:
    """Order-sensitive but reorder-tolerant fingerprints of a step's result."""
    d = {f"loss.{k}": v for k, v in out.losses.items()}
    for k, a in out.maps.items():
        flat = a.reshape(-1)
        weights = 1.0 + (np.arange(flat.size) % 7) / 7.0
        d[f"map.{k}.sum"] = float(flat.sum())
        d[f"map.{k}.wsum"] = float(flat @ weights)
    # norms, not signed sums, so that cancellation cannot eat the tolerance
    for net in sorted({k.split(".", 1)[0] for k in out.grads}):
        gs = [g for k, g in out.grads.items() if k.startswith(net + ".")]
        d[f"grad.{net}.l1"] = float(sum(np.abs(g).sum() for g in gs))
        d[f"grad.{net}.l2"] = float(sum((g * g).sum() for g in gs))
    return d


def load_reference(w: Workload, seed: int):
    """Per-batch reference digests of `w` at `seed`, or None if not committed."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text())
    if ref["seed"] != seed:
        return None
    return ref["workloads"].get(f"{w.name}@{w.preset}")


def check(w: Workload, out: Outputs, reference=None) -> list[str]:
    """Every way `out` is wrong; empty when the step's result is right."""
    p = N.preset(w.preset)
    problems = []
    shape = (w.batch, 1, p.map_size, p.map_size)
    for name, a in out.maps.items():
        if a.shape != shape:
            problems.append(f"map {name} has shape {a.shape}, expected {shape}")
        elif not np.all(np.isfinite(a)):
            problems.append(f"map {name} is not finite")
        elif a.min() < 0.0 or a.max() > 1.0:
            problems.append(f"map {name} leaves [0, 1]")
    for name, v in out.losses.items():
        if not np.isfinite(v):
            problems.append(f"loss {name} is not finite")
    for name, g in out.grads.items():
        if g is None:
            problems.append(f"parameter {name} got no grad")
        elif not np.all(np.isfinite(g)):
            problems.append(f"parameter {name} has a non-finite grad")
    if w.kind != "infer" and not out.grads:
        problems.append("train step reported no grads")
    if reference is not None and not problems:
        got = digest(out)
        if got.keys() != reference.keys():
            problems.append(f"digest keys {sorted(got)} != reference {sorted(reference)}")
        else:
            for k, want in reference.items():
                if not np.isclose(got[k], want, rtol=DIGEST_RTOL, atol=0.0):
                    problems.append(f"{k} = {got[k]!r}, reference {want!r}")
    return problems
