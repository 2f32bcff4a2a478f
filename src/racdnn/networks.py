"""Network assembly: the initial encoder-decoder saliency network and the
recurrent attentional refinement network.

The encoder shrinks an image to a spatially compact code by stride-2
convolutions; the decoder grows the code back to a raw (pre-sigmoid)
saliency map through blocks of a 2x unpool then a 5x5 convolution, run
as one transposed convolution at stride 2 (``nn.unpool_conv2d``, whose
weights are stored as they scatter and which never builds the unpooled
zeros), each followed by a capacity-adding 1x1 convolution. Every
convolution pads by ``kernel // 2`` and takes its input channels from
the layer before it; the last 1x1 emits the 1-channel raw map. Each
layer but that last one is conv, batchnorm, ReLU. A :class:`Stack` runs
them as pre-activation units: the batchnorm and ReLU of a layer run
inside the next layer's convolution, as one tape node
(``nn.bn_relu_conv2d``, ``nn.bn_relu_unpool_conv2d``) that keeps one
activation. The first convolution of a stack is a plain op, and the
encoder ends in ``relu(batchnorm)``. The refinement network re-uses the
same encoder/decoder shapes inside a two-layer recurrent loop that
attends to one window per iteration and accumulates decoded patches into
the running map; under a graph, each glimpse's head is one checkpoint
node (:meth:`RefineNet.run_refinement`).

Both networks take batched input only: images ``[B,3,S,S]`` and raw maps
``[B,1,M,M]``. A rollout returns a :class:`RefinementTrace` holding each
iteration's window and running map, which is all it takes to see where
attention looked and what it wrote there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import attention as at
from . import nn
from . import tensor as T
from .errors import ArgumentError, ShapeError
from .tensor import Tensor, _check_tensor

DEFAULT_ITERATIONS = 9
# encoder layers in each glimpse's checkpointed head (RefineNet.run_refinement),
# clamped to the encoder's depth
HEAD_LAYERS = 3
IMAGE_CHANNELS = 3


@dataclass(frozen=True)
class Preset:
    """Shape constants of both networks: the layer tables, the input size
    and the widths of the fully-connected layers. The tables state only
    the widths and kernels; every encoder layer has stride 2, every
    convolution pads by ``kernel // 2``, each layer's input channels are
    the previous layer's output (``IMAGE_CHANNELS`` for the first encoder
    layer, the code's channels for the first decoder block), and the last
    decoder block ends in the 1-channel raw map. The code's channels and
    side and the map side are read-only values derived from the tables.
    The first recurrent state shares the code's channel count and spatial
    size so the decoder can consume either."""

    name: str
    input_size: int
    encoder: tuple          # (c_out, kernel) per stride-2 layer
    decoder: tuple          # width per block: unpool+5x5 conv, then 1x1 conv
    state_dim: int
    loc_hidden: int

    @property
    def code_channels(self) -> int:
        """The last encoder layer's output channels."""
        return self.encoder[-1][0]

    @property
    def code_size(self) -> int:
        """Side of the code: `input_size` through every encoder layer."""
        size = self.input_size
        for _, kernel in self.encoder:
            size = nn.conv_output_size(size, kernel, 2, kernel // 2)
        return size

    @property
    def map_size(self) -> int:
        """Side of the raw map: every decoder block doubles the code's side."""
        return self.code_size * 2 ** len(self.decoder)


_PRESETS = {
    "paper": Preset(
        name="paper", input_size=224,
        encoder=((64, 5), (128, 3), (256, 3), (256, 3), (256, 3)),
        decoder=(128, 64, 32),
        state_dim=512, loc_hidden=256),
    "toy": Preset(
        name="toy", input_size=64,
        encoder=((16, 5), (24, 3), (32, 3), (32, 3)),
        decoder=(24, 16, 8),
        state_dim=64, loc_hidden=32),
    "tiny": Preset(
        name="tiny", input_size=16,
        encoder=((8, 3), (8, 3)),
        decoder=(8, 4),
        state_dim=16, loc_hidden=8),
}


def preset(name: str) -> Preset:
    try:
        return _PRESETS[name]
    except (KeyError, TypeError):     # TypeError: an unhashable name
        raise ArgumentError(f"unknown preset {name!r}; have {sorted(_PRESETS)}") from None


def _bn(c: int) -> nn.BatchNormParams:
    return nn.BatchNormParams(
        gamma=T.full([c], 1.0, requires_grad=True),
        beta=T.zeros([c], requires_grad=True),
        running_mean=T.zeros([c]),
        running_var=T.full([c], 1.0))


class ConvLayer:
    """A convolution whose output goes through batchnorm and ReLU, or the
    conv alone when ``bare``. The layer owns its batchnorm, but the
    batchnorm and ReLU run where the output is read: inside the next
    layer's convolution, or after the last layer of a :class:`Stack`.
    Only a bare layer has a bias. Before a batchnorm a bias does nothing:
    train mode subtracts the batch mean, and in infer mode the running mean
    absorbs it (Ioffe & Szegedy 2015, arXiv 1502.03167, section 3.2)."""

    def __init__(self, c_in, c_out, kernel, rng, stride=1, bare=False):
        self.conv = nn.Conv2dParams(
            weights=self.draw(c_in, c_out, kernel, rng),
            bias=T.zeros([c_out], requires_grad=True) if bare else None,
            stride=stride, padding=kernel // 2)
        self.norm = None if bare else _bn(c_out)

    @staticmethod
    def draw(c_in, c_out, kernel, rng) -> Tensor:
        """He-normal weights [c_out, c_in, k, k]: the conv's layout."""
        return T.he_normal([c_out, c_in, kernel, kernel], rng, requires_grad=True)

    def __call__(self, x: Tensor, norm: Optional[nn.BatchNormParams], mode: str) -> Tensor:
        """This layer's convolution of `x`, or, when the layer before left
        its batchnorm `norm` to apply, of ``relu(batchnorm(x, norm, mode))``
        as one op."""
        if norm is None:
            return nn.conv2d(x, self.conv)
        return nn.bn_relu_conv2d(x, norm, mode, self.conv)

    def tensors(self):
        yield "w", self.conv.weights
        if self.conv.bias is not None:
            yield "b", self.conv.bias
        if self.norm is not None:
            yield "gamma", self.norm.gamma
            yield "beta", self.norm.beta
            yield "rmean", self.norm.running_mean
            yield "rvar", self.norm.running_var


class UnpoolConvLayer(ConvLayer):
    """A ConvLayer whose stride-1 conv reads its input unpooled by 2,
    without building the unpooled zeros: a transposed convolution at
    stride 2 (``nn.unpool_conv2d``) whose weights are stored as they
    scatter, [c_in, c_out, k, k] with the kernel flipped."""

    @staticmethod
    def draw(c_in, c_out, kernel, rng) -> Tensor:
        """ConvLayer's draws, at its fan-in, so that a seeded net computes
        the same function, put into the stored layout one output channel at
        a time: a whole drawn array, copied and dropped, would leave more of
        the heap resident (glibc raises its mmap threshold to a freed mapping's size)."""
        w = np.empty((c_in, c_out, kernel, kernel))
        for o in range(c_out):
            w[:, o] = T.he_normal([1, c_in, kernel, kernel], rng).data[0, :, ::-1, ::-1]
        return T.Tensor(w, requires_grad=True)

    def __call__(self, x: Tensor, norm: Optional[nn.BatchNormParams], mode: str) -> Tensor:
        if norm is None:
            return nn.unpool_conv2d(x, self.conv)
        return nn.bn_relu_unpool_conv2d(x, norm, mode, self.conv)


class Stack:
    """A named sequence of layers with flat tensor naming, run as
    pre-activation units: each layer's batchnorm and ReLU run inside the
    next layer's convolution, and the last layer's on their own."""

    def __init__(self, layers: list):
        self.layers = layers

    def __call__(self, x: Tensor, mode: str, start: int = 0) -> Tensor:
        """The stack from layer `start` on, ending in the last layer's
        batchnorm and ReLU; `x` is layer ``start - 1``'s convolution output
        when `start` > 0."""
        x = self.convs(x, mode, start, len(self.layers))
        norm = self.layers[-1].norm
        return x if norm is None else T.relu(nn.batchnorm(x, norm, mode))

    def convs(self, x: Tensor, mode: str, start: int, stop: int) -> Tensor:
        """Layer ``stop - 1``'s convolution output: the convolutions of
        layers `start` to ``stop - 1``, each reading the layer before
        through that layer's batchnorm and ReLU, from `x`, which is layer
        ``start - 1``'s convolution output when `start` > 0."""
        norm = self.layers[start - 1].norm if start else None
        for layer in self.layers[start:stop]:
            x = layer(x, norm, mode)
            norm = layer.norm
        return x

    def tensors(self):
        for i, layer in enumerate(self.layers):
            for key, t in layer.tensors():
                yield f"{i}.{key}", t


def build_encoder(p: Preset, rng) -> Stack:
    layers, c_in = [], IMAGE_CHANNELS
    for c_out, kernel in p.encoder:
        layers.append(ConvLayer(c_in, c_out, kernel, rng, stride=2))
        c_in = c_out
    return Stack(layers)


def build_decoder(p: Preset, rng) -> Stack:
    layers, c_in = [], p.code_channels
    for i, width in enumerate(p.decoder):
        final = i == len(p.decoder) - 1
        layers.append(UnpoolConvLayer(c_in, width, 5, rng, stride=2))
        # 1x1 capacity layer; the very last one emits the 1-channel raw map bare
        layers.append(ConvLayer(width, 1 if final else width, 1, rng, bare=final))
        c_in = width
    return Stack(layers)


def _check_images(images: Tensor, p: Preset) -> Tensor:
    _check_tensor(images, "images")
    if images.ndim != 4 or images.shape[1:] != (IMAGE_CHANNELS, p.input_size, p.input_size):
        raise ShapeError(f"preset {p.name!r} expects images "
                         f"[B,{IMAGE_CHANNELS},{p.input_size},{p.input_size}], got {images.shape}")
    return images


class InitialNet:
    """Single-pass saliency network: encode the whole image, decode a raw
    map, squash with a sigmoid."""

    def __init__(self, p: Preset, rng: np.random.Generator):
        self.preset = p
        self.encoder = build_encoder(p, rng)
        self.decoder = build_decoder(p, rng)

    def forward_raw(self, images: Tensor, mode: str = "infer") -> Tensor:
        x = _check_images(images, self.preset)
        return self.decoder(self.encoder(x, mode), mode)

    def initial_saliency(self, images: Tensor, mode: str = "infer"):
        """Raw map and its sigmoid-normalized form."""
        r0 = self.forward_raw(images, mode)
        return r0, T.sigmoid(r0)

    def tensors(self):
        """Every tensor by name, batchnorm running statistics included."""
        for key, t in self.encoder.tensors():
            yield f"enc.{key}", t
        for key, t in self.decoder.tensors():
            yield f"dec.{key}", t

    def parameters(self) -> dict[str, Tensor]:
        """The tensors that take a gradient."""
        return {key: t for key, t in self.tensors() if t.requires_grad}


@dataclass
class RefinementTrace:
    """Per-iteration record of a refinement rollout: the attended window
    and the running raw map after that iteration. Entry 0 is the
    whole-image observation (the identity window and the initial map).
    What iteration i wrote is ``maps[i] - maps[i-1]``, nonzero only inside
    ``windows[i]``. Entry 0's map is a copy of the caller's initial map;
    every later entry is the op output itself, which nothing writes into."""

    windows: list = field(default_factory=list)    # [B,3] arrays
    maps: list = field(default_factory=list)       # [B,1,M,M]
    raw_final: Optional[Tensor] = None             # graph-attached final map

    def __len__(self):
        return len(self.maps)


class RefineNet:
    """Recurrent attentional refinement: a context encoder for iteration 0,
    a shared window encoder/decoder, a convolutional first recurrent layer,
    a fully-connected second recurrent layer, and a two-layer localization
    regressor feeding the attention constraint mapping."""

    def __init__(self, p: Preset, rng: np.random.Generator):
        self.preset = p
        c, s, d = p.code_channels, p.code_size, p.state_dim
        self.context = build_encoder(p, rng)
        self.encoder = build_encoder(p, rng)
        self.decoder = build_decoder(p, rng)
        self.w1_i = nn.Conv2dParams(
            T.he_normal([c, c, 3, 3], rng, requires_grad=True),
            bias=T.zeros([c], requires_grad=True), stride=1, padding=1)
        self.w1_r = nn.Conv2dParams(
            T.he_normal([c, c, 3, 3], rng, requires_grad=True),
            bias=None, stride=1, padding=1)
        flat = c * s * s
        self.w2_i = nn.LinearParams(
            T.he_normal([d, flat], rng, requires_grad=True),
            bias=T.zeros([d], requires_grad=True))
        self.w2_r = nn.LinearParams(
            T.he_normal([d, d], rng, requires_grad=True), bias=None)
        self.loc1 = nn.LinearParams(
            T.he_normal([p.loc_hidden, d], rng, requires_grad=True),
            bias=T.zeros([p.loc_hidden], requires_grad=True))
        self.loc2 = nn.LinearParams(
            T.he_normal([3, p.loc_hidden], rng, requires_grad=True),
            bias=T.zeros([3], requires_grad=True))

    # -- one step of each recurrence ------------------------------------

    def conv_recurrent_step(self, z: Tensor, h1_prev: Optional[Tensor]) -> Tensor:
        pre = nn.conv2d(z, self.w1_i)
        if h1_prev is not None:
            pre = T.add(pre, nn.conv2d(h1_prev, self.w1_r))
        return T.relu(pre)

    def fc_recurrent_step(self, h1: Tensor, h2_prev: Optional[Tensor]) -> Tensor:
        b = h1.shape[0]
        flat = T.reshape(h1, (b, h1.size // b))
        pre = nn.linear(flat, self.w2_i)
        if h2_prev is not None:
            pre = T.add(pre, nn.linear(h2_prev, self.w2_r))
        return T.relu(pre)

    def localize(self, h2: Tensor) -> Tensor:
        raw = nn.linear(T.relu(nn.linear(h2, self.loc1)), self.loc2)
        return at.constrain_attention(raw)

    def init_state(self, images: Tensor, mode: str = "infer"):
        """Whole-image observation: run the context encoder through both
        recurrences with zero previous state, then pick the first window."""
        z = self.context(images, mode)
        h1 = self.conv_recurrent_step(z, None)
        h2 = self.fc_recurrent_step(h1, None)
        return (h1, h2), self.localize(h2)

    def attend(self, images: Tensor, tau: Tensor) -> Tensor:
        size = self.preset.input_size
        return at.st(images, tau, size, size)

    def refine_step(self, r_prev: Tensor, h1: Tensor, tau: Tensor, mode: str = "infer"):
        """Decode the current state into a patch, write it back through the
        inverse transformer and add it to the map. Returns the new raw map.
        The write stays local with no mask: the sampler reads an exact +0.0
        outside the window, so the map keeps its bytes there, but for a
        -0.0, which becomes +0.0."""
        m = self.preset.map_size
        return T.add(r_prev, at.st_inverse(self.decoder(h1, mode), tau, m, m))

    def run_refinement(self, images: Tensor, r0: Tensor, n: int = DEFAULT_ITERATIONS,
                       mode: str = "infer"):
        """Full rollout: iteration 0 observes the whole image; each later
        iteration attends, encodes, updates the first recurrent state, and
        accumulates a refinement delta, then (but for the last) updates the
        second state and picks the next window. Returns the final sigmoid
        map and the per-iteration trace.

        The head of each glimpse, the window sampled from the image through
        the first :data:`HEAD_LAYERS` encoder convolutions (all of them in
        a shallower encoder), runs under ``T.checkpoint``, which keeps only
        the image and the window. So the tape holds none of a glimpse's
        three largest activations: the glimpse, which the first convolution
        would keep, and the x-hats of the first two layers' outputs, which
        the second and third would keep. A rerun costs the sampler, two
        convolutions and one batchnorm reduction, since it records the last
        convolution's node without computing its output, which nothing
        reads; the deeper layers keep little and would cost more to rerun,
        so they record as usual. The head reads the window once and the
        image is untracked, so the gradients and running statistics are
        the plain tape's byte for byte."""
        nn._require_int(n, 1, "refinement iterations n")
        x = _check_images(images, self.preset)
        b = x.shape[0]
        m = self.preset.map_size
        _check_tensor(r0, "r0")
        if r0.shape != (b, 1, m, m):
            raise ShapeError(f"running map must be [B,1,{m},{m}], got {r0.shape}")

        r = r0
        trace = RefinementTrace()
        (h1, h2), tau = self.init_state(x, mode)
        trace.windows.append(np.tile([1.0, 0.0, 0.0], (b, 1)))
        trace.maps.append(r.data.copy())     # the caller's array, which it may change

        head = self.encoder.layers[:HEAD_LAYERS]
        head_params = [t for layer in head for _, t in layer.tensors() if t.requires_grad]

        def glimpse(images, tau):
            return self.encoder.convs(self.attend(images, tau), mode, 0, len(head))

        for i in range(1, n):
            z = self.encoder(T.checkpoint(glimpse, [x, tau], head_params), mode, len(head))
            h1 = self.conv_recurrent_step(z, h1)
            r = self.refine_step(r, h1, tau, mode)
            trace.windows.append(tau.data)
            trace.maps.append(r.data)
            if i < n - 1:
                # after the last refine step, nothing reads the next state or window
                h2 = self.fc_recurrent_step(h1, h2)
                tau = self.localize(h2)

        trace.raw_final = r
        return T.sigmoid(r), trace

    # -- parameter plumbing ----------------------------------------------

    def load_decoder_from(self, other: InitialNet):
        """Adopt the trained initial decoder's weights (copied, not shared)."""
        mine = dict(self.decoder.tensors())
        theirs = dict(other.decoder.tensors())
        if mine.keys() != theirs.keys():
            raise ShapeError("decoder architectures differ; cannot transfer weights")
        for key, t in mine.items():
            if t.shape != theirs[key].shape:
                raise ShapeError(f"decoder tensor {key} shape mismatch")
            t.data = theirs[key].data.copy()

    def tensors(self):
        """Every tensor by name, batchnorm running statistics included."""
        for key, t in self.context.tensors():
            yield f"ctx.{key}", t
        for key, t in self.encoder.tensors():
            yield f"enc.{key}", t
        for key, t in self.decoder.tensors():
            yield f"dec.{key}", t
        yield "rec1.wi", self.w1_i.weights
        yield "rec1.b", self.w1_i.bias
        yield "rec1.wr", self.w1_r.weights
        yield "rec2.wi", self.w2_i.weights
        yield "rec2.b", self.w2_i.bias
        yield "rec2.wr", self.w2_r.weights
        yield "loc.w1", self.loc1.weights
        yield "loc.b1", self.loc1.bias
        yield "loc.w2", self.loc2.weights
        yield "loc.b2", self.loc2.bias

    def parameters(self) -> dict[str, Tensor]:
        """The tensors that take a gradient."""
        return {key: t for key, t in self.tensors() if t.requires_grad}


def refinement_loss(r_final: Tensor, target) -> Tensor:
    """Binary cross-entropy of the final map against a binary groundtruth,
    computed in logit space for stability."""
    return nn.bce_with_logits(r_final, target)

