"""Segmentation network blocks: residual encoder, channel-attention gating,
attention feature fusion across pyramid levels, dense upsampling convolution,
and the full encoder-decoder network.

All blocks are assembled from the ops in :mod:`fednet.ops`; there is no batch
normalization anywhere.  Parameters are named by their position in the block
tree, so checkpoints of one flag configuration only ever load into a network
built with the same flags.

Every block builds float32 parameters.  :meth:`Block.astype` converts a built
block (for example to float64 for gradient checks) and is the one place
parameter precision is chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import ops
from .ops import relu, sigmoid
from .tensor import Parameter, Tensor


@dataclass(frozen=True)
class NetworkSpec:
    """Hyperparameters of one network; the four enable flags are the ablation
    axes.  Checked when built, and frozen."""

    base_channels: int = 16
    se_reduction: int = 16
    enable_rcb: bool = True
    enable_ff: bool = True
    enable_se: bool = True
    enable_duc: bool = True

    @property
    def channels_per_level(self) -> tuple[int, int, int, int]:
        """Channel counts of levels 1..4: doubling from ``base_channels``."""
        b = self.base_channels
        return (b, 2 * b, 4 * b, 8 * b)

    def __post_init__(self):
        if self.base_channels < 4:
            raise ValueError(
                f"base_channels must be >= 4 for the decoder, got {self.base_channels}")
        if self.se_reduction < 1:
            raise ValueError(f"se_reduction must be >= 1, got {self.se_reduction}")
        if self.enable_ff and self.enable_se:
            for c in self.channels_per_level:
                if c % self.se_reduction != 0:
                    raise ValueError(
                        f"se_reduction {self.se_reduction} must divide every fused channel "
                        f"count, but {c} is not divisible")

    def baseline(self) -> "NetworkSpec":
        """The plain encoder-decoder variant: all three ablation axes off."""
        return replace(self, enable_rcb=False, enable_ff=False, enable_se=False,
                       enable_duc=False)


def glorot_uniform(rng: Optional[np.random.Generator], shape: tuple, fan_in: int,
                   fan_out: int) -> np.ndarray:
    """Glorot-uniform draw from ``rng``; zeros when ``rng`` is None, for a
    network whose values are loaded next."""
    if rng is None:
        return np.zeros(shape, dtype=np.float32)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Block:
    """Base class: an ordered registry of parameters and child blocks."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self._children: dict[str, Block] = {}

    def _param(self, name: str, array: np.ndarray) -> Parameter:
        """Register a fresh ``array`` as a parameter; it is kept, not
        copied, when it is already float32."""
        p = Parameter(np.asarray(array, dtype=np.float32), name=name)
        self._params[name] = p
        return p

    def _child(self, name: str, block: "Block") -> "Block":
        self._children[name] = block
        return block

    def named_parameters(self, prefix: str = "") -> dict[str, Parameter]:
        out: dict[str, Parameter] = {}
        for name, p in self._params.items():
            out[prefix + name] = p
        for name, child in self._children.items():
            out.update(child.named_parameters(prefix + name + "."))
        return out

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())

    def astype(self, dtype) -> "Block":
        """Convert each parameter's data to ``dtype``, in the same objects; returns ``self``."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self


class Conv2d(Block):
    def __init__(self, cin: int, cout: int, k: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0):
        super().__init__()
        self.stride, self.pad = stride, pad
        w = glorot_uniform(rng, (cout, cin, k, k), cin * k * k, cout * k * k)
        self.w = self._param("w", w)
        self.b = self._param("b", np.zeros(cout, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.w, self.b, self.stride, self.pad)


def _conv_then(conv: Conv2d, then: Optional[Conv2d], phases: int
               ) -> tuple[Tensor, Tensor]:
    """Weight and bias of ``conv``, with the 1x1 stride-1 conv ``then``
    folded in (:func:`ops.fold_1x1`) when one is given."""
    if then is None:
        return conv.w, conv.b
    if then.stride != 1 or then.pad != 0:
        raise ValueError(
            f"only an unpadded stride-1 1x1 conv folds into the conv before it, "
            f"got stride {then.stride}, pad {then.pad}")
    return ops.fold_1x1(conv.w, conv.b, then.w, then.b, phases)


class ConvTranspose2d(Block):
    def __init__(self, cin: int, cout: int, k: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0):
        super().__init__()
        self.stride, self.pad = stride, pad
        w = glorot_uniform(rng, (cin, cout, k, k), cin * k * k, cout * k * k)
        self.w = self._param("w", w)
        self.b = self._param("b", np.zeros(cout, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv_transpose2d(x, self.w, self.b, self.stride, self.pad)


class Dense(Block):
    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        super().__init__()
        self.w = self._param("w", glorot_uniform(rng, (cout, cin), cin, cout))
        self.b = self._param("b", np.zeros(cout, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.dense(x, self.w, self.b)


class SEBlock(Block):
    """Channel attention: squeeze (global average pool), excite (two dense
    layers), then a sigmoid gate rescaling every channel map."""

    def __init__(self, channels: int, reduction: int, rng: np.random.Generator):
        super().__init__()
        if channels % reduction != 0:
            raise ValueError(
                f"SE block channels {channels} not divisible by reduction {reduction}")
        hidden = channels // reduction
        self.fc1 = self._child("fc1", Dense(channels, hidden, rng))
        self.fc2 = self._child("fc2", Dense(hidden, channels, rng))

    def __call__(self, x: Tensor) -> Tensor:
        gate = sigmoid(self.fc2(relu(self.fc1(ops.global_avg_pool(x)))))
        return ops.channel_scale(x, gate)


class RCB(Block):
    """Residual convolution block without normalization:
    y = relu(x + conv3x3(relu(conv3x3(x))))."""

    def __init__(self, channels: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = self._child("conv1", Conv2d(channels, channels, 3, rng, pad=1))
        self.conv2 = self._child("conv2", Conv2d(channels, channels, 3, rng, pad=1))

    def __call__(self, x: Tensor) -> Tensor:
        return relu(x + self.conv2(relu(self.conv1(x))))


class _FuseTerm(Block):
    """One fused contribution: 1x1 projection to the target level's channel
    count, then (optionally) SE gating."""

    def __init__(self, cin: int, cout: int, se_reduction: int, enable_se: bool,
                 rng: np.random.Generator):
        super().__init__()
        self.proj = self._child("proj", Conv2d(cin, cout, 1, rng))
        self.se = self._child("se", SEBlock(cout, se_reduction, rng)) if enable_se else None

    def __call__(self, t: Tensor) -> Tensor:
        t = self.proj(t)
        return self.se(t) if self.se is not None else t


class FeatureFusion(Block):
    """Per-level fusion of the current level with all levels above it:

        H_l = T(x_l) + sum over i > l of T(upsample(x_i, 2**(i-l)))

    where each term T is a learned 1x1 projection to the level-l channel
    count followed by SE gating (identity when SE is disabled).  Terms are
    accumulated in ascending source-level order.

    Both parts of T commute with nearest upsampling (a 1x1 conv acts per
    pixel; the SE gate sees only the spatial mean, which replication leaves
    unchanged), so each term is computed as upsample(T(x_i), 2**(i-l)): at
    the source resolution, upsampling the level-l channel count instead of
    the source's.
    """

    def __init__(self, channels: Sequence[int], se_reduction: int, enable_se: bool,
                 rng: np.random.Generator):
        super().__init__()
        self.channels = tuple(channels)
        n = len(self.channels)
        self.terms: dict[tuple[int, int], _FuseTerm] = {}
        for l in range(n):
            for i in range(l, n):
                term = _FuseTerm(self.channels[i], self.channels[l], se_reduction,
                                 enable_se, rng)
                self.terms[(l, i)] = term
                self._child(f"l{l + 1}.from{i + 1}", term)

    def __call__(self, levels: Sequence[Tensor]) -> list[Tensor]:
        # The ops check the shapes: each projection conv rejects a wrong
        # channel count, and level 0's sum, of every level upsampled to its
        # size, a batch or spatial extent off the halving pyramid.
        if len(levels) != len(self.channels):
            raise ValueError(
                f"feature fusion built for {len(self.channels)} levels, got {len(levels)}")
        fused = []
        for l in range(len(levels)):
            acc = None
            for i in range(l, len(levels)):
                t = self.terms[(l, i)](levels[i])
                if i > l:
                    t = ops.upsample_nearest(t, 2 ** (i - l))
                acc = t if acc is None else acc + t
            fused.append(acc)
        return fused


class DUC(Block):
    """Dense upsampling convolution: a 3x3 conv expanding channels by r*r,
    then pixel shuffling to trade those channels for an r-fold resolution
    gain.

    ``then``, a 1x1 stride-1 conv applied to the output, is folded into the
    3x3 conv (:func:`ops.fold_1x1`): the conv computes r*r times then's output
    channels, not r*r times its own, and the one shuffle yields then's
    output directly.
    """

    def __init__(self, cin: int, cout: int, r: int, rng: np.random.Generator):
        super().__init__()
        self.r = r
        self.conv = self._child("conv", Conv2d(cin, cout * r * r, 3, rng, pad=1))

    def __call__(self, x: Tensor, then: Optional[Conv2d] = None) -> Tensor:
        w, b = _conv_then(self.conv, then, self.r * self.r)
        return ops.pixel_shuffle(ops.conv2d(x, w, b, 1, 1), self.r)


class UpsampleConv(Block):
    """Replacement for DUC when it is disabled: a 3x3 pad-1 conv of the
    r-fold nearest upsample of x, conv3x3(upsample_nearest(x, r), w, b).

    ``then``, a 1x1 stride-1 conv applied to the output, is folded into the
    3x3 conv first (:func:`ops.fold_1x1` with one phase), so only then's output
    channels are computed.  Write (w, b) for that folded pair, or for the
    conv's own when there is no ``then``.

    Where the output has fewer channels than x has pixels per sample it is
    computed in the sub-pixel form (Shi et al., arXiv 1609.05158), without
    convolving replicated pixels:

        pixel_shuffle(conv3x3(x, subpixel_fold(w, r), subpixel_tile(b, r)), r)

    Both forms read and multiply the same number of values per output pixel;
    the sub-pixel form builds an r*r smaller patch matrix and reads an r*r
    larger kernel, so by that count it moves less data when Cout < H*W, the
    test used here.  Timed at batch 8, float32, one BLAS thread, on 64-px
    slices: upconv4 on its 2x2 map, where the test picks the direct form,
    takes 1.26 ms forward and 2.16 ms backward, against 1.73 and 3.28 ms in
    the sub-pixel form; the folded 1-channel head on 16x16, where it picks
    the sub-pixel form, 0.61 and 1.56 ms, against 10.3 and 48.9 ms direct.
    Between H*W = Cout/4 and Cout the sub-pixel form already ties or wins,
    so the test errs toward the direct form there.
    The test looks at one sample's shape only, so a sample's output does not
    depend on its batch-mates.  The parameters are ``conv.w`` [Cout, Cin, 3,
    3] and ``conv.b`` in both forms.
    """

    def __init__(self, cin: int, cout: int, r: int, rng: np.random.Generator):
        super().__init__()
        self.r = r
        self.conv = self._child("conv", Conv2d(cin, cout, 3, rng, pad=1))

    def __call__(self, x: Tensor, then: Optional[Conv2d] = None) -> Tensor:
        w, b = _conv_then(self.conv, then, 1)
        r = self.r
        if x.ndim == 4 and w.shape[0] < x.shape[2] * x.shape[3]:
            y = ops.conv2d(x, ops.subpixel_fold(w, r), ops.subpixel_tile(b, r), 1, 1)
            return ops.pixel_shuffle(y, r)
        return ops.conv2d(ops.upsample_nearest(x, r), w, b, 1, 1)


class DecoderBlock(Block):
    """Bottlenecked doubling stage: 1x1 reduce to C/4, transposed conv
    (stride 2, kernel 2), then 1x1 restore to the requested channel count."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        super().__init__()
        if cin < 4:
            raise ValueError(f"decoder block needs >= 4 input channels, got {cin}")
        mid = cin // 4
        self.reduce = self._child("reduce", Conv2d(cin, mid, 1, rng))
        self.up = self._child("up", ConvTranspose2d(mid, mid, 2, rng, stride=2))
        self.restore = self._child("restore", Conv2d(mid, cout, 1, rng))

    def __call__(self, x: Tensor) -> Tensor:
        return self.restore(relu(self.up(relu(self.reduce(x)))))


class _ResStage(Block):
    """Stride-2 residual stage: 3x3/s2 -> relu -> 3x3, plus a 1x1/s2 shortcut."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        super().__init__()
        self.main1 = self._child("main1", Conv2d(cin, cout, 3, rng, stride=2, pad=1))
        self.main2 = self._child("main2", Conv2d(cout, cout, 3, rng, pad=1))
        self.short = self._child("short", Conv2d(cin, cout, 1, rng, stride=2))

    def __call__(self, x: Tensor) -> Tensor:
        return relu(self.main2(relu(self.main1(x))) + self.short(x))


ENCODER_STRIDE = 32  # the encoder's total stride: a stride-4 stem, then three stride-2 stages


def check_slice_size(shape, source) -> None:
    """A ValueError naming ``source`` unless a (..., height, width) ``shape`` fits the encoder."""
    if shape[-2] % ENCODER_STRIDE or shape[-1] % ENCODER_STRIDE:
        raise ValueError(f"{source}: slice height and width must be multiples of "
                         f"{ENCODER_STRIDE} to fit the network, got {shape[-2]}x{shape[-1]}")


class Encoder(Block):
    """Four-resolution residual encoder: a stride-4 stem then three stride-2
    residual stages, optionally refined by an RCB after every block."""

    def __init__(self, in_channels: int, channels: Sequence[int], enable_rcb: bool,
                 rng: np.random.Generator):
        super().__init__()
        c1, c2, c3, c4 = channels
        self.stem_a = self._child("stem_a", Conv2d(in_channels, c1, 3, rng, stride=2, pad=1))
        self.stem_b = self._child("stem_b", Conv2d(c1, c1, 3, rng, stride=2, pad=1))
        self.stage2 = self._child("stage2", _ResStage(c1, c2, rng))
        self.stage3 = self._child("stage3", _ResStage(c2, c3, rng))
        self.stage4 = self._child("stage4", _ResStage(c3, c4, rng))
        self.rcbs = None
        if enable_rcb:
            self.rcbs = [self._child(f"rcb{i + 1}", RCB(c, rng))
                         for i, c in enumerate((c1, c2, c3, c4))]

    def __call__(self, x: Tensor) -> list[Tensor]:
        """Levels x_1..x_4 at strides 4, 8, 16, 32 relative to the input."""
        if x.ndim != 4:
            raise ValueError(f"encoder input must be 4-d [N,C,H,W], got {tuple(x.shape)}")
        check_slice_size(x.shape, "encoder input")
        x1 = relu(self.stem_b(relu(self.stem_a(x))))
        levels = [x1]
        for stage in (self.stage2, self.stage3, self.stage4):
            levels.append(stage(levels[-1]))
        if self.rcbs is not None:
            levels = [rcb(t) for rcb, t in zip(self.rcbs, levels)]
        return levels


class FedNet(Block):
    """Feature-fusion encoder-decoder segmentation network.

    Encoder pyramid -> (optional) attention feature fusion -> decoder: the
    deepest level is upsampled stride 32 -> 16 (DUC or upsample+conv), then
    three stages each add a channel-matched skip and the first two double the
    resolution, reaching stride 4; the head upsamples by 4 to full resolution
    and a 1x1 conv (``head_out``) yields one logit channel.  Nothing lies
    between the head's upsampling conv and ``head_out``, so the head block
    runs the two as one conv (``then=``, :func:`ops.fold_1x1`): a 3x3 conv
    with 16 output channels, one per output phase, then one pixel shuffle to
    [N, 1, H, W].  Training and inference both take this path; the
    parameters keep their names and shapes.

    Calling the network returns those pre-sigmoid logits: training feeds
    them to the loss, and :func:`fednet.harness.predict_volume` takes their
    sigmoid, the probabilities inference thresholds.

    With every enable flag off this is the plain baseline encoder-decoder
    with raw skip connections.  Built with ``rng=None``, every weight starts
    at zero instead of a Glorot draw, for a network whose values are loaded
    from a checkpoint next.
    """

    def __init__(self, spec: NetworkSpec, rng: Optional[np.random.Generator] = None):
        super().__init__()
        channels = spec.channels_per_level
        c1, c2, c3, c4 = channels
        # three input channels: slices z-1, z, z+1 (pipeline.stack_adjacent_slices)
        self.encoder = self._child("encoder", Encoder(3, channels, spec.enable_rcb, rng))
        self.fuse = None
        if spec.enable_ff:
            self.fuse = self._child("fuse", FeatureFusion(channels, spec.se_reduction,
                                                          spec.enable_se, rng))
        head_ch = c1 // 2
        # the head upsamples by 4, undoing the stem's stride
        if spec.enable_duc:
            self.up4 = self._child("duc4", DUC(c4, c3, 2, rng))
            self.head_up = self._child("head_duc", DUC(c1, head_ch, 4, rng))
        else:
            self.up4 = self._child("upconv4", UpsampleConv(c4, c3, 2, rng))
            self.head_up = self._child("head_upconv", UpsampleConv(c1, head_ch, 4, rng))
        self.skip3 = self._child("skip3", Conv2d(c3, c3, 1, rng))
        self.skip2 = self._child("skip2", Conv2d(c2, c2, 1, rng))
        self.skip1 = self._child("skip1", Conv2d(c1, c1, 1, rng))
        self.dec3 = self._child("dec3", DecoderBlock(c3, c2, rng))
        self.dec2 = self._child("dec2", DecoderBlock(c2, c1, rng))
        self.head_out = self._child("head_out", Conv2d(head_ch, 1, 1, rng))
        # start biased toward background: initial probabilities ~0.12 keep the
        # overlap-loss gradients bounded when foreground is rare
        self.head_out.b.data[...] = -2.0
        for name, p in self.named_parameters().items():
            p.name = name

    def __call__(self, x: Tensor) -> Tensor:
        """Logits [N, 1, H, W]: the head's 1x1 conv, folded into the head's
        upsampling conv."""
        levels = self.encoder(x)
        skips = self.fuse(levels) if self.fuse is not None else levels
        d = self.up4(skips[3])
        d = d + self.skip3(skips[2])
        d = self.dec3(d)
        d = d + self.skip2(skips[1])
        d = self.dec2(d)
        d = d + self.skip1(skips[0])
        return self.head_up(d, then=self.head_out)
