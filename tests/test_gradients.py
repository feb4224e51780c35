"""Reverse-mode gradients match central finite differences (<= 1e-4) for every
differentiable op and composite block, each on three distinct input shapes,
at verification precision."""

import numpy as np
import pytest

from fednet import ops
from fednet.blocks import (DUC, RCB, DecoderBlock, Encoder, FeatureFusion, FedNet,
                           NetworkSpec, SEBlock)
from fednet.losses import LossWeights, combined_loss, combined_loss_with_logits
from fednet.tensor import Tensor, grad_check

F64 = np.float64
TOL = 1e-4


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def run(f, x, samplewise=False):
    report = grad_check(f, x, tol=TOL, samplewise=samplewise)
    assert report.passed, f"max_rel_err={report.max_rel_err:.3e} at {report.worst_coord}"


@pytest.mark.parametrize("shape", [(1, 2, 5, 5), (2, 3, 4, 6), (1, 1, 7, 3)])
def test_conv2d(shape):
    rng = rng_for(1, *shape)
    w = Tensor(rng.uniform(-1, 1, (3, shape[1], 3, 3)))
    b = Tensor(rng.uniform(-1, 1, 3))
    run(lambda v: ops.conv2d(v, w, b, 1, 1), leaf(rng, shape))


@pytest.mark.parametrize("shape,stride", [((2, 2, 3, 3), 2), ((1, 3, 4, 5), 1), ((1, 1, 2, 6), 3)])
def test_conv_transpose2d(shape, stride):
    rng = rng_for(2, *shape)
    w = Tensor(rng.uniform(-1, 1, (shape[1], 2, 3, 3)))
    b = Tensor(rng.uniform(-1, 1, 2))
    run(lambda v: ops.conv_transpose2d(v, w, b, stride, 1), leaf(rng, shape))


@pytest.mark.parametrize("shape", [(2, 3), (1, 6), (4, 2)])
def test_dense(shape):
    rng = rng_for(3, *shape)
    w = Tensor(rng.uniform(-1, 1, (4, shape[1])))
    b = Tensor(rng.uniform(-1, 1, 4))
    run(lambda v: ops.dense(v, w, b), leaf(rng, shape))


@pytest.mark.parametrize("shape", [(6,), (2, 5), (3, 2, 4)])
def test_relu(shape):
    rng = rng_for(4, *shape)
    mag = rng.uniform(0.1, 1.0, shape)
    x = Tensor(mag * rng.choice([-1.0, 1.0], size=shape), requires_grad=True)
    run(lambda v: ops.relu(v), x)


@pytest.mark.parametrize("shape", [(5,), (2, 3), (1, 2, 4)])
def test_sigmoid(shape):
    rng = rng_for(5, *shape)
    run(lambda v: ops.sigmoid(v), leaf(rng, shape, -4.0, 4.0))


@pytest.mark.parametrize("shape", [(1, 2, 3, 3), (2, 4, 2, 5), (3, 1, 6, 2)])
def test_global_avg_pool(shape):
    rng = rng_for(6, *shape)
    run(lambda v: ops.global_avg_pool(v), leaf(rng, shape))


@pytest.mark.parametrize("shape,factor", [((1, 2, 3, 3), 2), ((2, 1, 2, 4), 3), ((1, 3, 5, 2), 1)])
def test_upsample_nearest(shape, factor):
    rng = rng_for(7, *shape)
    run(lambda v: ops.upsample_nearest(v, factor), leaf(rng, shape))


@pytest.mark.parametrize("shape,r", [((1, 4, 3, 3), 2), ((2, 9, 2, 2), 3), ((1, 8, 2, 3), 2)])
def test_pixel_shuffle(shape, r):
    rng = rng_for(8, *shape)
    run(lambda v: ops.pixel_shuffle(v, r), leaf(rng, shape))


@pytest.mark.parametrize("shape,r", [((1, 1, 4, 4), 2), ((2, 2, 6, 3), 3), ((1, 3, 2, 2), 2)])
def test_pixel_unshuffle(shape, r):
    rng = rng_for(9, *shape)
    run(lambda v: ops.pixel_unshuffle(v, r), leaf(rng, shape))


@pytest.mark.parametrize("shape", [(1, 2, 3, 3), (2, 3, 2, 4), (1, 4, 5, 1)])
def test_channel_scale_both_inputs(shape):
    rng = rng_for(10, *shape)
    gate = Tensor(rng.uniform(0.2, 0.9, shape[:2]))
    run(lambda v: ops.channel_scale(v, gate), leaf(rng, shape))
    x = Tensor(rng.uniform(-1, 1, shape))
    run(lambda v: ops.channel_scale(x, v), leaf(rng, shape[:2], 0.2, 0.9))


@pytest.mark.parametrize("shape,red", [((1, 4, 3, 3), 2), ((2, 8, 2, 2), 4), ((1, 6, 4, 1), 3)])
def test_se_block(shape, red):
    rng = rng_for(11, *shape)
    block = SEBlock(shape[1], red, rng).astype(F64)
    run(lambda v: block(v), leaf(rng, shape))


@pytest.mark.parametrize("shape", [(1, 3, 4, 4), (2, 2, 3, 5), (1, 5, 2, 2)])
def test_rcb(shape):
    rng = rng_for(12, *shape)
    block = RCB(shape[1], rng).astype(F64)
    run(lambda v: block(v), leaf(rng, shape, 0.05, 1.0))


@pytest.mark.parametrize("channels,hw", [((4, 8), (4, 6)), ((2, 4), (6, 4)), ((6, 12), (2, 2))])
def test_feature_fuse(channels, hw):
    rng = rng_for(13, *channels, *hw)
    block = FeatureFusion(channels, 2, True, rng).astype(F64)
    hi = Tensor(rng.uniform(-1, 1, (1, channels[1], hw[0] // 2, hw[1] // 2)))

    def f(v):
        fused = block([v, hi])
        return fused[0].mean() + fused[1].mean() * 0.7

    run(f, leaf(rng, (1, channels[0], *hw)))


@pytest.mark.parametrize("shape,r", [((1, 4, 3, 3), 2), ((2, 2, 2, 4), 3), ((1, 3, 4, 2), 1)])
def test_duc_block(shape, r):
    rng = rng_for(14, *shape)
    block = DUC(shape[1], 2, r, rng).astype(F64)
    run(lambda v: block(v), leaf(rng, shape))


@pytest.mark.parametrize("shape", [(1, 4, 3, 3), (2, 8, 2, 2), (1, 12, 2, 3)])
def test_decoder_block(shape):
    rng = rng_for(15, *shape)
    block = DecoderBlock(shape[1], 3, rng).astype(F64)
    run(lambda v: block(v), leaf(rng, shape))


@pytest.mark.parametrize("hw", [(32, 32), (64, 32), (32, 64)])
def test_encoder(hw):
    rng = rng_for(16, *hw)
    enc = Encoder(3, (4, 8, 16, 32), True, rng).astype(F64)
    coeffs = (1.0, 0.7, 1.3, 0.9)

    def f(v):
        # per-sample means, so the stacked copies of grad_check stay apart
        acc = None
        for level, c in zip(enc(v), coeffs):
            term = level.sum(axis=(1, 2, 3)) * (c / (level.size // level.shape[0]))
            acc = term if acc is None else acc + term
        return acc

    run(f, leaf(rng, (1, 3, *hw)), samplewise=True)


@pytest.mark.parametrize("hw", [(32, 32), (64, 32), (32, 64)])
def test_fednet_forward(hw):
    rng = rng_for(17, *hw)
    net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng).astype(F64)
    run(lambda v: ops.sigmoid(net(v)), leaf(rng, (1, 3, *hw)), samplewise=True)


LOSS_SHAPES = [(1, 1, 4, 4), (2, 1, 3, 5), (3, 1, 2, 2)]
# the Jaccard term is pooled over the batch, the only form the loss has
LOSS_IDS = [f"pooled-shape{i}" for i in range(len(LOSS_SHAPES))]


@pytest.mark.parametrize("shape", LOSS_SHAPES, ids=LOSS_IDS)
def test_combined_loss(shape):
    rng = rng_for(18, *shape)
    y = Tensor(rng.integers(0, 2, shape).astype(F64))
    run(lambda v: combined_loss(y, v, LossWeights()), leaf(rng, shape, 0.05, 0.95))


@pytest.mark.parametrize("shape", LOSS_SHAPES, ids=LOSS_IDS)
def test_combined_loss_with_logits(shape):
    rng = rng_for(19, *shape)
    y = Tensor(rng.integers(0, 2, shape).astype(F64))
    run(lambda v: combined_loss_with_logits(y, v, LossWeights()),
        leaf(rng, shape, -4.0, 4.0))
