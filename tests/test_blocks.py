"""Network block semantics: SE gating, residual refinement, attention feature
fusion, dense upsampling, decoder stages, the encoder pyramid, and the full
network's shape and ablation contracts."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fednet import ops
from fednet.blocks import (DUC, RCB, Conv2d, DecoderBlock, Encoder, FeatureFusion, FedNet,
                           NetworkSpec, SEBlock, UpsampleConv)
from fednet.losses import combined_loss_with_logits
from fednet.tensor import Parameter, Tape, Tensor, backward

from oracles import (baseline_fednet_logits_reference, conv2d_reference,
                     conv_transpose2d_reference, pixel_shuffle_reference,
                     upsample_nearest_reference)

F64 = np.float64


def rng_for(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=F64), **kw)


class TestSEBlock:
    def test_zero_input_gives_zero_output(self):
        block = SEBlock(4, 2, rng_for(1)).astype(F64)
        out = block(t(np.zeros((2, 4, 3, 3))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identical_channels_and_rows_give_equal_gates(self):
        block = SEBlock(4, 2, rng_for(2)).astype(F64)
        # make both dense layers row-symmetric so all channels see the same gate
        block.fc1.w.data[...] = 0.3
        block.fc1.b.data[...] = 0.1
        block.fc2.w.data[...] = -0.2
        block.fc2.b.data[...] = 0.05
        x = np.tile(rng_for(3).uniform(-1, 1, (1, 1, 4, 4)), (1, 4, 1, 1))
        out = block(t(x)).data
        gates = out / x
        assert np.allclose(gates, gates[0, 0, 0, 0])

    def test_scalar_hand_evaluation(self):
        # C=2, H=W=1: pool -> fc1 -> relu -> fc2 -> sigmoid -> scale, by hand
        block = SEBlock(2, 2, rng_for(4)).astype(F64)
        block.fc1.w.data[...] = [[0.5, -0.25]]
        block.fc1.b.data[...] = [0.1]
        block.fc2.w.data[...] = [[2.0], [-1.0]]
        block.fc2.b.data[...] = [0.2, -0.3]
        x1, x2 = 0.8, -0.4
        hidden = max(0.0, 0.5 * x1 - 0.25 * x2 + 0.1)
        g1 = 1.0 / (1.0 + np.exp(-(2.0 * hidden + 0.2)))
        g2 = 1.0 / (1.0 + np.exp(-(-1.0 * hidden - 0.3)))
        out = block(t([[[[x1]], [[x2]]]])).data
        assert out[0, 0, 0, 0] == pytest.approx(g1 * x1, abs=1e-12)
        assert out[0, 1, 0, 0] == pytest.approx(g2 * x2, abs=1e-12)

    def test_gates_strictly_inside_unit_interval(self):
        block = SEBlock(4, 2, rng_for(5)).astype(F64)
        x = t(rng_for(6).uniform(-2, 2, (2, 4, 3, 3)))
        gate = ops.sigmoid(block.fc2(ops.relu(block.fc1(ops.global_avg_pool(x)))))
        assert np.all(gate.data > 0) and np.all(gate.data < 1)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            SEBlock(6, 4, rng_for(7))


class TestRCB:
    def test_zero_convs_reduce_to_relu(self):
        block = RCB(3, rng_for(8)).astype(F64)
        for p in block.parameters():
            p.data[...] = 0.0
        x = rng_for(9).uniform(-1, 1, (1, 3, 4, 4))
        out = block(t(x))
        np.testing.assert_array_equal(out.data, np.maximum(x, 0.0))

    def test_zero_input_zero_bias_gives_zero(self):
        block = RCB(2, rng_for(10)).astype(F64)
        out = block(t(np.zeros((1, 2, 3, 3))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matches_composed_loop_oracles(self):
        block = RCB(2, rng_for(11)).astype(F64)
        x = rng_for(12).uniform(-1, 1, (1, 2, 4, 4))
        w1, b1 = block.conv1.w.data, block.conv1.b.data
        w2, b2 = block.conv2.w.data, block.conv2.b.data
        inner = np.maximum(conv2d_reference(x, w1, b1, 1, 1), 0.0)
        expected = np.maximum(x + conv2d_reference(inner, w2, b2, 1, 1), 0.0)
        np.testing.assert_allclose(block(t(x)).data, expected, atol=1e-12, rtol=0)

    def test_shape_preserved(self):
        block = RCB(5, rng_for(13)).astype(F64)
        assert block(t(np.zeros((2, 5, 6, 7)))).shape == (2, 5, 6, 7)


class TestFeatureFusion:
    def test_single_level_is_projection_only(self):
        fuse = FeatureFusion((3,), 1, False, rng_for(14)).astype(F64)
        proj = fuse.terms[(0, 0)].proj
        proj.w.data[...] = np.eye(3).reshape(3, 3, 1, 1)
        proj.b.data[...] = 0.0
        x = rng_for(15).uniform(-1, 1, (2, 3, 4, 4))
        fused = fuse([t(x)])
        np.testing.assert_allclose(fused[0].data, x, atol=1e-15, rtol=0)

    def _identity_fusion(self, channels, rng):
        fuse = FeatureFusion(channels, 1, False, rng).astype(F64)
        for term in fuse.terms.values():
            c_out, c_in = term.proj.w.shape[:2]
            assert c_out == c_in
            term.proj.w.data[...] = np.eye(c_out).reshape(c_out, c_in, 1, 1)
            term.proj.b.data[...] = 0.0
        return fuse

    def test_constant_two_level_reduction(self):
        fuse = self._identity_fusion((2, 2), rng_for(16))
        x1 = t(np.full((1, 2, 8, 8), 1.0))
        x2 = t(np.full((1, 2, 4, 4), 2.0))
        fused = fuse([x1, x2])
        np.testing.assert_array_equal(fused[0].data, np.full((1, 2, 8, 8), 3.0))
        np.testing.assert_array_equal(fused[1].data, np.full((1, 2, 4, 4), 2.0))

    def test_random_reduction_matches_exact_sum(self):
        rng = rng_for(17)
        fuse = self._identity_fusion((3, 3, 3), rng)
        levels = [rng.uniform(-1, 1, (2, 3, 8, 8)), rng.uniform(-1, 1, (2, 3, 4, 4)),
                  rng.uniform(-1, 1, (2, 3, 2, 2))]
        fused = fuse([t(v) for v in levels])
        up = lambda v, f: np.kron(v, np.ones((1, 1, f, f)))
        np.testing.assert_allclose(
            fused[0].data, levels[0] + up(levels[1], 2) + up(levels[2], 4),
            atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            fused[1].data, levels[1] + up(levels[2], 2), atol=1e-12, rtol=0)
        np.testing.assert_allclose(fused[2].data, levels[2], atol=1e-12, rtol=0)

    def test_matches_independent_expression_oracle(self):
        # straight-line re-evaluation with numpy in reversed term order
        rng = rng_for(18)
        fuse = FeatureFusion((2, 4), 2, True, rng).astype(F64)
        levels = [rng.uniform(-1, 1, (1, 2, 6, 6)), rng.uniform(-1, 1, (1, 4, 3, 3))]

        def np_se(term, v):
            pooled = v.mean(axis=(2, 3))
            h = np.maximum(pooled @ term.se.fc1.w.data.T + term.se.fc1.b.data, 0.0)
            gate = 1.0 / (1.0 + np.exp(-(h @ term.se.fc2.w.data.T
                                         + term.se.fc2.b.data)))
            return v * gate[:, :, None, None]

        def np_term(l, i, v):
            term = fuse.terms[(l, i)]
            v = conv2d_reference(v, term.proj.w.data, term.proj.b.data, 1, 0)
            return np_se(term, v)

        up = lambda v, f: np.kron(v, np.ones((1, 1, f, f)))
        expected0 = np_term(0, 1, up(levels[1], 2)) + np_term(0, 0, levels[0])
        expected1 = np_term(1, 1, levels[1])
        fused = fuse([t(v) for v in levels])
        np.testing.assert_allclose(fused[0].data, expected0, atol=1e-12, rtol=0)
        np.testing.assert_allclose(fused[1].data, expected1, atol=1e-12, rtol=0)

    def test_pyramid_inconsistency_rejected(self):
        fuse = FeatureFusion((2, 4), 2, False, rng_for(19)).astype(F64)
        good_hi = t(np.zeros((1, 4, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            fuse([t(np.zeros((1, 3, 6, 6))), good_hi])
        with pytest.raises(ValueError, match="shape mismatch at axis 2"):
            fuse([t(np.zeros((1, 2, 5, 6))), good_hi])
        with pytest.raises(ValueError, match="shape mismatch at axis 0"):
            fuse([t(np.zeros((2, 2, 6, 6))), good_hi])
        with pytest.raises(ValueError, match="levels"):
            fuse([good_hi])


class TestDUC:
    def test_r1_reduces_to_conv(self):
        block = DUC(3, 2, 1, rng_for(20)).astype(F64)
        x = rng_for(21).uniform(-1, 1, (1, 3, 4, 4))
        expected = conv2d_reference(x, block.conv.w.data, block.conv.b.data, 1, 1)
        np.testing.assert_allclose(block(t(x)).data, expected, atol=1e-12, rtol=0)

    def test_output_shape(self):
        block = DUC(4, 3, 2, rng_for(22)).astype(F64)
        assert block(t(np.zeros((2, 4, 5, 6)))).shape == (2, 3, 10, 12)

    def test_matches_conv_then_shuffle_oracles(self):
        block = DUC(2, 3, 2, rng_for(23)).astype(F64)
        x = rng_for(24).uniform(-1, 1, (1, 2, 3, 3))
        convd = conv2d_reference(x, block.conv.w.data, block.conv.b.data, 1, 1)
        expected = pixel_shuffle_reference(convd, 2)
        np.testing.assert_allclose(block(t(x)).data, expected, atol=1e-12, rtol=0)


class TestUpsampleConv:
    def _block(self, cin, cout, r, seed):
        block = UpsampleConv(cin, cout, r, rng_for(seed)).astype(F64)
        block.conv.b.data[...] = rng_for(seed, 1).uniform(-1, 1, cout)
        return block

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("hw", [(2, 3), (3, 5), (4, 4), (1, 2)])
    def test_matches_upsample_then_conv_oracle(self, r, hw):
        # (1, 2) has fewer pixels than output channels: the direct form
        block = self._block(3, 2, r, 50 + r)
        x = rng_for(51, r).uniform(-1, 1, (2, 3) + hw)
        expected = conv2d_reference(upsample_nearest_reference(x, r),
                                    block.conv.w.data, block.conv.b.data, 1, 1)
        np.testing.assert_allclose(block(t(x)).data, expected, atol=1e-12, rtol=0)

    def test_gradients_match_upsample_then_conv(self):
        block = self._block(3, 2, 4, 52)
        w, b = block.conv.w, block.conv.b
        g = rng_for(53).uniform(-1, 1, (2, 2, 12, 8))
        grads = []
        for direct in (False, True):
            x = t(rng_for(54).uniform(-1, 1, (2, 3, 3, 2)), requires_grad=True)
            w.grad = b.grad = None
            with Tape() as tape:
                if direct:
                    y = ops.conv2d(ops.upsample_nearest(x, 4), w, b, 1, 1)
                else:
                    y = block(x)
                s = (y * t(g)).sum()
            backward(s, tape)
            grads.append((x.grad, w.grad, b.grad))
        for got, expected in zip(*grads):
            np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    def test_parameters_keep_the_conv_names_and_shapes(self):
        block = UpsampleConv(16, 8, 4, rng_for(55))
        shapes = {name: p.shape for name, p in block.named_parameters().items()}
        assert shapes == {"conv.w": (8, 16, 3, 3), "conv.b": (8,)}


class TestFoldedHead:
    """``head_up(x, then=head_out)`` against ``head_out(head_up(x))``."""

    def _blocks(self, kind, r, seed):
        head = kind(3, 2, r, rng_for(seed)).astype(F64)
        out = Conv2d(2, 1, 1, rng_for(seed, 1)).astype(F64)
        jitter = rng_for(seed, 2)
        for p in head.parameters() + out.parameters():  # every bias nonzero
            p.data[...] += jitter.uniform(-0.5, 0.5, p.shape)
        return head, out

    @pytest.mark.parametrize("kind", [DUC, UpsampleConv])
    @pytest.mark.parametrize("r", [2, 3, 4])
    # (1, 1) has no more pixels than the folded conv's one output channel:
    # UpsampleConv's direct form
    @pytest.mark.parametrize("hw", [(3, 2), (1, 1)])
    def test_values_and_gradients_match_the_unfused_head(self, kind, r, hw):
        head, out = self._blocks(kind, r, 70 + r)
        x0 = rng_for(71, r).uniform(-1, 1, (2, 3) + hw)
        params = head.parameters() + out.parameters()
        results = []
        for fused in (True, False):
            x = t(x0, requires_grad=True)
            for p in params:
                p.grad = None
            with Tape() as tape:
                y = head(x, then=out) if fused else out(head(x))
                g = t(rng_for(72, r).uniform(-1, 1, y.shape))
                s = (y * g).sum()
            backward(s, tape)
            results.append([y.data, x.grad] + [p.grad for p in params])
        for got, expected in zip(*results):
            np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)
        # the values against the loop oracles, as the unfused head is written
        w, b = head.conv.w.data, head.conv.b.data
        if kind is DUC:
            up = pixel_shuffle_reference(conv2d_reference(x0, w, b, 1, 1), r)
        else:
            up = conv2d_reference(upsample_nearest_reference(x0, r), w, b, 1, 1)
        expected = conv2d_reference(up, out.w.data, out.b.data, 1, 0)
        np.testing.assert_allclose(results[0][0], expected, atol=1e-12, rtol=0)

    def test_only_an_unpadded_stride1_conv_folds(self):
        head = DUC(3, 2, 2, rng_for(73)).astype(F64)
        strided = Conv2d(2, 1, 1, rng_for(74), stride=2).astype(F64)
        with pytest.raises(ValueError, match="stride-1 1x1"):
            head(t(np.zeros((1, 3, 2, 2))), then=strided)


class TestDecoderBlock:
    def test_output_shape_doubles(self):
        block = DecoderBlock(16, 5, rng_for(25)).astype(F64)
        assert block(t(np.zeros((1, 16, 8, 8)))).shape == (1, 5, 16, 16)

    def test_zero_weights_zero_biases_give_zero(self):
        block = DecoderBlock(8, 3, rng_for(26)).astype(F64)
        for p in block.parameters():
            p.data[...] = 0.0
        out = block(t(rng_for(27).uniform(-1, 1, (1, 8, 4, 4))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_matches_composed_loop_oracles(self):
        block = DecoderBlock(4, 2, rng_for(28)).astype(F64)
        x = rng_for(29).uniform(-1, 1, (1, 4, 3, 3))
        stage1 = np.maximum(conv2d_reference(x, block.reduce.w.data,
                                             block.reduce.b.data, 1, 0), 0.0)
        stage2 = np.maximum(conv_transpose2d_reference(stage1, block.up.w.data,
                                                       block.up.b.data, 2, 0), 0.0)
        expected = conv2d_reference(stage2, block.restore.w.data,
                                    block.restore.b.data, 1, 0)
        np.testing.assert_allclose(block(t(x)).data, expected, atol=1e-12, rtol=0)

    def test_too_few_channels_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            DecoderBlock(3, 2, rng_for(30))


class TestEncoder:
    def test_pyramid_shapes(self):
        enc = Encoder(3, (16, 32, 64, 128), False, rng_for(31))
        levels = enc(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        shapes = [tuple(level.shape) for level in levels]
        assert shapes == [(1, 16, 16, 16), (1, 32, 8, 8), (1, 64, 4, 4), (1, 128, 2, 2)]

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(0).uniform(-1, 1, (1, 3, 32, 32))
        outs = []
        for _ in range(2):
            enc = Encoder(3, (4, 8, 16, 32), True, rng_for(32)).astype(F64)
            outs.append(enc(t(x))[3].data.tobytes())
        assert outs[0] == outs[1]

    def test_indivisible_extent_rejected(self):
        enc = Encoder(3, (4, 8, 16, 32), False, rng_for(33)).astype(F64)
        with pytest.raises(ValueError, match="^encoder input: .* multiples of 32 .*, got 48x64$"):
            enc(t(np.zeros((1, 3, 48, 64))))

    def test_rcb_only_when_enabled(self):
        with_rcb = Encoder(3, (4, 8, 16, 32), True, rng_for(34)).astype(F64)
        without = Encoder(3, (4, 8, 16, 32), False, rng_for(34)).astype(F64)
        assert any("rcb" in n for n in with_rcb.named_parameters())
        assert not any("rcb" in n for n in without.named_parameters())


class TestNetworkSpec:
    def test_channels_derived_from_base(self):
        assert NetworkSpec(base_channels=8, se_reduction=8).channels_per_level == (8, 16, 32, 64)
        assert replace(NetworkSpec(), base_channels=4, se_reduction=4).channels_per_level == (
            4, 8, 16, 32)

    def test_se_divisibility_enforced_only_when_used(self):
        with pytest.raises(ValueError, match="se_reduction"):
            NetworkSpec(base_channels=8, se_reduction=16)
        NetworkSpec(base_channels=8, se_reduction=16, enable_se=False)
        NetworkSpec(base_channels=8, se_reduction=16, enable_ff=False)

    @pytest.mark.parametrize("kw", [dict(se_reduction=7), dict(se_reduction=0),
                                    dict(base_channels=2)])
    def test_invalid_spec_cannot_be_built(self, kw):
        with pytest.raises(ValueError):
            NetworkSpec(**kw)

    def test_frozen(self):
        spec = NetworkSpec()
        with pytest.raises(FrozenInstanceError):
            spec.base_channels = 4
        with pytest.raises(ValueError, match="se_reduction"):
            replace(spec, se_reduction=7)

    def test_baseline_turns_all_flags_off(self):
        b = NetworkSpec().baseline()
        assert not (b.enable_rcb or b.enable_ff or b.enable_se or b.enable_duc)


class TestFedNet:
    def test_output_shape_and_range(self):
        net = FedNet(NetworkSpec(base_channels=8, se_reduction=8), rng=rng_for(35))
        x = Tensor(np.random.default_rng(1).uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
        out = ops.sigmoid(net(x))
        assert out.shape == (2, 1, 64, 64)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_nonsquare_input(self):
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng_for(36)).astype(F64)
        assert net(t(np.zeros((1, 3, 32, 64)))).shape == (1, 1, 32, 64)

    def test_baseline_matches_upsample_first_oracle(self):
        spec = NetworkSpec(base_channels=4, se_reduction=4).baseline()
        net = FedNet(spec, rng=rng_for(43)).astype(F64)
        jitter = rng_for(44)
        for p in net.parameters():  # nonzero biases, so none of them can hide
            p.data[...] += jitter.uniform(-0.1, 0.1, p.shape)
        x = rng_for(45).uniform(0, 1, (1, 3, 32, 64))
        params = {name: p.data for name, p in net.named_parameters().items()}
        np.testing.assert_allclose(net(t(x)).data,
                                   baseline_fednet_logits_reference(params, x),
                                   atol=1e-12, rtol=0)

    @pytest.mark.parametrize("baseline", [False, True])
    def test_matches_unfused_evaluation_of_its_blocks(self, baseline):
        spec = NetworkSpec(base_channels=4, se_reduction=4)
        net = FedNet(spec.baseline() if baseline else spec, rng=rng_for(46)).astype(F64)
        jitter = rng_for(47)
        for p in net.parameters():
            p.data[...] += jitter.uniform(-0.1, 0.1, p.shape)
        x = t(rng_for(48).uniform(0, 1, (2, 3, 32, 64)))
        levels = net.encoder(x)
        skips = net.fuse(levels) if net.fuse is not None else levels
        d = net.dec3(net.up4(skips[3]) + net.skip3(skips[2]))
        d = net.dec2(d + net.skip2(skips[1]))
        unfused = net.head_out(net.head_up(d + net.skip1(skips[0])))
        np.testing.assert_allclose(net(x).data, unfused.data, atol=1e-12, rtol=0)

    def test_six_ablation_configs_constructible_with_disjoint_block_names(self):
        from fednet.harness import ABLATION_ROWS
        from dataclasses import replace
        base = NetworkSpec(base_channels=8, se_reduction=8)
        for label, flags in ABLATION_ROWS:
            spec = replace(base, **flags)
            net = FedNet(spec, rng=rng_for(39)).astype(F64)
            names = set(net.named_parameters())
            assert any(n.startswith("fuse.") for n in names) == spec.enable_ff
            assert any(".se." in n for n in names) == (spec.enable_ff and spec.enable_se)
            assert any(".rcb" in n for n in names) == spec.enable_rcb
            assert any(n.startswith(("duc4.", "head_duc.")) for n in names) == spec.enable_duc
            assert any(n.startswith(("upconv4.", "head_upconv."))
                       for n in names) == (not spec.enable_duc)

    def test_head_starts_biased_toward_background(self):
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng_for(40)).astype(F64)
        out = ops.sigmoid(net(t(np.random.default_rng(3).uniform(0, 1, (1, 3, 32, 32)))))
        assert out.data.mean() < 0.5

    def test_parameter_names_are_unique_and_stable(self):
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng_for(41)).astype(F64)
        names = list(net.named_parameters())
        assert len(names) == len(set(names))
        net2 = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng_for(42)).astype(F64)
        assert names == list(net2.named_parameters())

    def test_parameters_are_the_leaf_tensors_backward_fills(self):
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng_for(49))
        x = Tensor(rng_for(50).uniform(0, 1, (2, 3, 32, 32)).astype(np.float32))
        y = Tensor((rng_for(51).uniform(0, 1, (2, 1, 32, 32)) > 0.7).astype(np.float32))
        with Tape() as tape:
            loss = combined_loss_with_logits(y, net(x))
        backward(loss, tape)
        for name, p in net.named_parameters().items():
            assert isinstance(p, Tensor), name
            assert p.grad is not None and p.grad.shape == p.shape, name
        conv = Conv2d(3, 2, 3, rng_for(52), pad=1).astype(F64)
        x1 = rng_for(53).uniform(-1, 1, (1, 3, 5, 4))
        np.testing.assert_allclose(ops.conv2d(t(x1), conv.w, conv.b, 1, 1).data,
                                   conv2d_reference(x1, conv.w.data, conv.b.data, 1, 1),
                                   atol=1e-12, rtol=0)


class TestAstype:
    def test_round_trip_keeps_values_and_parameters(self):
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng_for(43))
        before = net.named_parameters()
        values = {n: p.data.tobytes() for n, p in before.items()}

        assert net.astype(F64) is net
        assert all(p.dtype == F64 for p in net.parameters())
        net.astype(np.float32)

        after = net.named_parameters()
        assert list(after) == list(before)
        for name, p in after.items():
            assert p is before[name] and p.name == name
            assert p.dtype == np.float32
            assert p.data.tobytes() == values[name]

    @pytest.mark.parametrize("stage", ["liver", "lesion"])
    def test_built_networks_are_float32(self, stage):
        from fednet.config import TrainConfig
        from fednet.harness import build_network
        params = build_network(TrainConfig(), stage).parameters()
        assert params
        assert all(p.dtype == np.float32 for p in params)

    @pytest.mark.parametrize("stage", ["liver", "lesion"])
    def test_parameters_hold_no_optimizer_state(self, stage):
        # a network is its weights: SGD momentum belongs to harness.train
        from fednet.config import TrainConfig
        from fednet.harness import build_network
        params = build_network(TrainConfig(), stage).parameters()
        assert Parameter.__slots__ == ("name",)
        assert params and not any(hasattr(p, "momentum") for p in params)

    def test_float64_network_rejects_float32_batch(self):
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=rng_for(45)).astype(F64)
        x = np.random.default_rng(5).uniform(0, 1, (2, 3, 32, 32))
        assert net(Tensor(x)).dtype == F64
        with pytest.raises(TypeError, match="mixed precision"):
            net(Tensor(x.astype(np.float32)))


class TestNoConvOfReplicatedPixels:
    """Structure, not timing: which arrays the convolutions' im2col reads."""

    def _forward(self, monkeypatch, spec, shape):
        upsampled, convs = [], []
        upsample, im2col = ops.upsample_nearest, ops._im2col

        def recording_upsample(x, factor):
            out = upsample(x, factor)
            upsampled.append(out.data)
            return out

        def recording_im2col(x, kh, kw, stride, pad):
            cols = im2col(x, kh, kw, stride, pad)
            reads_upsampled = any(np.shares_memory(x, u) for u in upsampled)
            convs.append((x.shape, cols.size, reads_upsampled))
            return cols

        monkeypatch.setattr(ops, "upsample_nearest", recording_upsample)
        monkeypatch.setattr(ops, "_im2col", recording_im2col)
        net = FedNet(spec, rng=rng_for(60))
        net(Tensor(np.zeros(shape, dtype=np.float32)))
        return convs

    @pytest.mark.parametrize("baseline", [True, False])
    def test_no_conv_reads_an_upsampled_map(self, monkeypatch, baseline):
        # 160x160 puts 5x5 pixels under the stride-32 upsample-conv, more
        # than its 16 output channels, so both upsample-convs go sub-pixel
        spec = NetworkSpec(base_channels=4, se_reduction=4)
        convs = self._forward(monkeypatch, spec.baseline() if baseline else spec,
                              (1, 3, 160, 160))
        assert convs
        assert not [shape for shape, _, upsampled in convs if upsampled]

    def test_baseline_patch_elements_per_slice_fell(self, monkeypatch):
        # batch 8 of 3x64x64 through the default baseline network; convolving
        # every upsample's output, as the architecture is written, takes
        # 769,024 im2col elements per slice
        convs = self._forward(monkeypatch, NetworkSpec().baseline(), (8, 3, 64, 64))
        assert sum(size for _, size, _ in convs) // 8 < 769_024
        # only the stride-32 upsample-conv stays direct: 64 output channels
        # exceed its 2x2 source pixels, and then the direct form moves less data
        assert [shape for shape, _, upsampled in convs if upsampled] == [(8, 128, 4, 4)]


class TestFoldedHeadConv:
    """Structure, not timing: the shapes ``ops.conv2d`` sees in one forward
    pass of the default networks at batch 8 of 3x64x64."""

    @pytest.mark.parametrize("baseline", [True, False])
    def test_head_is_one_16_channel_conv(self, monkeypatch, baseline):
        calls = []
        conv2d = ops.conv2d

        def recording_conv2d(x, w, *args, **kwargs):
            calls.append((x.shape, w.shape))
            return conv2d(x, w, *args, **kwargs)

        monkeypatch.setattr(ops, "conv2d", recording_conv2d)
        spec = NetworkSpec()
        net = FedNet(spec.baseline() if baseline else spec, rng=rng_for(61))
        net(Tensor(np.zeros((8, 3, 64, 64), dtype=np.float32)))
        # the head: the 1x1 output conv folded into the x4 upsampling conv,
        # r*r = 16 output phases of one logit channel
        assert calls[-1] == ((8, 16, 16, 16), (16, 16, 3, 3))
        # no 8 channels x 16 phases at 16x16, and no 1x1 conv over 64x64 maps
        assert not [c for c in calls if c[1][0] == 128 and c[0][2:] == (16, 16)]
        assert not [c for c in calls if c[0][1:] == (8, 64, 64)]
