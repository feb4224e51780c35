"""Forward semantics of the tensor ops against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fednet import harness, losses, ops, tensor
from fednet.blocks import FedNet, NetworkSpec
from fednet.tensor import GradCheckReport, Tape, Tensor, backward

from oracles import (conv2d_adjoint_nchw, conv2d_grad_reference, conv2d_reference,
                     conv_transpose2d_grad_reference, conv_transpose2d_reference,
                     dense_reference, fold_1x1_reference, global_avg_pool_reference,
                     im2col_reference, pixel_shuffle_reference,
                     sigmoid_branchwise_reference, sigmoid_scalar,
                     subpixel_fold_reference, upsample_nearest_grad_reference,
                     upsample_nearest_reference)

RNG = np.random.default_rng(20240811)

# (xshape, wshape, stride, pad) checked against the loop oracles.  Then the
# 1x1 geometries (the stride-1 patch matrix is a view of the input), and deep
# layers (many channels, 2x2 output), where ops.sum_matmul_t computes the
# weight gradient as one GEMM over the whole batch
CONV_GEOMETRIES = [
    ((1, 2, 4, 4), (3, 2, 3, 3), 1, 1),
    ((2, 3, 7, 6), (4, 3, 3, 2), 2, 1),
    ((1, 1, 5, 5), (2, 1, 2, 2), 2, 0),
    ((2, 2, 6, 6), (1, 2, 3, 3), 3, 2),
    ((2, 3, 5, 4), (4, 3, 1, 1), 1, 0),
    ((2, 3, 5, 4), (4, 3, 1, 1), 2, 0),
    ((2, 8, 2, 2), (16, 8, 3, 3), 1, 1),
    ((2, 4, 3, 3), (12, 4, 3, 3), 2, 1),
]


def t(arr, **kw):
    return Tensor(np.asarray(arr, dtype=np.float64), **kw)


# every op with two or more tensor operands: (function, operand shapes)
MULTI_OPERAND_OPS = {
    "add": (tensor.add, [(2, 3), (2, 3)]),
    "sub": (tensor.sub, [(2, 3), (2, 3)]),
    "mul": (tensor.mul, [(2, 3), (2, 3)]),
    "div": (tensor.div, [(2, 3), (2, 3)]),
    "conv2d": (ops.conv2d, [(1, 2, 4, 4), (3, 2, 3, 3), (3,)]),
    "conv_transpose2d": (ops.conv_transpose2d, [(1, 2, 2, 2), (2, 3, 3, 3), (3,)]),
    "dense": (ops.dense, [(2, 3), (4, 3), (4,)]),
    "channel_scale": (ops.channel_scale, [(1, 2, 3, 3), (1, 2)]),
    "weighted_bce_with_logits": (losses.weighted_bce_with_logits, [(1, 1, 2, 2), (1, 1, 2, 2)]),
    "weighted_bce": (losses.weighted_bce, [(1, 1, 2, 2), (1, 1, 2, 2)]),
    "soft_jaccard": (losses.soft_jaccard, [(1, 1, 2, 2), (1, 1, 2, 2)]),
}


@pytest.mark.parametrize("name", list(MULTI_OPERAND_OPS))
def test_mixed_precision_rejected(name):
    # float64 operands and a float32 last one (the bias, where there is one)
    fn, shapes = MULTI_OPERAND_OPS[name]
    operands = [t(np.zeros(shape)) for shape in shapes[:-1]]
    operands.append(Tensor(np.zeros(shapes[-1], dtype=np.float32)))
    with pytest.raises(TypeError, match=f"{name}: mixed precision"):
        fn(*operands)


class TestConv2d:
    def test_identity_kernel(self):
        x = RNG.standard_normal((2, 1, 4, 5))
        w = np.ones((1, 1, 1, 1))
        out = ops.conv2d(t(x), t(w), t(np.zeros(1)), 1, 0)
        np.testing.assert_array_equal(out.data, x)

    def test_zero_kernel(self):
        x = RNG.standard_normal((1, 3, 4, 4))
        w = np.zeros((2, 3, 3, 3))
        out = ops.conv2d(t(x), t(w), t(np.zeros(2)), 1, 1)
        assert not out.data.any()

    @pytest.mark.parametrize("xshape,wshape,stride,pad", CONV_GEOMETRIES)
    def test_matches_loop_oracle(self, xshape, wshape, stride, pad):
        x = RNG.standard_normal(xshape)
        w = RNG.standard_normal(wshape)
        b = RNG.standard_normal(wshape[0])
        out = ops.conv2d(t(x), t(w), t(b), stride, pad)
        ref = conv2d_reference(x, w, b, stride, pad)
        np.testing.assert_allclose(out.data, ref, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("xshape,wshape,stride,pad", CONV_GEOMETRIES)
    @pytest.mark.parametrize("layout", ["contiguous", "flipped", "transposed"])
    def test_backward_matches_loop_oracle(self, xshape, wshape, stride, pad, layout):
        rng = np.random.default_rng(513)
        n, c, h, width = xshape
        if layout == "flipped":  # negative stride along H
            x = rng.standard_normal(xshape)[:, :, ::-1]
        elif layout == "transposed":
            x = rng.standard_normal((n, c, width, h)).transpose(0, 1, 3, 2)
        else:
            x = rng.standard_normal(xshape)
        w = rng.standard_normal(wshape)
        xt, wt, bt = t(x, requires_grad=True), t(w, requires_grad=True), t(
            rng.standard_normal(wshape[0]), requires_grad=True)
        assert xt.data.flags.c_contiguous == (layout == "contiguous")
        before = xt.data.copy()
        with Tape() as tape:
            out = ops.conv2d(xt, wt, bt, stride, pad)
            g = rng.standard_normal(out.shape)
            loss = (out * Tensor(g)).sum()
        backward(loss, tape)
        dx, dw, db = conv2d_grad_reference(x, w, g, stride, pad)
        np.testing.assert_allclose(xt.grad, dx, atol=1e-12, rtol=0)
        np.testing.assert_allclose(wt.grad, dw, atol=1e-12, rtol=0)
        np.testing.assert_allclose(bt.grad, db, atol=1e-12, rtol=0)
        np.testing.assert_array_equal(xt.data, before)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ValueError, match="channel axis"):
            ops.conv2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((1, 3, 3, 3))), t(np.zeros(1)), 1, 1)

    def test_too_small_spatial(self):
        with pytest.raises(ValueError, match="height axis"):
            ops.conv2d(t(np.zeros((1, 1, 2, 8))), t(np.zeros((1, 1, 3, 3))), t(np.zeros(1)), 1, 0)

    def test_deterministic_bits(self):
        x = RNG.standard_normal((2, 3, 8, 8))
        w = RNG.standard_normal((4, 3, 3, 3))
        a = ops.conv2d(t(x), t(w), t(np.zeros(4)), 1, 1).data
        b = ops.conv2d(t(x), t(w), t(np.zeros(4)), 1, 1).data
        assert a.tobytes() == b.tobytes()


def _net_convs(op_name: str, specs) -> list:
    """(input shape without the batch axis, weight shape, stride, pad) of each
    distinct call of ``ops.<op_name>`` in one forward pass of each default
    64-px network built from ``specs``."""
    seen = []
    op = getattr(ops, op_name)

    def spy(x, w, b, stride=1, pad=0):
        if (x.shape[1:], w.shape, stride, pad) not in seen:
            seen.append((x.shape[1:], w.shape, stride, pad))
        return op(x, w, b, stride, pad)

    setattr(ops, op_name, spy)
    try:
        for spec in specs:
            FedNet(spec)(Tensor(np.zeros((1, 3, 64, 64), np.float32)))
    finally:
        setattr(ops, op_name, op)
    return seen


def _conv_ids(convs) -> list:
    return ["x{}-w{}-s{}p{}".format("x".join(map(str, c)), "x".join(map(str, w)), s, p)
            for c, w, s, p in convs]


LESION_NET_CONVS = _net_convs("conv2d", [NetworkSpec()])
# every transposed conv of the liver (baseline) and lesion networks, then the
# two of the gradient-check suite (harness.gradcheck_suite)
NET_CONV_TRANSPOSES = _net_convs("conv_transpose2d", [NetworkSpec().baseline(), NetworkSpec()]) + [
    ((3, 4, 5), (3, 4, 2, 2), 2, 0),
    ((3, 4, 4), (3, 4, 3, 3), 2, 1),
]


def _im2col_geometries() -> list:
    """(C, H, W, kh, kw, stride, pad) of every distinct ``ops._im2col`` call
    in one forward and backward pass of the default lesion and liver networks
    (conv2d's forward and conv_transpose2d's backward) and of each check of
    ``harness.gradcheck_suite``, whose f is run once, forward and backward."""
    seen = []
    im2col, grad_check = ops._im2col, harness.grad_check

    def spy(x, kh, kw, stride, pad):
        if (*x.shape[1:], kh, kw, stride, pad) not in seen:
            seen.append((*x.shape[1:], kh, kw, stride, pad))
        return im2col(x, kh, kw, stride, pad)

    def forward_backward(f, x, *_, **__):
        with Tape() as tape:
            loss = f(x).sum()
        backward(loss, tape)
        return GradCheckReport(0.0, True)

    ops._im2col, harness.grad_check = spy, forward_backward
    try:
        for spec in (NetworkSpec(), NetworkSpec().baseline()):
            forward_backward(FedNet(spec), Tensor(np.zeros((1, 3, 64, 64), np.float32)))
        harness.gradcheck_suite()
    finally:
        ops._im2col, harness.grad_check = im2col, grad_check
    return seen


IM2COL_GEOMETRIES = _im2col_geometries()


def _im2col_path(c, h, w, kh, kw, stride, pad) -> str:
    ow = (w + 2 * pad - kw) // stride + 1
    if kh == kw == stride == 1 and not pad:
        return "view"
    if ow <= ops.NARROW_OW:
        return "gather"
    return "two-stage" if stride == 1 else "strided"


def _with_specials(shape, dtype, rng) -> np.ndarray:
    """Normal values with -0.0, NaN, +-inf and subnormals scattered in."""
    x = rng.standard_normal(shape).astype(dtype)
    sub = np.finfo(dtype).smallest_subnormal
    specials = np.array([-0.0, np.nan, np.inf, -np.inf, sub, -3 * sub], dtype=dtype)
    flat = x.reshape(-1)
    at = rng.choice(flat.size, size=min(flat.size, 3 * specials.size), replace=False)
    flat[at] = np.resize(specials, at.size)
    return x


class TestIm2col:
    """The patch matrix is pure data movement: bit for bit the loop oracle,
    on every geometry the networks and the gradient-check suite reach."""

    def test_geometries_reach_every_path(self):
        paths = {_im2col_path(*geom) for geom in IM2COL_GEOMETRIES}
        assert paths == {"view", "gather", "two-stage", "strided"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geom", IM2COL_GEOMETRIES,
                             ids=["c{}h{}w{}-k{}x{}-s{}p{}".format(*g) for g in IM2COL_GEOMETRIES])
    def test_bytes_equal_reference(self, geom, dtype):
        c, h, w, kh, kw, stride, pad = geom
        x = _with_specials((8, c, h, w), dtype, np.random.default_rng(list(geom)))
        ref = im2col_reference(x, kh, kw, stride, pad)

        def lookups():
            info = ops._gather_index.cache_info()
            return info.hits + info.misses

        gathers = []
        for n in (1, 8):
            before = lookups()
            cols = ops._im2col(x[:n], kh, kw, stride, pad)
            gathers.append(lookups() - before)
            assert cols.dtype == dtype and cols.flags.c_contiguous
            assert cols.shape == ref[:n].shape
            assert cols.tobytes() == ref[:n].tobytes()
        # the batch size does not choose the path
        assert gathers == [int(_im2col_path(*geom) == "gather")] * 2

    def test_gather_index_cache_is_bounded(self):
        # 1x1 pad-1 windows on a 2-wide map: OW = 4, every height its own geometry
        limit = ops._gather_index.cache_info().maxsize
        for h in range(1, limit + 10):
            ops._im2col(np.zeros((1, 1, h, 2), np.float32), 1, 1, 1, 1)
        assert ops._gather_index.cache_info().currsize <= limit
        index = ops._gather_index(2, 3, 3, 3, 3, 1, 1)
        assert index.dtype == np.intp and not index.flags.writeable


class TestConv2dInputGrad:
    """conv2d's dx is scattered channels-last; it must equal the NCHW scatter
    of the same taps bit for bit, signed zeros included, on every conv of the
    lesion net.  An unpadded 1x1 stride-1 conv's dx is the GEMM output itself,
    -0.0 kept."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cshape,wshape,stride,pad", LESION_NET_CONVS,
                             ids=_conv_ids(LESION_NET_CONVS))
    def test_equals_nchw_scatter(self, cshape, wshape, stride, pad, dtype):
        rng = np.random.default_rng(515)
        for n in (1, 8):
            x = Tensor(rng.standard_normal((n,) + cshape).astype(dtype), requires_grad=True)
            w = rng.standard_normal(wshape).astype(dtype)
            with Tape() as tape:
                out = ops.conv2d(x, Tensor(w), Tensor(np.zeros(wshape[0], dtype)), stride, pad)
            g = rng.standard_normal(out.shape).astype(dtype)
            g[..., ::3] = -0.0
            (entry,) = tape.entries
            dx = entry.backward_fn(g)[0]
            ref = conv2d_adjoint_nchw(w, g, x.shape, stride, pad)
            assert dx.dtype == dtype and dx.flags.c_contiguous
            assert dx.tobytes() == np.ascontiguousarray(ref).tobytes()


class TestConvTranspose2d:
    def test_identity_kernel(self):
        x = RNG.standard_normal((2, 1, 3, 3))
        w = np.ones((1, 1, 1, 1))
        out = ops.conv_transpose2d(t(x), t(w), t(np.zeros(1)), 1, 0)
        np.testing.assert_array_equal(out.data, x)

    def test_shape_formula(self):
        x = RNG.standard_normal((1, 1, 2, 2))
        w = RNG.standard_normal((1, 3, 2, 2))
        out = ops.conv_transpose2d(t(x), t(w), t(np.zeros(3)), 2, 0)
        assert out.shape == (1, 3, 4, 4)

    @pytest.mark.parametrize("h,s,p,k", [(7, 2, 1, 3), (6, 1, 0, 3), (9, 2, 0, 3), (8, 2, 1, 2)])
    def test_adjoint_of_conv2d(self, h, s, p, k):
        # geometry chosen so the transposed output recovers the conv input shape
        assert (h + 2 * p - k) % s == 0
        x = RNG.standard_normal((2, 3, h, h))
        w = RNG.standard_normal((4, 3, k, k))
        oh = (h + 2 * p - k) // s + 1
        y = RNG.standard_normal((2, 4, oh, oh))
        lhs = float(np.sum(ops.conv2d(t(x), t(w), t(np.zeros(4)), s, p).data * y))
        rhs = float(np.sum(x * ops.conv_transpose2d(t(y), t(w), t(np.zeros(3)), s, p).data))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cshape,wshape,stride,pad", NET_CONV_TRANSPOSES,
                             ids=_conv_ids(NET_CONV_TRANSPOSES))
    def test_forward_is_conv2d_adjoint(self, cshape, wshape, stride, pad, dtype):
        # bit for bit the NCHW scatter of the adjoint of the conv2d with
        # weight w, plus the bias
        rng = np.random.default_rng(516)
        _, cout, kh, kw = wshape
        hp = (cshape[1] - 1) * stride - 2 * pad + kh
        wp = (cshape[2] - 1) * stride - 2 * pad + kw
        for n in (1, 8):
            x = rng.standard_normal((n,) + cshape).astype(dtype)
            w = rng.standard_normal(wshape).astype(dtype)
            b = rng.standard_normal(cout).astype(dtype)
            out = ops.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
            ref = conv2d_adjoint_nchw(w, x, (n, cout, hp, wp), stride, pad) + b[None, :, None, None]
            assert out.dtype == dtype and out.flags.c_contiguous
            assert out.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_matches_loop_oracle(self):
        x = RNG.standard_normal((2, 3, 4, 5))
        w = RNG.standard_normal((3, 2, 3, 3))
        b = RNG.standard_normal(2)
        out = ops.conv_transpose2d(t(x), t(w), t(b), 2, 1)
        ref = conv_transpose2d_reference(x, w, b, 2, 1)
        np.testing.assert_allclose(out.data, ref, atol=1e-12, rtol=0)

    # (xshape, wshape, stride, pad): the weight gradient summed per sample,
    # then one GEMM over the whole batch (8 channels on a 2x2 input)
    @pytest.mark.parametrize("xshape,wshape,stride,pad", [
        ((2, 3, 4, 5), (3, 2, 3, 3), 2, 1),
        ((2, 8, 2, 2), (8, 4, 3, 3), 2, 1),
    ])
    def test_backward_matches_loop_oracle(self, xshape, wshape, stride, pad):
        rng = np.random.default_rng(514)
        x, w = rng.standard_normal(xshape), rng.standard_normal(wshape)
        xt, wt, bt = t(x, requires_grad=True), t(w, requires_grad=True), t(
            rng.standard_normal(wshape[1]), requires_grad=True)
        with Tape() as tape:
            out = ops.conv_transpose2d(xt, wt, bt, stride, pad)
            g = rng.standard_normal(out.shape)
            loss = (out * Tensor(g)).sum()
        backward(loss, tape)
        dx, dw, db = conv_transpose2d_grad_reference(x, w, g, stride, pad)
        np.testing.assert_allclose(xt.grad, dx, atol=1e-12, rtol=0)
        np.testing.assert_allclose(wt.grad, dw, atol=1e-12, rtol=0)
        np.testing.assert_allclose(bt.grad, db, atol=1e-12, rtol=0)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel axis"):
            ops.conv_transpose2d(t(np.zeros((1, 2, 4, 4))), t(np.zeros((3, 1, 2, 2))),
                                 t(np.zeros(1)), 1, 0)


class TestSumMatmulT:
    # (a shape [N,M,P], b shape [N,K,P], folded): one GEMM over the batch
    # exactly where M*K > P*(M+K)
    @pytest.mark.parametrize("ashape,bshape,folded", [
        ((3, 16, 4), (3, 72, 4), True),
        ((1, 8, 1), (1, 9, 1), True),
        ((3, 4, 16), (3, 36, 16), False),
        ((2, 16, 256), (2, 144, 256), False),
    ])
    def test_each_branch_equals_the_per_sample_sum(self, ashape, bshape, folded):
        rng = np.random.default_rng(515)
        a, b = rng.standard_normal(ashape), rng.standard_normal(bshape)
        m, k, p = ashape[1], bshape[1], ashape[2]
        assert (m * k > p * (m + k)) == folded
        ref = sum(a[i] @ b[i].T for i in range(ashape[0]))
        out = ops.sum_matmul_t(a, b)
        assert out.shape == (m, k)
        np.testing.assert_allclose(out, ref, atol=1e-12, rtol=0)
        if not folded:
            # below the rule the per-sample products keep their bits
            batched = np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0)
            assert out.tobytes() == batched.tobytes()


class TestDense:
    def test_identity(self):
        x = RNG.standard_normal((3, 4))
        out = ops.dense(t(x), t(np.eye(4)), t(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_broadcasts_bias(self):
        b = RNG.standard_normal(5)
        out = ops.dense(t(np.ones((3, 4))), t(np.zeros((5, 4))), t(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (3, 1)))

    def test_matches_loop_oracle(self):
        x = RNG.standard_normal((3, 4))
        w = RNG.standard_normal((2, 4))
        b = RNG.standard_normal(2)
        out = ops.dense(t(x), t(w), t(b))
        np.testing.assert_allclose(out.data, dense_reference(x, w, b), atol=1e-12, rtol=0)

    def test_inner_mismatch(self):
        with pytest.raises(ValueError, match="inner axis"):
            ops.dense(t(np.zeros((2, 3))), t(np.zeros((4, 5))), t(np.zeros(4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_bits_independent_of_batch_size(self, dtype):
        # a 2-D product runs a BLAS gemv for one row and a gemm for several
        x = Tensor(RNG.standard_normal((8, 128)).astype(dtype))
        w = Tensor(RNG.standard_normal((8, 128)).astype(dtype))
        b = Tensor(RNG.standard_normal(8).astype(dtype))
        full = ops.dense(x, w, b).data
        for i in range(8):
            alone = ops.dense(Tensor(x.data[i:i + 1]), w, b).data[0]
            assert alone.tobytes() == full[i].tobytes()


class TestActivations:
    def test_relu_values(self):
        out = ops.relu(t([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_input_gradient_is_g_times_active_set(self, dtype):
        sub = np.finfo(dtype).smallest_subnormal
        x = np.array([-1.5, -0.0, 0.0, 2.0, np.nan, -np.inf, np.inf, sub, -sub], dtype=dtype)
        g = np.array([0.5, -2.0, 3.0, -0.0, -1.0, 7.0, np.nan, 0.25, -4.0], dtype=dtype)
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            ops.relu(xt)
        (entry,) = tape.entries
        (dx,) = entry.backward_fn(g)
        assert dx.dtype == dtype
        assert dx.tobytes() == (g * (x > 0)).tobytes()
        # the active set is read from the input at backward time: the
        # forward kept no boolean mask of its own
        cells = [cell.cell_contents for cell in entry.backward_fn.__closure__]
        assert not [c for c in cells if isinstance(c, np.ndarray) and c.dtype == bool]

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(t([0.0])).data[0] == 0.5

    @pytest.mark.parametrize("v", [-40.0, 40.0, -7.3, 12.9])
    def test_sigmoid_matches_high_precision(self, v):
        out = float(ops.sigmoid(t([v])).data[0])
        assert out == pytest.approx(sigmoid_scalar(v), abs=1e-12)
        assert 0.0 < out < 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bits_match_branchwise_reference(self, dtype):
        edges = [0.0, -0.0, 88.0, -88.0, 745.0, -745.0, 800.0, -800.0, 1e-40, -1e-40]
        z = np.concatenate([np.random.default_rng(88).standard_normal(2000) * 30, edges])
        z = z.astype(dtype)
        out = ops.sigmoid(Tensor(z)).data
        ref = sigmoid_branchwise_reference(z)
        assert out.dtype == ref.dtype == dtype
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_no_overflow_far_out(self, dtype):
        x = Tensor(np.array([-1e3, -40.0, 0.0, 40.0, 1e3], dtype=dtype))
        with np.errstate(over="raise"):
            out = ops.sigmoid(x).data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_sigmoid_backward_flushes_subnormals(self):
        x = Tensor(np.array([-95.0, -3.0, 0.0], dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            loss = (ops.sigmoid(x) * 0.5).sum()
        backward(loss, tape)
        # 0.5 * tiny * (1 - tiny) is subnormal: flushed to 0
        assert x.grad[0] == 0.0
        assert x.grad[1] > np.finfo(np.float32).tiny and x.grad[2] == np.float32(0.125)

    def test_activation_dispatch(self):
        x = t([-1.0, 1.0])
        np.testing.assert_array_equal(ops.activation(x, "relu").data, [0.0, 1.0])
        with pytest.raises(ValueError, match="unknown activation"):
            ops.activation(x, "tanh")


class TestGlobalAvgPool:
    def test_constant_map(self):
        out = ops.global_avg_pool(t(np.full((2, 3, 4, 5), 2.5)))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 2.5))

    def test_small_example(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2)
        assert ops.global_avg_pool(t(x)).data[0, 0] == 4.0

    def test_matches_loop_oracle(self):
        x = RNG.standard_normal((2, 4, 3, 5))
        out = ops.global_avg_pool(t(x))
        np.testing.assert_allclose(out.data, global_avg_pool_reference(x), atol=1e-12, rtol=0)


def _net_upsamples(specs) -> list:
    """(input shape without the batch axis, factor) of each distinct call of
    ``ops.upsample_nearest`` in one forward pass of each default 64-px
    network built from ``specs``."""
    seen = []
    op = ops.upsample_nearest

    def spy(x, factor):
        if (x.shape[1:], factor) not in seen:
            seen.append((x.shape[1:], factor))
        return op(x, factor)

    ops.upsample_nearest = spy
    try:
        for spec in specs:
            FedNet(spec)(Tensor(np.zeros((1, 3, 64, 64), np.float32)))
    finally:
        ops.upsample_nearest = op
    return seen


# feature fusion's upsamples in the lesion net, then the upsample-convs of
# the liver (baseline) net
NET_UPSAMPLES = _net_upsamples([NetworkSpec(), NetworkSpec().baseline()])


class TestUpsampleNearest:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cshape,factor", NET_UPSAMPLES,
                             ids=["x{}-f{}".format("x".join(map(str, c)), f)
                                  for c, f in NET_UPSAMPLES])
    def test_input_grad_equals_one_reduction(self, cshape, factor, dtype):
        # the backward sums each block's rows and then adds them in order,
        # which is how numpy reduces axes (3, 5): the same bits, signed zeros
        # included
        rng = np.random.default_rng(391)
        x = Tensor(rng.standard_normal((8,) + cshape).astype(dtype), requires_grad=True)
        with Tape() as tape:
            out = ops.upsample_nearest(x, factor)
        g = rng.standard_normal(out.shape).astype(dtype)
        g[..., ::3] = -0.0
        g[:, :, ::2, 1::3] = -0.0
        (entry,) = tape.entries
        (dx,) = entry.backward_fn(g)
        expected = upsample_nearest_grad_reference(g, factor)
        assert dx.dtype == expected.dtype and dx.shape == expected.shape
        assert dx.tobytes() == expected.tobytes()

    def test_factor_one_identity(self):
        x = RNG.standard_normal((1, 2, 3, 3))
        np.testing.assert_array_equal(ops.upsample_nearest(t(x), 1).data, x)

    def test_block_replication(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = ops.upsample_nearest(t(x), 2).data[0, 0]
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
        np.testing.assert_array_equal(out, expected)

    def test_matches_loop_oracle(self):
        x = RNG.standard_normal((2, 3, 3, 4))
        out = ops.upsample_nearest(t(x), 3)
        np.testing.assert_array_equal(out.data, upsample_nearest_reference(x, 3))

    def test_sum_gradient_is_factor_squared(self):
        from fednet.tensor import Tape, backward
        x = t(RNG.standard_normal((1, 2, 3, 3)), requires_grad=True)
        with Tape() as tape:
            s = ops.upsample_nearest(x, 3).sum()
        backward(s, tape)
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 9.0))


class TestPixelShuffle:
    def test_r1_identity(self):
        x = RNG.standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(ops.pixel_shuffle(t(x), 1).data, x)

    def test_channel_to_position_convention(self):
        x = np.arange(4.0).reshape(1, 4, 1, 1)
        out = ops.pixel_shuffle(t(x), 2).data
        np.testing.assert_array_equal(out.reshape(2, 2), [[0.0, 1.0], [2.0, 3.0]])

    def test_shape_formula(self):
        x = RNG.standard_normal((2, 8, 3, 5))
        assert ops.pixel_shuffle(t(x), 2).shape == (2, 2, 6, 10)

    def test_matches_index_oracle(self):
        x = RNG.standard_normal((2, 18, 2, 3))
        out = ops.pixel_shuffle(t(x), 3)
        np.testing.assert_array_equal(out.data, pixel_shuffle_reference(x, 3))

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            ops.pixel_shuffle(t(np.zeros((1, 6, 2, 2))), 2)


class TestSubpixelFold:
    def test_fold_matches_tap_sum_oracle(self):
        w = RNG.standard_normal((2, 3, 3, 3))
        for r in (1, 2, 3, 4):
            np.testing.assert_allclose(ops.subpixel_fold(t(w), r).data,
                                       subpixel_fold_reference(w, r), atol=1e-15, rtol=0)

    def test_tile_repeats_each_channel(self):
        out = ops.subpixel_tile(t([1.0, 2.0]), 2).data
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])

    @pytest.mark.parametrize("op, shape", [(ops.subpixel_fold, (2, 3, 3, 3)),
                                           (ops.subpixel_tile, (3,))])
    def test_backward_is_the_transpose(self, op, shape):
        # <op(v), g> == <v, op^T(g)> for the linear map and its backward
        v = t(RNG.standard_normal(shape), requires_grad=True)
        with Tape() as tape:
            out = op(v, 3)
            g = RNG.standard_normal(out.shape)
            s = (out * t(g)).sum()
        backward(s, tape)
        np.testing.assert_allclose(np.sum(out.data * g), np.sum(v.data * v.grad),
                                   atol=1e-12, rtol=0)

    def test_kernel_must_be_3x3(self):
        with pytest.raises(ValueError, match="3x3"):
            ops.subpixel_fold(t(np.zeros((2, 3, 2, 2))), 2)


class TestFold1x1:
    @pytest.mark.parametrize("phases", [1, 4, 9])
    def test_matches_term_sum_oracle(self, phases):
        w = RNG.standard_normal((3 * phases, 2, 3, 3))
        b = RNG.standard_normal(3 * phases)
        v = RNG.standard_normal((2, 3, 1, 1))
        c = RNG.standard_normal(2)
        w_out, b_out = ops.fold_1x1(t(w), t(b), t(v), t(c), phases)
        w_ref, b_ref = fold_1x1_reference(w, b, v, c, phases)
        np.testing.assert_allclose(w_out.data, w_ref, atol=1e-13, rtol=0)
        np.testing.assert_allclose(b_out.data, b_ref, atol=1e-13, rtol=0)

    def test_backward_is_the_transpose_in_each_input(self):
        # the outputs are linear in (w, b, c) for fixed v and linear in v for
        # fixed (w, b): <out(u), g> == <u, d out/du^T g> for each input u
        # (c enters once, as the constant term of the bias)
        ins = [t(RNG.standard_normal(s), requires_grad=True)
               for s in ((8, 3, 3, 3), (8,), (2, 2, 1, 1), (2,))]
        with Tape() as tape:
            w_out, b_out = ops.fold_1x1(*ins, 4)
            gw, gb = RNG.standard_normal(w_out.shape), RNG.standard_normal(b_out.shape)
            s = (w_out * t(gw)).sum() + (b_out * t(gb)).sum()
        backward(s, tape)
        w, b, v, c = ins
        total = np.sum(w_out.data * gw) + np.sum(b_out.data * gb)
        np.testing.assert_allclose(np.sum(w.data * w.grad) + np.sum(b.data * b.grad)
                                   + np.sum(c.data * c.grad), total, atol=1e-12, rtol=0)
        np.testing.assert_allclose(np.sum(v.data * v.grad) + np.sum(c.data * c.grad),
                                   total, atol=1e-12, rtol=0)

    def test_second_kernel_must_be_1x1(self):
        with pytest.raises(ValueError, match="1x1"):
            ops.fold_1x1(t(np.zeros((4, 2, 3, 3))), t(np.zeros(4)),
                         t(np.zeros((1, 4, 3, 3))), t(np.zeros(1)), 1)

    def test_channels_must_match_phases(self):
        with pytest.raises(ValueError, match="2 channels x 4 phases"):
            ops.fold_1x1(t(np.zeros((4, 2, 3, 3))), t(np.zeros(4)),
                         t(np.zeros((1, 2, 1, 1))), t(np.zeros(1)), 4)


class TestPixelUnshuffle:
    def test_r1_identity(self):
        x = RNG.standard_normal((1, 2, 3, 3))
        np.testing.assert_array_equal(ops.pixel_unshuffle(t(x), 1).data, x)

    def test_shape(self):
        out = ops.pixel_unshuffle(t(np.zeros((1, 1, 4, 4))), 2)
        assert out.shape == (1, 4, 2, 2)

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            ops.pixel_unshuffle(t(np.zeros((1, 1, 5, 4))), 2)

    @settings(max_examples=30, deadline=None)
    @given(r=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 4),
           w=st.integers(1, 4), seed=st.integers(0, 2 ** 31))
    def test_roundtrip_bit_exact(self, r, c, h, w, seed):
        x = np.random.default_rng(seed).standard_normal((2, c * r * r, h, w))
        back = ops.pixel_unshuffle(ops.pixel_shuffle(t(x), r), r).data
        assert back.tobytes() == x.tobytes()


class TestChannelScale:
    def test_scales_each_channel(self):
        x = np.ones((1, 2, 2, 2))
        g = np.array([[2.0, 3.0]])
        out = ops.channel_scale(t(x), t(g)).data
        np.testing.assert_array_equal(out[0, 0], np.full((2, 2), 2.0))
        np.testing.assert_array_equal(out[0, 1], np.full((2, 2), 3.0))

    def test_gate_shape_checked(self):
        with pytest.raises(ValueError, match="gate shape"):
            ops.channel_scale(t(np.zeros((1, 2, 2, 2))), t(np.zeros((1, 3))))
