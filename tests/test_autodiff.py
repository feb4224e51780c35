"""Tape recording, the reverse pass, SGD updates, and the gradient checker."""

import numpy as np
import pytest

from fednet import ops
from fednet.tensor import (GRAD_CHECK_COPIES, GradCheckReport, Parameter, Tape, Tensor,
                           backward, clip_gradients, grad_check, record, sgd_step)

RNG = np.random.default_rng(7)


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(RNG.standard_normal((3, 4)))
        with Tape() as tape:
            s = x.sum()
        backward(s, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_half_sum_of_squares_gives_x(self):
        x = leaf(RNG.standard_normal(6))
        with Tape() as tape:
            s = (x * x).sum() * 0.5
        backward(s, tape)
        np.testing.assert_allclose(x.grad, x.data, atol=1e-15)

    def test_accumulates_over_paths(self):
        x = leaf([2.0, 3.0])
        with Tape() as tape:
            s = (x + x).sum()
        backward(s, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_shared_gradient_buffers_are_not_aliased(self):
        # y = a + b used twice: the same upstream array reaches both leaves
        a, b = leaf([1.0]), leaf([1.0])
        with Tape() as tape:
            y = a + b
            s = (y * 3.0).sum() + (a * 2.0).sum()
        backward(s, tape)
        assert a.grad[0] == 5.0
        assert b.grad[0] == 3.0

    def test_two_leaf_operands_get_their_own_grad(self):
        # a + b hands both leaves the same array; clipping scales each .grad
        # in place, so a shared one would be scaled twice
        a, b = Parameter(np.zeros(2), "a"), Parameter(np.zeros(2), "b")
        with Tape() as tape:
            s = ((a + b) * 4.0).sum()
        backward(s, tape)
        assert not np.shares_memory(a.grad, b.grad)
        assert clip_gradients([a, b], max_norm=2.0) == 8.0
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_read_only_broadcast_gradients_accumulate(self):
        # sum and mean return read-only np.broadcast_to views; y has both as
        # consumers, so its first gradient is a view that cannot take +=
        x = leaf([1.0, 2.0, 3.0, 4.0])
        with Tape() as tape:
            y = x * 2.0
            s = y.sum() + y.mean()
        backward(s, tape)
        np.testing.assert_array_equal(x.grad, np.full(4, 2.5))
        assert x.grad.flags.writeable

    def test_non_scalar_root_rejected(self):
        x = leaf([1.0, 2.0])
        with Tape() as tape:
            y = x * 2.0
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_detached_root_rejected(self):
        x = leaf([1.0])
        with Tape():
            pass
        tape = Tape()
        s = x.sum()  # recorded on no tape
        with pytest.raises(ValueError, match="detached|not produced"):
            backward(s, tape)

    def test_tape_single_use(self):
        x = leaf([1.0])
        with Tape() as tape:
            s = (x * 2.0).sum()
        assert len(tape) == 2
        backward(s, tape)
        # the walk pops every entry, freeing what its backward function held
        assert len(tape) == 0
        with pytest.raises(RuntimeError, match="consumed"):
            backward(s, tape)

    def test_no_recording_without_tape(self):
        x = leaf([1.0, 2.0])
        y = x * 3.0
        assert y.requires_grad
        tape = Tape()
        assert len(tape) == 0

    def test_no_recording_without_requires_grad(self):
        x = Tensor(np.ones(3))
        with Tape() as tape:
            (x * 2.0).sum()
        assert len(tape) == 0

    def test_leaf_grad_accumulates_across_passes(self):
        x = leaf([1.0])
        for _ in range(2):
            with Tape() as tape:
                s = (x * 3.0).sum()
            backward(s, tape)
        np.testing.assert_array_equal(x.grad, [6.0])


class TestElementwiseBackward:
    @pytest.mark.parametrize("f", [
        lambda x: (x * x * 0.5).sum(),
        lambda x: (x / (x * x + 1.0)).sum(),
        lambda x: ((2.0 - x) * (x + 3.0)).sum(),
        lambda x: (-x).clamp(-0.8, 0.8).sum(),
        lambda x: (x * x + 0.5).log().mean(),
        lambda x: x.sum(axis=(1,)).log().sum(),
    ])
    def test_grad_check_passes(self, f):
        x = leaf(RNG.uniform(0.3, 1.2, size=(3, 5)))
        assert grad_check(f, x, tol=1e-6).passed


class TestSgd:
    def test_plain_descent_without_momentum(self):
        p = Parameter(np.array([1.0, 2.0], dtype=np.float64), "p")
        p.grad = np.array([0.5, -1.0])
        sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p.data, [0.95, 2.1])
        assert p.grad is None

    def test_zero_grad_zero_buffer_no_change(self):
        p = Parameter(np.array([3.0]), "p")
        p.grad = np.zeros(1)
        sgd_step([p], lr=0.5, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_momentum_recurrence_two_steps(self):
        # buf <- 0.9*buf + grad; value <- value - 0.1*buf: 1 -> 0.9 -> 0.71
        p = Parameter(np.array([1.0]), "p")
        for _ in range(2):
            p.grad = np.ones(1)
            sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.data[0] == pytest.approx(0.71, abs=1e-12)

    def test_weight_decay_matches_scalar_simulation(self):
        value, buf = 1.5, 0.0
        p = Parameter(np.array([1.5]), "p")
        for step in range(5):
            g = 0.3 * (step + 1)
            buf = 0.9 * buf + (g + 0.01 * value)
            value -= 0.05 * buf
            p.grad = np.array([g])
            sgd_step([p], lr=0.05, momentum=0.9, weight_decay=0.01)
        assert p.data[0] == pytest.approx(value, rel=1e-12)

    def test_missing_grad_rejected(self):
        p = Parameter(np.array([1.0]), "p")
        with pytest.raises(RuntimeError, match="no gradient"):
            sgd_step([p], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError, match="lr"):
            sgd_step([], lr=0.0)

    def test_missing_grad_rejected_before_any_update(self):
        a, b = Parameter(np.array([1.0]), "a"), Parameter(np.array([2.0]), "b")
        a.grad = np.ones(1)
        with pytest.raises(RuntimeError, match="'b' has no gradient"):
            sgd_step([a, b], lr=0.1)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(a.momentum, [0.0])
        np.testing.assert_array_equal(a.grad, [1.0])

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        p = Parameter(np.array([1.0]), "p")
        p.grad = np.ones(1)
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            sgd_step([p], lr=lr)
        np.testing.assert_array_equal(p.data, [1.0])


class TestClipGradients:
    def test_scales_down_large_gradients(self):
        p = Parameter(np.zeros(4), "p")
        p.grad = np.full(4, 3.0)
        norm = clip_gradients([p], max_norm=1.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_leaves_small_gradients_alone(self):
        p = Parameter(np.zeros(2), "p")
        p.grad = np.array([0.1, 0.2])
        clip_gradients([p], max_norm=5.0)
        np.testing.assert_array_equal(p.grad, [0.1, 0.2])

    def test_disabled_with_nonpositive_norm(self):
        p = Parameter(np.zeros(2), "p")
        p.grad = np.array([10.0, 10.0])
        clip_gradients([p], max_norm=0.0)
        np.testing.assert_array_equal(p.grad, [10.0, 10.0])

    def test_nan_norm_rejected(self):
        p = Parameter(np.zeros(2), "p")
        p.grad = np.array([10.0, 10.0])
        with pytest.raises(ValueError, match="max_norm must not be NaN"):
            clip_gradients([p], max_norm=float("nan"))


class TestGradCheck:
    def test_identity_is_tiny(self):
        x = leaf(RNG.standard_normal((2, 3)))
        report = grad_check(lambda v: v, x)
        assert report.passed and report.max_rel_err < 1e-10

    def test_conv2d_passes(self):
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
        b = Tensor(RNG.standard_normal(3))
        x = leaf(RNG.standard_normal((1, 2, 5, 5)))
        assert grad_check(lambda v: ops.conv2d(v, w, b, 1, 1), x, tol=1e-4).passed

    def test_sigmoid_of_dense_passes(self):
        w = Tensor(RNG.standard_normal((4, 3)))
        b = Tensor(RNG.standard_normal(4))
        x = leaf(RNG.standard_normal((2, 3)))
        assert grad_check(lambda v: ops.sigmoid(ops.dense(v, w, b)), x, tol=1e-4).passed

    def test_corrupted_backward_detected(self):
        def bad_double(v):
            out = Tensor(v.data * 2.0)
            return record(out, (v,), lambda g: (g * 2.03,))  # wrong adjoint

        x = leaf(RNG.standard_normal(5))
        report = grad_check(lambda v: bad_double(v), x, tol=1e-4)
        assert not report.passed

    def test_float32_rejected(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="float64"):
            grad_check(lambda v: v, x)

    @staticmethod
    def kinked_conv():
        """conv(relu(x)), with a quarter of x within h = 1e-5 of relu's kink."""
        rng = np.random.default_rng(31)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        x = rng.uniform(-1, 1, (3, 2, 3, 5))  # 180 copies: the last call holds 4
        near = x.reshape(-1)[::4]
        near[:] = rng.uniform(-5e-6, 5e-6, near.size)
        return (lambda v: ops.conv2d(ops.relu(v), w, b, 1, 1)), x

    def test_samplewise_report_equals_serial(self):
        f, x = self.kinked_conv()
        serial = grad_check(f, leaf(x))
        stacked = grad_check(f, leaf(x), samplewise=True)
        assert serial.passed and serial.kink_coords_skipped > 0
        assert stacked == serial

    def test_different_relu_count_marks_kink(self):
        # +h on coordinate 0 makes three relu calls on x; -h makes one on x
        # tiled twice and one on x.  All masks are true, so both sides give
        # the same row of six entries; only the mask count tells them apart.
        x0 = 0.5

        def f(v):
            if v.data[0] > x0:
                ops.relu(v)
                ops.relu(v)
            else:
                ops.relu(Tensor(np.tile(v.data, 2)))
            return ops.relu(v)

        report = grad_check(f, leaf([x0, 0.7]))
        assert report.passed and report.kink_coords_skipped == 1

    def test_samplewise_stacks_copies_into_fewer_calls(self):
        shapes = []

        def f(v):
            shapes.append(v.shape)
            return ops.relu(v)

        x = RNG.uniform(-1, 1, (2, 3, 5))  # 30 coordinates, 60 copies
        grad_check(f, leaf(x))
        assert len(shapes) == 1 + 60
        shapes.clear()
        grad_check(f, leaf(x), samplewise=True)
        calls = -(-60 // GRAD_CHECK_COPIES)
        assert len(shapes) == 1 + calls
        assert shapes[1] == (2 * GRAD_CHECK_COPIES, 3, 5)
        assert shapes[-1] == (2 * (60 - (calls - 1) * GRAD_CHECK_COPIES), 3, 5)

    def test_samplewise_rejects_f_that_mixes_samples(self):
        x = leaf(RNG.uniform(-1, 1, (2, 3)))
        with pytest.raises(ValueError, match="stacked copies"):
            grad_check(lambda v: v.sum(axis=0), x, samplewise=True)

    def test_report_is_printable(self):
        report = GradCheckReport(1e-9, True)
        assert "PASS" in str(report)
