"""Tape recording, the reverse pass, SGD updates, and the gradient checker."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fednet import ops, tensor
from fednet.blocks import FedNet, NetworkSpec
from fednet.losses import LossWeights, combined_loss_with_logits
from fednet.tensor import (GRAD_CHECK_COPIES, OPTIMIZER_CHUNK, FlatParameters, GradCheckReport,
                           Parameter, Tape, Tensor, backward, clip_gradients, grad_check, record,
                           sgd_step)
from oracles import clip_gradients_reference, sgd_step_reference

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
        assert clip_gradients(FlatParameters([a, b]), max_norm=2.0) == 8.0
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

    def test_tape_records_only_its_own_threads_ops(self):
        # each thread has a tape open while the other runs a conv on a
        # requires_grad input: the worker's conv must not reach the main
        # thread's tape, nor the main thread's conv the worker's
        x = Tensor(RNG.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
        b = Tensor(np.zeros(3))
        opened, ran = threading.Event(), threading.Event()
        outs = {}

        def worker():
            with Tape() as tape:
                opened.set()
                assert ran.wait(timeout=60)
                outs["worker"] = ops.conv2d(x, w, b, pad=1)
            outs["worker_tape"] = tape

        with Tape() as tape:
            thread = threading.Thread(target=worker)
            thread.start()
            assert opened.wait(timeout=60)
            outs["main"] = ops.conv2d(x, w, b, pad=1)
            ran.set()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert len(tape) == 1 and tape.entries[0].out is outs["main"]
        worker_tape = outs["worker_tape"]
        assert len(worker_tape) == 1 and worker_tape.entries[0].out is outs["worker"]

    def test_tape_open_on_main_thread_stays_empty_while_another_thread_runs_ops(self):
        x = Tensor(RNG.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(RNG.standard_normal((3, 2, 3, 3)))
        b = Tensor(np.zeros(3))
        outs = []
        with Tape() as tape:
            thread = threading.Thread(target=lambda: outs.append(ops.conv2d(x, w, b, pad=1)))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(outs) == 1 and outs[0].requires_grad
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


def flat_step(params, velocity, **kwargs):
    """sgd_step on ``params`` moved into one flat array."""
    sgd_step(FlatParameters(params), velocity, **kwargs)


class TestSgd:
    def test_plain_descent_without_momentum(self):
        p = Parameter(np.array([1.0, 2.0], dtype=np.float64), "p")
        p.grad = np.array([0.5, -1.0])
        flat_step([p], np.zeros(2), lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p.data, [0.95, 2.1])
        assert p.grad is None

    def test_zero_grad_zero_buffer_no_change(self):
        p = Parameter(np.array([3.0]), "p")
        p.grad = np.zeros(1)
        flat_step([p], np.zeros(1), lr=0.5, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [3.0])

    def test_momentum_recurrence_two_steps(self):
        # buf <- 0.9*buf + grad; value <- value - 0.1*buf: 1 -> 0.9 -> 0.71
        p, buf = Parameter(np.array([1.0]), "p"), np.zeros(1)
        for _ in range(2):
            p.grad = np.ones(1)
            flat_step([p], buf, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.data[0] == pytest.approx(0.71, abs=1e-12)
        assert buf[0] == pytest.approx(1.9, abs=1e-12)

    def test_weight_decay_matches_scalar_simulation(self):
        value, buf = 1.5, 0.0
        p, velocity = Parameter(np.array([1.5]), "p"), np.zeros(1)
        for step in range(5):
            g = 0.3 * (step + 1)
            buf = 0.9 * buf + (g + 0.01 * value)
            value -= 0.05 * buf
            p.grad = np.array([g])
            flat_step([p], velocity, lr=0.05, momentum=0.9, weight_decay=0.01)
        assert p.data[0] == pytest.approx(value, rel=1e-12)
        assert velocity[0] == pytest.approx(buf, rel=1e-12)

    def test_missing_grad_rejected(self):
        p = Parameter(np.array([1.0]), "p")
        with pytest.raises(RuntimeError, match="no gradient"):
            flat_step([p], np.zeros(1), lr=0.1, momentum=0.9, weight_decay=1e-4)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError, match="lr"):
            flat_step([Parameter(np.zeros(1), "p")], np.zeros(1), lr=0.0, momentum=0.9,
                      weight_decay=1e-4)

    def test_missing_grad_rejected_before_any_update(self):
        a, b = Parameter(np.array([1.0]), "a"), Parameter(np.array([2.0]), "b")
        a.grad = np.ones(1)
        velocity = np.zeros(2)
        with pytest.raises(RuntimeError, match="'b' has no gradient"):
            flat_step([a, b], velocity, lr=0.1, momentum=0.9, weight_decay=1e-4)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(velocity, [0.0, 0.0])
        np.testing.assert_array_equal(a.grad, [1.0])

    @pytest.mark.parametrize("velocity, message", [
        (np.zeros(1), r"1 velocity values \(float64, shape \(1,\)\) for 2 parameter values"),
        (np.zeros(3), r"3 velocity values \(float64, shape \(3,\)\) for 2 parameter values"),
        (np.zeros((2, 1)), r"2 velocity values \(float64, shape \(2, 1\)\) for 2 parameter "
                           r"values \(float64, shape \(2,\)\)"),
        (np.zeros(2, np.float32), r"2 velocity values \(float32, shape \(2,\)\) for 2 "
                                  r"parameter values \(float64, shape \(2,\)\)"),
    ])
    def test_mismatched_velocity_rejected_before_any_update(self, velocity, message):
        a, b = Parameter(np.array([1.0]), "a"), Parameter(np.array([2.0]), "b")
        a.grad, b.grad = np.ones(1), np.ones(1)
        before = velocity.copy()
        with pytest.raises(ValueError, match=message):
            flat_step([a, b], velocity, lr=0.1, momentum=0.9, weight_decay=1e-4)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [2.0])
        np.testing.assert_array_equal(velocity, before)
        np.testing.assert_array_equal(a.grad, [1.0])

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        p = Parameter(np.array([1.0]), "p")
        p.grad = np.ones(1)
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            flat_step([p], np.zeros(1), lr=lr, momentum=0.9, weight_decay=1e-4)
        np.testing.assert_array_equal(p.data, [1.0])

    @pytest.mark.parametrize("name, value", [
        ("momentum", float("nan")), ("momentum", 1.0), ("momentum", -0.1),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")), ("weight_decay", -1e-4),
    ])
    def test_bad_momentum_or_weight_decay_rejected_before_any_update(self, name, value):
        p, velocity = Parameter(np.array([1.0]), "p"), np.zeros(1)
        p.grad = np.ones(1)
        with pytest.raises(ValueError, match=f"{name} must"):
            flat_step([p], velocity, lr=0.1,
                      **{"momentum": 0.9, "weight_decay": 1e-4, name: value})
        np.testing.assert_array_equal(p.data, [1.0])
        np.testing.assert_array_equal(velocity, [0.0])
        np.testing.assert_array_equal(p.grad, [1.0])


class TestFlatParameters:
    def test_values_are_views_in_order(self):
        a = Parameter(np.arange(6.0).reshape(2, 3), "a")
        b = Parameter(np.array([7.0]), "b")
        flat = FlatParameters([a, b])
        np.testing.assert_array_equal(flat.values, [0, 1, 2, 3, 4, 5, 7])
        flat.values[:] = -1.0
        np.testing.assert_array_equal(a.data, np.full((2, 3), -1.0))
        np.testing.assert_array_equal(b.data, [-1.0])

    def test_mixed_dtypes_rejected(self):
        a, b = Parameter(np.zeros(1, np.float32), "a"), Parameter(np.zeros(1), "b")
        with pytest.raises(TypeError, match="FlatParameters: mixed precision"):
            FlatParameters([a, b])

    def test_no_parameters_rejected(self):
        with pytest.raises(ValueError, match="^FlatParameters needs at least one parameter$"):
            FlatParameters([])

    def test_gradient_chunks_span_parameters(self):
        a, b = Parameter(np.zeros((2, 2)), "a"), Parameter(np.zeros(3), "b")
        a.grad, b.grad = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([5.0, 6.0, 7.0])
        chunks = [c.copy() for c in FlatParameters([a, b]).gradient_chunks(np.empty(3))]
        assert [c.tolist() for c in chunks] == [[1, 2, 3], [4, 5, 6], [7]]


def with_grad(grad):
    """One parameter holding ``grad`` as its gradient, and its FlatParameters."""
    p = Parameter(np.zeros(grad.shape, grad.dtype), "p")
    p.grad = grad
    return p, FlatParameters([p])


class TestClipGradients:
    def test_scales_down_large_gradients(self):
        p, flat = with_grad(np.full(4, 3.0))
        norm = clip_gradients(flat, max_norm=1.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-6)

    def test_leaves_small_gradients_alone(self):
        p, flat = with_grad(np.array([0.1, 0.2]))
        clip_gradients(flat, max_norm=5.0)
        np.testing.assert_array_equal(p.grad, [0.1, 0.2])

    def test_disabled_with_nonpositive_norm(self):
        p, flat = with_grad(np.array([10.0, 10.0]))
        clip_gradients(flat, max_norm=0.0)
        np.testing.assert_array_equal(p.grad, [10.0, 10.0])

    def test_nan_norm_rejected(self):
        _, flat = with_grad(np.array([10.0, 10.0]))
        with pytest.raises(ValueError, match="max_norm must not be NaN"):
            clip_gradients(flat, max_norm=float("nan"))

    # training's dead-network abort needs an exact 0.0, and its divergence
    # abort a NaN; both gradients span several chunks
    def test_zero_gradient_has_norm_exactly_zero(self):
        _, flat = with_grad(np.zeros(2 * OPTIMIZER_CHUNK + 3, np.float32))
        assert clip_gradients(flat, max_norm=1.0) == 0.0

    def test_nan_gradient_has_nan_norm_and_is_not_scaled(self):
        grad = np.ones(2 * OPTIMIZER_CHUNK + 3, np.float32)
        grad[OPTIMIZER_CHUNK + 1] = np.nan
        p, flat = with_grad(grad.copy())
        assert np.isnan(clip_gradients(flat, max_norm=1.0))
        np.testing.assert_array_equal(p.grad, grad)

    def test_missing_grad_rejected(self):
        a, b = Parameter(np.zeros(1), "a"), Parameter(np.zeros(1), "b")
        a.grad = np.full(1, 5.0)
        with pytest.raises(RuntimeError, match="'b' has no gradient"):
            clip_gradients(FlatParameters([a, b]), max_norm=1.0)
        np.testing.assert_array_equal(a.grad, [5.0])


@pytest.fixture(scope="module")
def net_state():
    """(name, values, gradient) of each parameter of the default lesion net
    after one backward pass of the training loss on a random batch of two."""
    rng = np.random.default_rng(11)
    net = FedNet(NetworkSpec(), rng=rng)
    x = Tensor(rng.uniform(0.0, 1.0, (2, 3, 64, 64)).astype(np.float32))
    y = Tensor((rng.uniform(size=(2, 1, 64, 64)) < 0.1).astype(np.float32))
    with Tape() as tape:
        loss = combined_loss_with_logits(y, net(x), LossWeights())
    backward(loss, tape)
    return [(p.name, p.data.copy(), p.grad.copy()) for p in net.parameters()]


class TestFlatOptimizerAgainstOracle:
    """The chunked flat passes against the per-parameter oracle, on a real
    gradient of the default lesion net: parameters and momentum must match
    byte for byte, the norm to its last bits."""

    def test_chunks_split_parameters_and_one_parameter_spans_several(self, net_state):
        sizes = [values.size for _, values, _ in net_state]
        starts = np.cumsum([0] + sizes[:-1])
        split = [s for s, n in zip(starts, sizes)
                 if (s // OPTIMIZER_CHUNK) != ((s + n - 1) // OPTIMIZER_CHUNK)]
        assert len(split) > 1
        assert max(sizes) > 2 * OPTIMIZER_CHUNK

    @pytest.mark.parametrize("clip", ["clipped", "unclipped", "disabled"])
    def test_two_steps_match_per_parameter_update(self, net_state, clip):
        rng = np.random.default_rng(5)
        momentum = [rng.standard_normal(v.shape).astype(np.float32) * 1e-3
                    for _, v, _ in net_state]
        oracle = [Parameter(v.copy(), name) for name, v, _ in net_state]
        flat = FlatParameters(Parameter(v.copy(), name) for name, v, _ in net_state)
        buffers = [m.copy() for m in momentum]
        velocity = np.concatenate([m.reshape(-1) for m in momentum])
        for step in range(2):
            for p, q, (_, _, g) in zip(oracle, flat.params, net_state):
                p.grad, q.grad = g * (step + 1), g * (step + 1)
            norm = clip_gradients_reference(oracle, 0.0)
            max_norm = {"clipped": norm / 3, "unclipped": 2 * norm, "disabled": 0.0}[clip]
            expected = clip_gradients_reference(oracle, max_norm)
            sgd_step_reference(oracle, buffers, 0.02, 0.9, 1e-4)
            assert clip_gradients(flat, max_norm) == pytest.approx(expected, rel=1e-12)
            sgd_step(flat, velocity, 0.02, 0.9, 1e-4)
            for p, q in zip(oracle, flat.params):
                assert q.data.tobytes() == p.data.tobytes(), p.name
                assert q.grad is None
            assert velocity.tobytes() == np.concatenate([b.reshape(-1) for b in buffers]).tobytes()


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

    def test_kink_log_gets_one_mask_per_relu_call_only_inside_grad_check(self, monkeypatch):
        relu, calls = ops.relu, []

        def spy(v):
            log = tensor._KINK_LOG
            before = None if log is None else len(log)
            out = relu(v)
            after = None if log is None else len(log)
            calls.append((log, before, after, v.data.copy()))
            return out

        monkeypatch.setattr(ops, "relu", spy)
        ops.relu(leaf([-1.0, 0.0, 2.0]))
        assert tensor._KINK_LOG is None and calls[0][0] is None
        calls.clear()
        x = np.random.default_rng(41).uniform(-1, 1, (2, 3, 4))
        grad_check(lambda v: ops.relu(ops.relu(v) - 0.25), leaf(x), samplewise=True)
        # the analytic pass runs outside the log
        assert [c[0] for c in calls[:2]] == [None, None]
        inside = calls[2:]
        assert inside and all(log is not None for log, *_ in inside)
        for log, before, after, v in inside:
            assert after == before + 1
            assert log[before].dtype == bool
            np.testing.assert_array_equal(log[before], v > 0)
        assert tensor._KINK_LOG is None

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

    @pytest.mark.parametrize("copies", [2, 8, GRAD_CHECK_COPIES])
    def test_report_equals_serial_at_every_copy_count(self, monkeypatch, copies):
        conv, x = self.kinked_conv()
        rng = np.random.default_rng(32)
        w, b = Tensor(rng.standard_normal((1, 3, 3, 3))), Tensor(rng.standard_normal(1))
        # (f, samplewise); x is (3, 2, 3, 5)
        checks = {
            "image": (conv, True),  # (N, 3, 3, 5)
            "one_channel": (lambda v: ops.conv2d(conv(v), w, b, 1, 1), True),  # (N, 1, 3, 5)
            "one_value": (lambda v: conv(v).sum(axis=(1, 2, 3)), True),  # (N,)
            "mixing": (lambda v: conv(v).sum(axis=0), False),  # (3, 3, 5)
        }
        serial = {name: grad_check(f, leaf(x)) for name, (f, _) in checks.items()}
        assert all(r.passed and r.kink_coords_skipped > 0 for r in serial.values())
        monkeypatch.setattr(tensor, "GRAD_CHECK_COPIES", copies)
        for name, (f, samplewise) in checks.items():
            assert grad_check(f, leaf(x), samplewise=samplewise) == serial[name], name

    def test_samplewise_rejects_output_without_batch_axis(self):
        calls = []

        def f(v):
            calls.append(v.shape)
            return v.sum()

        with pytest.raises(ValueError, match="samplewise f must keep axis 0"):
            grad_check(f, leaf(RNG.uniform(-1, 1, (2, 3))), samplewise=True)
        assert calls == [(2, 3)]  # the analytic pass only

    def test_samplewise_rejects_f_that_mixes_samples(self):
        x = leaf(RNG.uniform(-1, 1, (2, 3)))
        with pytest.raises(ValueError, match="stacked copies"):
            grad_check(lambda v: v.sum(axis=0), x, samplewise=True)

    def test_report_is_printable(self):
        report = GradCheckReport(1e-9, True, name="x")
        assert str(report) == ("x\t1.000e-09\tPASS\tworst_coord=-\tkink_coords_skipped=0"
                               "\tseconds=0.000")

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-4])
    def test_bad_tol_rejected(self, tol):
        calls = []
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            grad_check(lambda v: calls.append(v) or v, leaf(np.ones(3)), tol=tol)
        assert not calls


# ---------------------------------------------------------------------------
# grad_check on two CPUs.  A process forks only while it has no thread but
# its own, and tier-1's inference tests start a worker thread, so each fork
# case runs in a fresh interpreter: ``python -c`` imports this module and
# calls one ``fork_case_*`` function, which asserts what it checks.
# ---------------------------------------------------------------------------

def counting_forks(monkeypatch) -> list:
    """Wrap os.fork so that each call appends to the returned list."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def one_cpu(fn):
    """fn() with os.sched_getaffinity reporting one CPU."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return fn()


def kinked_checks():
    """(f, x, samplewise): conv(relu(x)) as a samplewise check of exactly
    GRAD_CHECK_FORK_CALLS calls, and as a one-copy check of 65 coordinates,
    whose cut rounds down to an even start; in each, every fourth coordinate
    from 1 on lies within h of relu's kink."""
    rng = np.random.default_rng(33)
    n = tensor.GRAD_CHECK_FORK_CALLS * GRAD_CHECK_COPIES // 2
    checks = []
    for shape, samplewise in (((n // 64, 2, 4, 8), True), ((1, 1, 5, 13), False)):
        w = Tensor(rng.standard_normal((3, shape[1], 3, 3)))
        b = Tensor(rng.standard_normal(3))
        x = rng.uniform(-1, 1, shape)
        near = x.reshape(-1)[1::4]  # not 32, whose pair the one-copy cut must keep whole
        near[:] = rng.uniform(-5e-6, 5e-6, near.size)
        checks.append((lambda v, w=w, b=b: ops.conv2d(ops.relu(v), w, b, 1, 1), x, samplewise))
    return checks


def fork_case_reports():
    assert threading.active_count() == 1 and len(os.sched_getaffinity(0)) >= 2
    forks = counting_forks(pytest.MonkeyPatch())
    for f, x, samplewise in kinked_checks():
        forked = grad_check(f, leaf(x), samplewise=samplewise)
        assert len(forks) == 1
        serial = one_cpu(lambda: grad_check(f, leaf(x), samplewise=samplewise))
        assert len(forks) == 1
        assert forked.passed and forked.kink_coords_skipped > 0
        assert forked == serial, (forked, serial)
        forks.clear()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raising_on(coords: range):
    """(f, x): a one-copy check of 64 coordinates whose f raises when it
    moves a coordinate in ``coords``."""
    x0 = np.random.default_rng(34).uniform(-1, 1, 64)

    def f(v):
        moved = np.flatnonzero(v.data != x0)
        if moved.size and moved[0] in coords:
            raise RuntimeError(f"moved coordinate {moved[0]}")
        return ops.relu(v)

    return f, x0


def error_of(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def fork_case_raises():
    assert threading.active_count() == 1 and len(os.sched_getaffinity(0)) >= 2
    forks = counting_forks(pytest.MonkeyPatch())
    # coordinates 32-63 are the child's half: the first f fails there only,
    # first at 40 on one CPU too; the second fails in the parent's half
    for coords, expected in ((range(40, 64), "moved coordinate 40"),
                             (range(0, 1), "moved coordinate 0")):
        f, x0 = raising_on(coords)
        serial = one_cpu(lambda: error_of(lambda: grad_check(f, leaf(x0))))
        assert serial == (RuntimeError, expected) and not forks
        assert error_of(lambda: grad_check(f, leaf(x0))) == serial
        assert len(forks) == 1
        forks.clear()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def run_fork_case(name: str) -> None:
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("grad_check forks only where the process may run on two CPUs")
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c",
                           f"import test_autodiff; test_autodiff.{name}()"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestGradCheckFork:
    def test_forked_reports_equal_one_cpu_reports(self):
        run_fork_case("fork_case_reports")

    def test_error_in_either_half_raises_as_serially_and_reaps_the_child(self):
        run_fork_case("fork_case_raises")

    def test_no_fork_with_a_second_thread(self, monkeypatch):
        forks = counting_forks(monkeypatch)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            for f, x, samplewise in kinked_checks():
                assert grad_check(f, leaf(x), samplewise=samplewise).passed
        finally:
            stop.set()
            other.join()
        assert forks == []

    def test_no_fork_on_one_cpu(self, monkeypatch):
        forks = counting_forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for f, x, samplewise in kinked_checks():
            assert grad_check(f, leaf(x), samplewise=samplewise).passed
        assert forks == []
