"""Composite loss semantics against scalar evaluation, plus Dice metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fednet.losses import (CLAMP_DELTA, LossWeights, combined_loss, combined_loss_with_logits,
                           dice, dice_global, dice_per_case, soft_jaccard, weighted_bce)
from fednet.ops import sigmoid
from fednet.tensor import Tape, Tensor, backward, grad_check

RNG = np.random.default_rng(77)


def pair(y, y_hat):
    return Tensor(np.asarray(y, dtype=np.float64)), Tensor(np.asarray(y_hat, dtype=np.float64))


def bce_scalar(y, p, w):
    """Direct per-element evaluation of the weighted cross entropy."""
    terms = []
    for yi, pi in zip(np.ravel(y), np.ravel(p)):
        pc = min(max(pi, CLAMP_DELTA), 1.0 - CLAMP_DELTA)
        terms.append((w.omega1 - 1.0) * yi * math.log(pc)
                     - w.omega1 * (1.0 - yi) * math.log(1.0 - pc))
    return sum(terms) / len(terms)


def jaccard_scalar(y, p, eps):
    inter = float(np.sum(np.asarray(y) * np.asarray(p)))
    union = float(np.sum(y)) + float(np.sum(p)) - inter
    return (inter + eps) / (union + eps)


class TestLossWeights:
    def test_defaults_valid(self):
        w = LossWeights()
        assert w.omega1 == 0.5 and w.omega2 == 1.0
        assert w.epsilon == 1e-15 and CLAMP_DELTA == 1e-7

    @pytest.mark.parametrize("kwargs", [
        dict(omega1=0.0), dict(omega1=1.0), dict(omega2=-0.1),
        dict(epsilon=0.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LossWeights(**kwargs)


class TestWeightedBce:
    def test_perfect_positive_prediction_near_zero(self):
        w = LossWeights()
        y, p = pair(np.ones(8), np.ones(8))
        v = weighted_bce(y, p, w).item()
        assert 0.0 <= v <= (1.0 - w.omega1) * abs(math.log(1.0 - CLAMP_DELTA)) + 1e-12

    def test_half_confidence_anchor(self):
        y, p = pair([1.0], [0.5])
        v = weighted_bce(y, p, LossWeights(omega1=0.5)).item()
        assert v == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_perfect_negative_prediction_near_zero(self):
        y, p = pair(np.zeros(5), np.zeros(5))
        assert weighted_bce(y, p).item() == pytest.approx(0.0, abs=1e-6)

    def test_matches_scalar_evaluation(self):
        w = LossWeights(omega1=0.3)
        y = (RNG.uniform(size=12) > 0.5).astype(float)
        p = RNG.uniform(0.01, 0.99, size=12)
        got = weighted_bce(*pair(y, p), w).item()
        assert got == pytest.approx(bce_scalar(y, p, w), abs=1e-12)

    def test_nonbinary_truth_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            weighted_bce(*pair([0.5], [0.5]))

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            weighted_bce(*pair([1.0], [1.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            weighted_bce(*pair([1.0, 0.0], [[0.5]]))


class TestSoftJaccard:
    def test_binary_equal_is_one(self):
        y = (RNG.uniform(size=9) > 0.4).astype(float)
        assert soft_jaccard(*pair(y, y)).item() == pytest.approx(1.0, abs=1e-12)

    def test_empty_vs_empty_is_one(self):
        assert soft_jaccard(*pair(np.zeros(4), np.zeros(4))).item() == 1.0

    def test_half_overlap_anchor(self):
        v = soft_jaccard(*pair([1.0, 0.0], [0.5, 0.5])).item()
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_scalar_evaluation(self):
        y = (RNG.uniform(size=20) > 0.6).astype(float)
        p = RNG.uniform(size=20)
        got = soft_jaccard(*pair(y, p), 1e-15).item()
        assert got == pytest.approx(jaccard_scalar(y, p, 1e-15), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.int8, st.integers(1, 24), elements=st.integers(0, 1)),
           arrays(np.int8, st.integers(1, 24), elements=st.integers(0, 1)))
    def test_binary_predictions_equal_set_jaccard(self, y, p):
        if y.shape != p.shape:
            p = np.resize(p, y.shape)
        inter = int(np.sum((y == 1) & (p == 1)))
        union = int(np.sum((y == 1) | (p == 1)))
        expected = 1.0 if union == 0 else inter / union
        got = soft_jaccard(*pair(y.astype(float), p.astype(float))).item()
        assert got == pytest.approx(expected, abs=1e-9)


class TestCombinedLoss:
    def test_single_pixel_anchor(self):
        v = combined_loss(*pair([1.0], [0.5]), LossWeights(omega1=0.5, omega2=1.0)).item()
        assert v == pytest.approx(0.5 * math.log(2.0) + math.log(2.0), abs=1e-6)
        assert v == pytest.approx(1.039721, abs=1e-6)

    def test_perfect_binary_prediction_near_zero(self):
        y = (RNG.uniform(size=(2, 1, 4, 4)) > 0.7).astype(float)
        v = combined_loss(*pair(y, y)).item()
        assert 0.0 <= v <= 1e-5

    def test_gradient_matches_finite_differences(self):
        y = Tensor((RNG.uniform(size=(2, 1, 3, 3)) > 0.5).astype(np.float64))
        p = Tensor(RNG.uniform(0.05, 0.95, size=(2, 1, 3, 3)), requires_grad=True)
        assert grad_check(lambda v: combined_loss(y, v), p, tol=1e-4).passed

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(0.05, 0.95), st.floats(0.0, 3.0))
    def test_nonnegative_on_random_pairs(self, seed, omega1, omega2):
        rng = np.random.default_rng(seed)
        y = (rng.uniform(size=(1, 1, 3, 3)) > rng.uniform()).astype(float)
        p = rng.uniform(0.0, 1.0, size=(1, 1, 3, 3))
        w = LossWeights(omega1=omega1, omega2=omega2)
        assert combined_loss(*pair(y, p), w).item() >= 0.0

    def test_monotone_in_predictions(self):
        # raising a positive pixel's prediction must not increase the loss;
        # raising a negative pixel's must not decrease it
        rng = np.random.default_rng(5)
        y = (rng.uniform(size=(1, 1, 3, 3)) > 0.5).astype(float)
        p = rng.uniform(0.2, 0.8, size=(1, 1, 3, 3))
        base = combined_loss(*pair(y, p)).item()
        h = 1e-6
        for idx in np.ndindex(y.shape):
            bumped = p.copy()
            bumped[idx] += h
            delta = combined_loss(*pair(y, bumped)).item() - base
            if y[idx] == 1.0:
                assert delta <= 1e-12
            else:
                assert delta >= -1e-12


class TestCombinedLossWithLogits:
    def test_equals_probability_form_inside_clamp(self):
        w = LossWeights(omega1=0.3, omega2=1.5)
        rng = np.random.default_rng(11)
        y = Tensor((rng.uniform(size=(3, 1, 4, 5)) > 0.6).astype(np.float64))
        z = Tensor(rng.uniform(-8.0, 8.0, size=y.shape))
        p = sigmoid(z)
        assert np.all((p.data >= CLAMP_DELTA) & (p.data <= 1.0 - CLAMP_DELTA))
        got = combined_loss_with_logits(y, z, w).item()
        want = combined_loss(y, p, w).item()
        assert got == pytest.approx(want, abs=1e-12)

    def test_saturated_positive_pixel_keeps_gradient(self):
        w = LossWeights()
        y = Tensor(np.array([1.0, 0.0, 1.0, 0.0]).reshape(1, 1, 2, 2))
        z0 = np.array([-200.0, -1.0, 0.5, 0.3]).reshape(1, 1, 2, 2)
        n = z0.size

        def grad_of(loss_fn):
            z = Tensor(z0.copy(), requires_grad=True)
            with Tape() as tape:
                loss = loss_fn(z)
            backward(loss, tape)
            return z.grad[0, 0, 0, 0]

        from_logits = grad_of(lambda z: combined_loss_with_logits(y, z, w))
        from_probs = grad_of(lambda z: combined_loss(y, sigmoid(z), w))
        # raising the logit of a missed positive pixel must lower the loss
        assert from_logits <= -(1.0 - w.omega1) / n
        assert abs(from_probs) < 1e-30

    def test_float32_gradient_has_no_subnormal(self):
        # sigmoid(-95) is subnormal in float32, and so would be the gradient
        # of each background pixel
        y = Tensor(np.zeros((2, 1, 4, 4), dtype=np.float32))
        y.data[0, 0, 0, 0] = 1.0
        z = Tensor(np.full(y.shape, -95.0, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            loss = combined_loss_with_logits(y, z, LossWeights())
        backward(loss, tape)
        tiny = np.finfo(np.float32).tiny
        assert z.grad.dtype == np.float32
        assert not np.any((z.grad != 0) & (np.abs(z.grad) < tiny))
        assert z.grad[0, 0, 0, 0] < 0  # the missed positive pixel keeps its gradient

    def test_nonbinary_truth_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            combined_loss_with_logits(*pair([0.5], [3.0]))

    def test_logits_outside_unit_interval_accepted(self):
        assert math.isfinite(combined_loss_with_logits(*pair([1.0, 0.0], [-50.0, 50.0])).item())

    def test_mixed_precision_rejected(self):
        y = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(TypeError, match="mixed precision"):
            combined_loss_with_logits(y, Tensor(np.zeros((1, 1, 2, 2))))


class TestDice:
    def test_equal_nonempty_is_one(self):
        m = (RNG.uniform(size=(3, 3, 3)) > 0.5).astype(np.uint8)
        m[0, 0, 0] = 1
        assert dice(m, m) == 1.0

    def test_disjoint_nonempty_is_zero(self):
        a = np.array([1, 0, 0], dtype=np.uint8)
        b = np.array([0, 1, 1], dtype=np.uint8)
        assert dice(a, b) == 0.0

    def test_partial_overlap_closed_form(self):
        a = np.array([1, 1, 0, 0], dtype=np.uint8)
        b = np.array([1, 0, 1, 0], dtype=np.uint8)
        assert dice(a, b) == 0.5

    def test_both_empty_is_one(self):
        assert dice(np.zeros(4), np.zeros(4)) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^dice: shape mismatch"):
            dice(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError, match="^dice_global: shape mismatch"):
            dice_global([(np.zeros(3), np.zeros(3)), (np.zeros(3), np.zeros(4))])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = (rng.uniform(size=12) > 0.5).astype(np.uint8)
        b = (rng.uniform(size=12) > 0.5).astype(np.uint8)
        assert dice(a, b) == dice(b, a)


class TestDiceAggregation:
    def test_single_case_passthrough(self):
        a = np.array([1, 1, 0], dtype=np.uint8)
        b = np.array([1, 0, 0], dtype=np.uint8)
        assert dice_per_case([(a, b)]) == dice(a, b)
        assert dice_global([(a, b)]) == dice(a, b)

    def test_mean_of_perfect_and_disjoint(self):
        ones = np.ones(4, dtype=np.uint8)
        zeros = np.zeros(4, dtype=np.uint8)
        cases = [(ones, ones), (ones, zeros)]
        assert dice_per_case(cases) == 0.5

    def test_global_pooling_with_empty_case(self):
        empty = np.zeros(5, dtype=np.uint8)
        a = np.array([1, 1, 0, 0, 0], dtype=np.uint8)
        b = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
        assert dice_global([(empty, empty), (a, b)]) == dice(a, b)

    def test_empty_case_list_rejected(self):
        with pytest.raises(ValueError):
            dice_per_case([])
        with pytest.raises(ValueError):
            dice_global([])

    def test_matches_independent_recomputation(self):
        cases = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            cases.append(((rng.uniform(size=30) > 0.6).astype(np.uint8),
                          (rng.uniform(size=30) > 0.6).astype(np.uint8)))
        per_case = sum(2.0 * np.sum(a & b) / max(np.sum(a) + np.sum(b), 1)
                       if (np.sum(a) + np.sum(b)) else 1.0
                       for a, b in cases) / len(cases)
        inter = sum(int(np.sum(a & b)) for a, b in cases)
        total = sum(int(np.sum(a)) + int(np.sum(b)) for a, b in cases)
        assert dice_per_case(cases) == pytest.approx(per_case, abs=1e-12)
        assert dice_global(cases) == pytest.approx(2.0 * inter / total, abs=1e-12)
