"""Composite segmentation loss (weighted binary cross entropy minus the log
of a soft Jaccard overlap) and the Dice evaluation metrics.

The loss comes in two forms.  :func:`combined_loss` takes probabilities and is
the reference definition.  :func:`combined_loss_with_logits` takes the
network's pre-sigmoid logits and is what training minimizes: its cross
entropy is a fused log-sigmoid, so a saturated pixel keeps a gradient of
order one instead of the ~1e-38 that flows back through a saturated sigmoid.
The two forms agree wherever CLAMP_DELTA <= p <= 1 - CLAMP_DELTA.

The differentiable pieces operate on :class:`~fednet.tensor.Tensor`; the Dice
metrics operate on plain binary numpy masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ops import flush_subnormals, sigmoid, stable_logistic
from .tensor import Tensor, as_tensor, check_dtypes, record

# Bounds probabilities away from 0 and 1 before the probability-form cross
# entropy takes logs.  It guards against log(0) and is not part of the loss:
# the logits form needs no guard.
CLAMP_DELTA = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """omega1 balances the two cross-entropy terms, omega2 scales the Jaccard
    term, epsilon guards the Jaccard denominator."""

    omega1: float = 0.5
    omega2: float = 1.0
    epsilon: float = 1e-15

    def __post_init__(self):
        if not 0.0 < self.omega1 < 1.0:
            raise ValueError(f"omega1 must lie in (0, 1), got {self.omega1}")
        # comparisons that NaN fails
        if not 0.0 <= self.omega2 < math.inf:
            raise ValueError(f"omega2 must be >= 0 and finite, got {self.omega2}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be > 0 and finite, got {self.epsilon}")


def _validate_pair(y: Tensor, y_hat: Tensor, op: str, probabilities: bool = True) -> None:
    if y.shape != y_hat.shape:
        raise ValueError(f"{op}: shape mismatch {tuple(y.shape)} vs {tuple(y_hat.shape)}")
    yd = y.data
    if not np.all((yd == 0) | (yd == 1)):
        raise ValueError(f"{op}: ground truth must be binary")
    pd = y_hat.data
    if probabilities and pd.size and (pd.min() < 0 or pd.max() > 1):
        raise ValueError(f"{op}: predictions must lie in [0, 1]")
    check_dtypes(op, y, y_hat)


def weighted_bce(y, y_hat, w: LossWeights = LossWeights()) -> Tensor:
    """Mean over elements of
    (omega1 - 1) * y * log(p) - omega1 * (1 - y) * log(1 - p),
    with p the prediction clamped to [CLAMP_DELTA, 1 - CLAMP_DELTA]."""
    y, y_hat = as_tensor(y), as_tensor(y_hat)
    _validate_pair(y, y_hat, "weighted_bce")
    p = y_hat.clamp(CLAMP_DELTA, 1.0 - CLAMP_DELTA)
    pos = y * p.log() * (w.omega1 - 1.0)
    negm = (1.0 - y) * (1.0 - p).log() * w.omega1
    return (pos - negm).mean()


def soft_jaccard(y, y_hat, epsilon: float = 1e-15) -> Tensor:
    """(sum(y*p) + eps) / (sum(y) + sum(p) - sum(y*p) + eps) over the whole
    pair; equals the set Jaccard index exactly when predictions are binary,
    and 1 when both sides are empty."""
    y, y_hat = as_tensor(y), as_tensor(y_hat)
    _validate_pair(y, y_hat, "soft_jaccard")
    return _jaccard(y, y_hat, epsilon)


def _jaccard(y: Tensor, y_hat: Tensor, epsilon: float) -> Tensor:
    """Soft-Jaccard ratio of a validated pair, summed over every element."""
    inter = (y * y_hat).sum()
    union = y.sum() + y_hat.sum() - inter
    return (inter + epsilon) / (union + epsilon)


def weighted_bce_with_logits(y, z, w: LossWeights = LossWeights()) -> Tensor:
    """:func:`weighted_bce` of ``sigmoid(z)`` computed from the logits z as
    one fused op: the mean over elements of
    (1 - omega1) * y * softplus(-z) + omega1 * (1 - y) * softplus(z).

    No clamp is needed.  The gradient per element, before the mean, is
    (1 - omega1) * y * (sigmoid(z) - 1) + omega1 * (1 - y) * sigmoid(z), so a
    pixel on the wrong side of a saturated logit keeps a gradient of order
    one.
    """
    y, z = as_tensor(y), as_tensor(z)
    _validate_pair(y, z, "weighted_bce_with_logits", probabilities=False)
    zd, yd = z.data, y.data
    e, prob = stable_logistic(zd)
    tail = np.log1p(e)
    neg_log_p = np.maximum(-zd, 0.0) + tail       # softplus(-z) = -log(sigmoid(z))
    neg_log_1mp = np.maximum(zd, 0.0) + tail      # softplus(z) = -log(1 - sigmoid(z))
    pos_w, neg_w = 1.0 - w.omega1, w.omega1
    terms = pos_w * yd * neg_log_p + neg_w * (1.0 - yd) * neg_log_1mp
    out = Tensor(terms.mean(dtype=zd.dtype))
    n = zd.size

    def backward_fn(g):
        # sigmoid(z) is subnormal in float32 for z < -87, and so is the
        # gradient of every background pixel there; flushed, it stops slowing
        # the convolutions it flows back through
        dz = pos_w * yd * (prob - 1.0) + neg_w * (1.0 - yd) * prob
        return None, flush_subnormals(g * dz / n)

    return record(out, (y, z), backward_fn)


def combined_loss(y, y_hat, w: LossWeights = LossWeights()) -> Tensor:
    """weighted_bce - omega2 * log(soft_jaccard), the Jaccard overlap pooled
    over the whole batch.

    Differentiable in the predictions and non-negative for omega1 in (0, 1),
    omega2 >= 0.  This is the reference form on probabilities; training uses
    :func:`combined_loss_with_logits`.  Its inputs are checked, and errors
    named, by :func:`weighted_bce`.
    """
    y, y_hat = as_tensor(y), as_tensor(y_hat)
    bce = weighted_bce(y, y_hat, w)
    return bce - _jaccard(y, y_hat, w.epsilon).log() * w.omega2


def combined_loss_with_logits(y, z, w: LossWeights = LossWeights()) -> Tensor:
    """:func:`combined_loss` of ``sigmoid(z)``, computed from the logits z.

    The cross entropy is :func:`weighted_bce_with_logits`; the Jaccard term
    takes ``sigmoid(z)`` from the same logits.  Equal to
    ``combined_loss(y, sigmoid(z), w)`` wherever every probability lies in
    [CLAMP_DELTA, 1 - CLAMP_DELTA]; outside that range it keeps the
    cross-entropy gradient that the clamp of the probability form cuts off.
    Its inputs are checked, and errors named, by :func:`weighted_bce_with_logits`.
    """
    y, z = as_tensor(y), as_tensor(z)
    bce = weighted_bce_with_logits(y, z, w)
    return bce - _jaccard(y, sigmoid(z), w.epsilon).log() * w.omega2


# ---------------------------------------------------------------------------
# Dice metrics on binary numpy masks
# ---------------------------------------------------------------------------


def _pooled_dice(op: str, cases) -> float:
    """2 * sum |a & b| / sum (|a| + |b|) over the (a, b) mask pairs of
    ``cases``; 1.0 when every mask is empty."""
    inter = total = 0
    for a, b in cases:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")
        a, b = a.astype(bool), b.astype(bool)
        inter += int(np.logical_and(a, b).sum())
        total += int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * inter / total


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|a & b| / (|a| + |b|); defined as 1.0 when both masks are empty."""
    return _pooled_dice("dice", [(a, b)])


def dice_per_case(cases: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Unweighted mean of per-volume Dice scores."""
    if not cases:
        raise ValueError("dice_per_case: need at least one case")
    return float(np.mean([dice(a, b) for a, b in cases]))


def dice_global(cases: Sequence[tuple[np.ndarray, np.ndarray]]) -> float:
    """Dice on voxel counts pooled across all cases."""
    if not cases:
        raise ValueError("dice_global: need at least one case")
    return _pooled_dice("dice_global", cases)
