"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

Two precisions are supported: float32 for training and float64 for
verification (finite-difference gradient checks are meaningless at float32).
All tensors participating in one graph must share a dtype; ops raise on a mix.
A tensor takes the precision of its data (other numeric data becomes float64);
network parameters are float32 unless ``Block.astype`` converts them.

Differentiable ops record onto a ``Tape`` (an execution-ordered list of
operations) when one is active.  With no tape active, the same calls are plain
forward evaluation with no recording overhead.  Gradients accumulate by
summation over all paths from the root; leaf tensors keep their accumulated
gradient in ``Tensor.grad``.  A network parameter is such a leaf: a
:class:`Parameter` is a named tensor that carries its SGD momentum buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)


class Tensor:
    """N-dimensional array with optional participation in gradient recording.

    ``data`` is row-major with the last axis fastest; images use [N, C, H, W]
    axis order.  Tensors are treated as immutable once produced by an op.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in SUPPORTED_DTYPES:
            if np.issubdtype(arr.dtype, np.number) or arr.dtype == np.bool_:
                arr = arr.astype(np.float64)
            else:
                raise TypeError(f"unsupported tensor dtype {arr.dtype}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- arithmetic (same-shape tensor or python scalar operands only) --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return rsub(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None) -> "Tensor":
        return tensor_sum(self, axis)

    def mean(self) -> "Tensor":
        return tensor_mean(self)

    def log(self) -> "Tensor":
        return log(self)

    def clamp(self, lo: float, hi: float) -> "Tensor":
        return clamp(self, lo, hi)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------


class TapeEntry:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self.out = out
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of differentiable ops.

    Entries are appended in forward-execution order, which is a topological
    order of the graph.  A tape supports a single backward pass.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")
        return False

    def __len__(self) -> int:
        return len(self.entries)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Finish an op: propagate requires_grad and record onto the active tape.

    ``backward_fn(grad_out)`` must return one gradient array (or None) per
    input, in order.  Returned arrays may be views, read-only ones or the
    same array for two inputs: the backward pass never writes to them.  It
    never copies them either, except into a leaf's ``.grad``, so
    ``backward_fn`` must not write to ``grad_out``.
    """
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.entries.append(TapeEntry(out, inputs, backward_fn))
    return out


def backward(root: Tensor, tape: Tape) -> None:
    """Reverse-mode pass: fills ``grad`` on every leaf reachable from ``root``.

    ``root`` must be a scalar produced through ``tape``.  Gradients sum over
    all paths, out of place, and each leaf gets its own copy in ``grad``.  A
    tape can be walked once: each entry is popped as it is walked, so the
    activations and buffers its backward function holds are freed during
    the walk, and the tape is empty afterwards.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {tuple(root.shape)}")
    if tape._consumed:
        raise RuntimeError("tape already consumed by a previous backward pass")
    produced = {id(e.out) for e in tape.entries}
    if id(root) not in produced:
        raise ValueError("root was not produced on this tape (detached root)")
    tape._consumed = True

    # id -> [tensor, accumulated gradient], kept as backward_fn returned it:
    # it may be read-only or shared with another input (see record)
    pending: dict[int, list] = {id(root): [root, np.ones_like(root.data)]}
    entries = tape.entries
    while entries:
        entry = entries.pop()
        slot = pending.pop(id(entry.out), None)
        if slot is None:
            continue
        grads_in = entry.backward_fn(slot[1])
        if len(grads_in) != len(entry.inputs):
            raise RuntimeError("backward_fn returned wrong number of gradients")
        for t, g in zip(entry.inputs, grads_in):
            if g is None or not t.requires_grad:
                continue
            acc = pending.get(id(t))
            if acc is None:
                pending[id(t)] = [t, g]
            else:
                acc[1] = acc[1] + g
    # Whatever is left was never an op output on this tape: the leaves.
    for t, g in pending.values():
        t.grad = np.array(g, dtype=t.data.dtype) if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# Elementwise arithmetic and reductions
# ---------------------------------------------------------------------------


def check_dtypes(op: str, *tensors: Tensor) -> None:
    """TypeError naming ``op`` unless each tensor has the first's dtype."""
    dtype = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dtype:
            raise TypeError(f"{op}: mixed precision {dtype} vs {t.data.dtype}")


def _check_binary(a: Tensor, b: Tensor, op: str) -> None:
    check_dtypes(op, a, b)
    if a.shape != b.shape:
        for axis, (ea, eb) in enumerate(zip(a.shape, b.shape)):
            if ea != eb:
                raise ValueError(f"{op}: shape mismatch at axis {axis}: {ea} vs {eb}")
        raise ValueError(f"{op}: rank mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_binary(a, b, "add")
        out = Tensor(a.data + b.data)
        return record(out, (a, b), lambda g: (g, g))
    c = float(b)
    out = Tensor(a.data + c)
    return record(out, (a,), lambda g: (g,))


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_binary(a, b, "sub")
        out = Tensor(a.data - b.data)
        return record(out, (a, b), lambda g: (g, -g))
    c = float(b)
    out = Tensor(a.data - c)
    return record(out, (a,), lambda g: (g,))


def rsub(a: Tensor, scalar) -> Tensor:
    c = float(scalar)
    out = Tensor(c - a.data)
    return record(out, (a,), lambda g: (-g,))


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return record(out, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_binary(a, b, "mul")
        out = Tensor(a.data * b.data)
        return record(out, (a, b), lambda g: (g * b.data, g * a.data))
    c = float(b)
    out = Tensor(a.data * c)
    return record(out, (a,), lambda g: (g * c,))


def div(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        _check_binary(a, b, "div")
        out = Tensor(a.data / b.data)

        def backward_fn(g):
            return g / b.data, -g * a.data / (b.data * b.data)

        return record(out, (a, b), backward_fn)
    c = float(b)
    out = Tensor(a.data / c)
    return record(out, (a,), lambda g: (g / c,))


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return record(out, (a,), lambda g: (g / a.data,))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    if not lo < hi:
        raise ValueError(f"clamp: lo {lo} must be < hi {hi}")
    out = Tensor(np.clip(a.data, lo, hi))
    mask = (a.data >= lo) & (a.data <= hi)
    return record(out, (a,), lambda g: (g * mask,))


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        axis = range(a.ndim)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    out = Tensor(a.data.sum(axis=axes, dtype=a.data.dtype))
    shape = a.shape

    def backward_fn(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape),)

    return record(out, (a,), backward_fn)


def tensor_mean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean(dtype=a.data.dtype))
    shape = a.shape
    return record(out, (a,), lambda g: (np.broadcast_to(g / n, shape),))


# ---------------------------------------------------------------------------
# Parameters and SGD
# ---------------------------------------------------------------------------


class Parameter(Tensor):
    """Named trainable leaf tensor that carries its SGD momentum buffer."""

    __slots__ = ("name", "momentum")

    def __init__(self, array: np.ndarray, name: str = ""):
        super().__init__(array, requires_grad=True)
        self.name = name
        # np.zeros takes untouched zero pages, so a momentum buffer that a
        # checkpoint overwrites next is written once (zeros_like writes it twice)
        self.momentum = np.zeros(self.data.shape, self.data.dtype)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={tuple(self.shape)})"


def clip_gradients(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    returns the pre-clip norm.  A non-positive ``max_norm`` disables clipping;
    a NaN one is rejected."""
    if np.isnan(max_norm):
        raise ValueError(f"max_norm must not be NaN, got {max_norm}")
    params = list(params)
    total = 0.0
    for p in params:
        g = p.grad
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    total = total ** 0.5
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad *= p.grad.dtype.type(scale)
    return total


def sgd_step(params: Iterable[Parameter], lr: float, momentum: float = 0.9,
             weight_decay: float = 1e-4) -> None:
    """One SGD-with-momentum update, then gradients are zeroed.

    buf <- momentum * buf + (grad + weight_decay * data)
    data <- data - lr * buf
    """
    # a comparison that NaN fails
    if not 0 < lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    params = list(params)
    # every gradient is checked before any parameter is written
    for p in params:
        if p.grad is None:
            raise RuntimeError(f"parameter {p.name!r} has no gradient; run backward first")
    for p in params:
        p.momentum *= momentum
        p.momentum += p.grad + weight_decay * p.data
        p.data -= lr * p.momentum
        p.grad = None


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

# When set to a list, ops with non-smooth points (relu) append their boolean
# active-set mask here on every forward call.  grad_check uses this to detect
# finite-difference windows that straddle a kink, where the central-difference
# quotient converges to the average of the two one-sided slopes instead of the
# derivative and is therefore not a valid estimate.
_KINK_LOG: Optional[list] = None

# Perturbed copies of the input that grad_check stacks into one call of a
# samplewise ``f``.  Even, so the +h and -h copies of a coordinate share a
# call.  Measured with benchmark/run.py on the gradient-check suite (2-vCPU
# Xeon, one BLAS thread, two runs each), against 15.5-16.9 s and 44.1-44.3 MB
# peak RSS at one copy per call: 8 copies 3.3-3.5 s and +2.0-2.6% RSS,
# 10 copies 2.9-3.0 s and +3.5-3.6%, 12 copies 2.8-2.9 s and +4.3-4.9%,
# 16 copies 2.4-2.6 s and +6.4-7.0%.  The count must keep the RSS cost
# clearly under 5%.  8 does; 10 does too, with bit-identical reports, and is
# the next count to try.
GRAD_CHECK_COPIES = 8


def log_kink_pattern(mask: np.ndarray) -> None:
    if _KINK_LOG is not None:
        _KINK_LOG.append(mask)


def _stacked(shape: tuple, copies: int) -> tuple:
    """Shape of ``copies`` arrays of ``shape`` stacked along axis 0."""
    return shape if copies == 1 else (copies * shape[0],) + shape[1:]


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    worst_coord: Optional[tuple] = None
    message: str = ""
    kink_coords_skipped: int = 0

    def __str__(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        extra = f" ({self.message})" if self.message else ""
        if self.kink_coords_skipped:
            extra += f" [{self.kink_coords_skipped} kink-straddling coords excluded]"
        return f"{state} max_rel_err={self.max_rel_err:.3e}{extra}"


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, tol: float = 1e-4,
               samplewise: bool = False) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` maps a float64 tensor to a tensor of any shape; internally the
    output is reduced by a fixed random linear functional so permutation and
    scaling errors cannot cancel.  Per coordinate i the step is
    h = 1e-5 * max(1, |x_i|) and the error metric is
    |a - n| / max(1e-8, |a| + |n|), reported as its maximum.

    The weights are scaled so the reduced value is O(1e-2): finite differences
    of a large sum drown small-gradient coordinates in floating-point
    roundoff, while after scaling those coordinates fall under the 1e-8
    denominator floor where the roundoff noise sits far below tolerance.

    Coordinates whose +h/-h evaluations disagree on some relu active set are
    excluded from the comparison (and counted in the report): across a kink
    the difference quotient measures a slope average, not the derivative.
    The check fails if every coordinate is excluded.

    ``samplewise=True`` declares that ``f`` treats the entries of axis 0
    independently: ``f`` of K inputs stacked along axis 0 is the K outputs
    stacked along axis 0, and every relu it applies sees axis 0 first.  Then
    ``GRAD_CHECK_COPIES`` perturbed copies of ``x`` go through one call of
    ``f``, and each copy's value and relu masks are read from its own slice,
    so the report is the one-copy-per-call report.  Bit for bit, that holds
    where each sample's arithmetic does not depend on the batch size, as in
    every forward op of :mod:`fednet.ops` (``ops.dense`` computes each row
    as its own 1-row product for this reason).
    """
    global _KINK_LOG
    if x.data.dtype != np.float64:
        raise ValueError("grad_check requires float64 tensors (verification precision)")
    if samplewise and x.data.ndim == 0:
        raise ValueError("samplewise grad_check needs an input with a batch axis")
    x.requires_grad = True
    x.grad = None

    with Tape() as tape:
        y = f(x)
        weights = np.random.default_rng(2024).uniform(0.5, 1.5, size=y.shape)
        weights /= 100.0 * y.size
        s = (y * Tensor(weights)).sum()
    backward(s, tape)
    if x.grad is None:
        return GradCheckReport(np.inf, False, None, "no gradient reached the input")
    analytic = x.grad.copy()

    # Copy c is x with coordinate c // 2 moved by +h (c even) or -h (c odd);
    # calls of f take `copies` consecutive copies.
    flat_x = x.data.reshape(-1)
    n = flat_x.size
    steps = 1e-5 * np.maximum(1.0, np.abs(flat_x))
    copies = GRAD_CHECK_COPIES if samplewise else 1
    values = np.empty(2 * n)
    valid = np.ones(n, dtype=bool)
    up_layout: tuple = ()
    up_row = None
    for start in range(0, 2 * n, copies):
        k = min(copies, 2 * n - start)
        batch = np.repeat(x.data[None], k, axis=0)
        flat_b = batch.reshape(k, n)
        for j in range(k):
            i, down = divmod(start + j, 2)
            flat_b[j, i] = flat_x[i] - steps[i] if down else flat_x[i] + steps[i]
        _KINK_LOG = []
        try:
            out = f(Tensor(batch.reshape(_stacked(x.shape, k)))).data
            masks = _KINK_LOG
        finally:
            _KINK_LOG = None
        if out.shape != _stacked(y.shape, k):
            raise ValueError(f"f gave shape {out.shape} for {k} stacked copies of x; "
                             f"expected {_stacked(y.shape, k)}")
        out = out.reshape((k,) + y.shape)
        # Row j holds copy j's relu masks end to end; the layout (each mask's
        # length, so also their count) tells rows of equal length apart.
        layout = tuple(m.size // k for m in masks)
        rows = np.concatenate([m.reshape(k, -1) for m in masks] or [np.empty((k, 0), bool)],
                              axis=1)
        for j in range(k):
            c = start + j
            values[c] = float(np.sum(out[j] * weights))
            if c % 2 == 0:
                up_layout, up_row = layout, rows[j]
            elif up_layout != layout or (up_row != rows[j]).any():
                valid[c // 2] = False
    flat_n = (values[0::2] - values[1::2]) / (2.0 * steps)

    skipped = int((~valid).sum())
    if not valid.any():
        return GradCheckReport(np.inf, False, None,
                               "every coordinate straddles a kink", skipped)
    a_flat = analytic.reshape(-1)[valid]
    n_flat = flat_n[valid]
    finite = np.isfinite(a_flat) & np.isfinite(n_flat)
    if not finite.all():
        bad_flat = int(np.flatnonzero(valid)[int(np.argmin(finite))])
        coord = tuple(int(v) for v in np.unravel_index(bad_flat, x.data.shape))
        return GradCheckReport(np.inf, False, coord,
                               f"non-finite gradient at {coord}", skipped)

    rel = np.abs(a_flat - n_flat) / np.maximum(1e-8, np.abs(a_flat) + np.abs(n_flat))
    worst_valid = int(np.argmax(rel))
    worst_flat = int(np.flatnonzero(valid)[worst_valid])
    worst = tuple(int(v) for v in np.unravel_index(worst_flat, x.data.shape))
    max_rel = float(rel.max())
    return GradCheckReport(max_rel, max_rel <= tol, worst, "", skipped)
