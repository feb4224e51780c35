"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

Two precisions are supported: float32 for training and float64 for
verification (finite-difference gradient checks are meaningless at float32).
All tensors participating in one graph must share a dtype; ops raise on a mix.
A tensor takes the precision of its data (other numeric data becomes float64);
network parameters are float32 unless ``Block.astype`` converts them.

Differentiable ops record onto a ``Tape`` (an execution-ordered list of
operations) when one is active on the thread that runs them.  With no tape
active, the same calls are plain forward evaluation with no recording
overhead.  Gradients accumulate by summation over all paths from the root;
leaf tensors keep their accumulated gradient in ``Tensor.grad``.  A network
parameter is such a leaf: a :class:`Parameter` is a named tensor; optimizer
state belongs to the caller.

The optimizer works on one flat array: :class:`FlatParameters` moves a
list of parameters' values into it, leaving each ``data`` a view there, and
:func:`clip_gradients` and :func:`sgd_step` are passes over it and the
caller's flat momentum buffer in chunks that fit in cache, each chunk of
the per-parameter gradients gathered as the pass reaches it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)
_FLOAT32, _FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)


class Tensor:
    """N-dimensional array with optional participation in gradient recording.

    ``data`` is row-major with the last axis fastest; images use [N, C, H, W]
    axis order.  Tensors are treated as immutable once produced by an op.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # an op's output, a float32 or float64 ndarray, is taken as it is
        if type(data) is not np.ndarray or (
                (dtype := data.dtype) is not _FLOAT32 and dtype is not _FLOAT64):
            data = np.asarray(data)
            if data.dtype not in SUPPORTED_DTYPES:
                if np.issubdtype(data.dtype, np.number) or data.dtype == np.bool_:
                    data = data.astype(np.float64)
                else:
                    raise TypeError(f"unsupported tensor dtype {data.dtype}")
        self.data = data
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
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")
        return False

    def __len__(self) -> int:
        return len(self.entries)


class _TapeStack(threading.local):
    """The open tapes of one thread, innermost last: an op records onto the
    innermost tape of the thread that runs it, never onto another thread's."""

    def __init__(self):
        self.tapes: list[Tape] = []


_TAPE_STACK = _TapeStack()


def active_tape() -> Optional[Tape]:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Finish an op: propagate requires_grad and record onto the active tape.

    ``backward_fn(grad_out)`` must return one gradient array (or None) per
    input, in order.  Returned arrays may be views, read-only ones or the
    same array for two inputs: the backward pass never writes to them.  It
    never copies them either, except into a leaf's ``.grad``, so
    ``backward_fn`` must not write to ``grad_out``.
    """
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            tape = active_tape()
            if tape is not None:
                tape.entries.append(TapeEntry(out, inputs, backward_fn))
            return out
    out.requires_grad = False
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
    """Named trainable leaf tensor."""

    __slots__ = ("name",)

    def __init__(self, array: np.ndarray, name: str = ""):
        super().__init__(array, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={tuple(self.shape)})"


# Values per chunk of the optimizer's passes: a chunk of each operand and of
# the scratch stays in cache.  Clipping and one update of the default lesion
# net (1,063,299 values; 2-vCPU Xeon, one BLAS thread) took 3.6 ms at 32K,
# 2.7 ms at 64K and 3.1 ms at 128K.
OPTIMIZER_CHUNK = 1 << 16


class FlatParameters:
    """Parameters whose values live in one flat array, ``values``.

    Building it moves each parameter's values, in order, into ``values``
    and makes its ``data`` a view there, so writing ``values`` writes the
    parameters.  Gradients stay per parameter, as :func:`backward` leaves
    them; :meth:`gradient_chunks` gathers them in the same layout, one
    chunk at a time.
    """

    __slots__ = ("params", "values")

    def __init__(self, params: Iterable[Parameter]):
        self.params = list(params)
        if not self.params:
            raise ValueError("FlatParameters needs at least one parameter")
        check_dtypes("FlatParameters", *self.params)
        self.values = np.empty(sum(p.size for p in self.params), self.params[0].dtype)
        offset = 0
        for p in self.params:
            view = self.values[offset:offset + p.size].reshape(p.shape)
            view[...] = p.data
            p.data = view
            offset += p.size

    def gradient_chunks(self, scratch: np.ndarray) -> Iterator[np.ndarray]:
        """The gradients end to end, copied into ``scratch`` (in its dtype)
        one chunk of ``scratch.size`` values at a time, so chunk k lines up
        with ``values[k * scratch.size:]``; the last may be shorter.  Every
        parameter must have a gradient, which is checked first."""
        for p in self.params:
            if p.grad is None:
                raise RuntimeError(f"parameter {p.name!r} has no gradient; run backward first")
        return self._chunks(scratch)

    def _chunks(self, scratch: np.ndarray) -> Iterator[np.ndarray]:
        fill = 0
        for p in self.params:
            grad = p.grad.reshape(-1)
            start = 0
            while start < grad.size:
                n = min(grad.size - start, scratch.size - fill)
                scratch[fill:fill + n] = grad[start:start + n]
                fill += n
                start += n
                if fill == scratch.size:
                    yield scratch
                    fill = 0
        if fill:
            yield scratch[:fill]


def clip_gradients(flat: FlatParameters, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    returns the pre-clip norm.  A non-positive ``max_norm`` disables
    clipping; a NaN one is rejected.

    The norm sums float64 squares with BLAS ``ddot``, one chunk of
    OPTIMIZER_CHUNK values at a time: exactly 0.0 for all-zero gradients,
    NaN when one holds a NaN."""
    if np.isnan(max_norm):
        raise ValueError(f"max_norm must not be NaN, got {max_norm}")
    total = 0.0
    for chunk in flat.gradient_chunks(np.empty(OPTIMIZER_CHUNK)):
        total += float(np.dot(chunk, chunk))
    total = total ** 0.5
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in flat.params:
            p.grad *= p.grad.dtype.type(scale)
    return total


def sgd_step(flat: FlatParameters, velocity: np.ndarray, lr: float, momentum: float,
             weight_decay: float) -> None:
    """One SGD-with-momentum update of ``flat``'s values, then its gradients
    are released.  ``velocity`` is the caller's momentum buffer, one flat
    array like ``flat.values``.  Elementwise, in this operand order:

    buf <- momentum * buf + (grad + weight_decay * data);  data <- data - lr * buf

    One pass over the values, OPTIMIZER_CHUNK at a time, with two chunks
    of scratch; every argument is checked before anything is written.
    """
    # a comparison that NaN fails
    if not 0 < lr < np.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not 0 <= momentum < 1:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
    if not 0 <= weight_decay < np.inf:
        raise ValueError(f"weight_decay must be >= 0 and finite, got {weight_decay}")
    values = flat.values
    if velocity.shape != values.shape or velocity.dtype != values.dtype:
        raise ValueError(f"{velocity.size} velocity values ({velocity.dtype}, shape "
                         f"{velocity.shape}) for {values.size} parameter values "
                         f"({values.dtype}, shape {values.shape})")
    tmp = np.empty(OPTIMIZER_CHUNK, values.dtype)
    start = 0
    for grad in flat.gradient_chunks(np.empty(OPTIMIZER_CHUNK, values.dtype)):
        stop = start + grad.size
        data, buf, t = values[start:stop], velocity[start:stop], tmp[:grad.size]
        buf *= momentum
        np.multiply(data, weight_decay, out=t)
        grad += t
        buf += grad
        np.multiply(buf, lr, out=t)
        data -= t
        start = stop
    for p in flat.params:
        p.grad = None


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

# When set to a list, relu appends its boolean active-set mask x > 0 here on
# every forward call (log_kink_pattern); otherwise no mask is built.
# grad_check uses this to detect finite-difference windows that straddle a
# kink, where the central-difference quotient converges to the average of the
# two one-sided slopes instead of the derivative and is therefore not a valid
# estimate.
_KINK_LOG: Optional[list] = None

# Perturbed copies of the input that grad_check stacks into one call of a
# samplewise ``f``.  Even, so the +h and -h copies of a coordinate share a
# call.  A call of the toy FedNet costs about the same at 8 copies as at 16,
# so fewer calls is the saving, and peak RSS is the cost: the peak sits in
# ``f`` at the stem conv, about 116 KB per copy.  The count must keep that
# cost clearly under 5%.  Measured with benchmark/run.py on the
# gradient-check suite (2-vCPU Xeon, one BLAS thread, 25-s runs), op_ms.p50
# and peak RSS against 3002-3354 ms and 44.36-44.60 MB at 8 copies (10 runs):
# 16 copies 2071-2279 ms and +2.5-3.0% (7 runs); 24 copies 1654-1920 ms and
# +4.1-6.2% (8 runs), and +4.5-5.2% (6 runs) with each call's output and
# relu masks freed before the next call; 32 copies 1637-1729 ms and +8.2%
# (4 runs).  The report is bit-identical at 1, 8, 16, 24 and 32 copies.
GRAD_CHECK_COPIES = 16


def log_kink_pattern(x: np.ndarray) -> None:
    """While grad_check is logging, append relu's active set for input x."""
    if _KINK_LOG is not None:
        _KINK_LOG.append(x > 0)


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
    name: str = ""  # set by a suite that runs several named checks
    seconds: float = 0.0  # wall time to build and run the check, set likewise

    def __str__(self) -> str:
        """One tab-separated row, as ``fednet gradcheck`` prints it."""
        worst = "-" if self.worst_coord is None else ",".join(map(str, self.worst_coord))
        reason = f"\treason={self.message}" if self.message else ""
        return (f"{self.name}\t{self.max_rel_err:.3e}\t{'PASS' if self.passed else 'FAIL'}"
                f"\tworst_coord={worst}\tkink_coords_skipped={self.kink_coords_skipped}"
                f"\tseconds={self.seconds:.3f}{reason}")


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
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if samplewise and x.data.ndim == 0:
        raise ValueError("samplewise grad_check needs an input with a batch axis")
    x.requires_grad = True
    x.grad = None

    with Tape() as tape:
        y = f(x)
        weights = np.random.default_rng(2024).uniform(0.5, 1.5, size=y.shape)
        weights /= 100.0 * y.size
        s = (y * Tensor(weights)).sum()
    if samplewise and y.ndim == 0:
        raise ValueError("a samplewise f must keep axis 0, the batch axis; f gave a 0-d output")
    backward(s, tape)
    if x.grad is None:
        return GradCheckReport(np.inf, False, None, "no gradient reached the input")
    analytic = x.grad.copy()

    # Copy c is x with coordinate c // 2 moved by +h (c even) or -h (c odd);
    # calls of f take `copies` consecutive copies, so an even count keeps
    # each +h/-h pair in one call.
    flat_x = x.data.reshape(-1)
    n = flat_x.size
    steps = 1e-5 * np.maximum(1.0, np.abs(flat_x))
    moved = np.empty(2 * n)
    moved[0::2] = flat_x + steps
    moved[1::2] = flat_x - steps
    copies = GRAD_CHECK_COPIES if samplewise else 1
    values = np.empty(2 * n)
    valid = np.ones(n, dtype=bool)
    up_layout: tuple = ()
    up_row = None
    for start in range(0, 2 * n, copies):
        k = min(copies, 2 * n - start)
        batch = np.repeat(x.data[None], k, axis=0)
        batch.reshape(k, n)[np.arange(k), np.arange(start, start + k) // 2] = moved[start:start + k]
        _KINK_LOG = []
        try:
            out = f(Tensor(batch.reshape(_stacked(x.shape, k)))).data
            masks = _KINK_LOG
        finally:
            _KINK_LOG = None
        if out.shape != _stacked(y.shape, k):
            raise ValueError(f"f gave shape {out.shape} for {k} stacked copies of x; "
                             f"expected {_stacked(y.shape, k)}")
        values[start:start + k] = (out.reshape((k,) + y.shape) * weights).reshape(k, -1).sum(axis=1)
        # Row j holds copy j's relu masks end to end.  The copies of one call
        # go through the same relu calls; across the two calls of a serial
        # pair, the layout (each mask's length, so also their count) tells
        # rows of equal length apart.
        layout = tuple(m.size // k for m in masks)
        rows = np.concatenate([m.reshape(k, -1) for m in masks] or [np.empty((k, 0), bool)],
                              axis=1)
        if k > 1:
            valid[start // 2:(start + k) // 2] = (rows[0::2] == rows[1::2]).all(axis=1)
        elif start % 2 == 0:
            up_layout, up_row = layout, rows[0]
        else:
            valid[start // 2] = up_layout == layout and (up_row == rows[0]).all()
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
