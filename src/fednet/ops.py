"""Differentiable neural-network operations on :class:`~fednet.tensor.Tensor`.

Conventions fixed here, once, so every result is bit-reproducible:

* convolution is cross-correlation (no kernel flip) with zero padding;
* ``upsample_nearest`` replicates each pixel into an f x f block;
* ``pixel_shuffle`` maps out[n, c, h*r+a, w*r+b] = x[n, c*r*r + a*r + b, h, w].

Two identities let a layer that follows a nearest upsample run at the
resolution of its source instead of on replicated pixels:

* sub-pixel form (Shi et al., arXiv 1609.05158; Aitken et al., arXiv
  1707.02937): a 3x3 pad-1 conv of an r-fold nearest upsample equals
  ``pixel_shuffle(conv2d(x, subpixel_fold(w, r), subpixel_tile(b, r), 1, 1), r)``.
  Output phase a of tap d reads low-resolution offset (a + d - 1) // r, and
  the fold sums the taps that share an offset;
* a 1x1 conv, and a channel gate computed from a global average pool,
  commute with nearest upsampling: upsampling replicates every pixel r*r
  times, which leaves a per-pixel map per-pixel and a spatial mean unchanged.

A 1x1 conv that follows a conv, with at most a pixel shuffle between them,
composes with it into one conv (``fold_1x1``), which computes only the 1x1
conv's output channels.

conv2d's forward and conv_transpose2d's backward gather patches with im2col,
so the heavy lifting is one matmul per sample.  numpy copies a strided view
one innermost row at a time, at nearly the same cost whatever the row's
length, and at 64 px a 3x3 conv's output rows hold 2-16 pixels.  So im2col
builds the patch matrix from few, long copies (Chellapilla et al. 2006; Cho
and Brand, arXiv 1706.06873), with the same bytes on every path: one
``np.take`` at a cached index where an output row holds OW <= 4 pixels; for
a wider stride-1 conv, a copy of its kw column windows, then one contiguous
run per tap; else one strided view of the padded input plus one copy, or no
copy for an unpadded 1x1 stride-1 conv.  Per-shape timings set the OW rule
(2-vCPU Xeon, one thread, batch 8, float32; ms for the strided copy -> the
path taken, the other path in brackets): 2x2 at 128 channels 0.202 -> 0.059
gather (0.118); 8x8 at 32 channels 0.178 -> 0.088 two-stage (0.181); 16x16
at 16 channels 0.126 -> 0.092 two-stage (0.260).  At OW = 4 and stride 1 the
two are within 20%, and either choice gives whole-network times equal within
noise.

A transposed convolution is the adjoint of the conv2d with the same weight
(Dumoulin and Visin, arXiv 1603.07285), so one channels-last scatter
(``_conv2d_adjoint``) computes both conv2d's input gradient and
conv_transpose2d's forward.  One GEMM per sample gives every tap as
[OH, OW, kh, kw, Cin], and each tap is added, in (i, j) order, into a zeroed
[N, Hp, Wp, Cin] buffer, over rows of OW*Cin floats (an NCHW scatter adds
rows of OW floats, 2 on a 2x2 map).  The cropped buffer is returned as a
C-contiguous [N, Cin, H, W] array.  An unpadded 1x1 stride-1 conv has
nothing to scatter: its adjoint is the GEMM output.

A conv's weight gradient is sum over n of g[n] @ cols[n].T (``sum_matmul_t``),
with M output channels, K = Cin*kh*kw patch rows and P output pixels.
Where M*K > P*(M+K), the deep layers with many channels on a few pixels, it
is one GEMM over the joined (N*P) axis: N per-sample [M, K] products would
each have an inner dimension of P and be written out before the sum.
Elsewhere it stays one GEMM per sample, summed, which is faster there; those
layers keep their bits.  The rule reads operand shapes only, not N.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import Tensor, check_dtypes, log_kink_pattern, record


def _check_rank(op: str, shape: tuple, rank: int, role: str) -> None:
    if len(shape) != rank:
        raise ValueError(f"{op}: {role} must be {rank}-d, got shape {shape}")


# ---------------------------------------------------------------------------
# im2col and the conv adjoint
# ---------------------------------------------------------------------------


# im2col gathers the patch matrix where an output row holds at most this
# many pixels (see the module docstring for the timings that set it)
NARROW_OW = 4


@functools.lru_cache(maxsize=64)
def _gather_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  pad: int) -> np.ndarray:
    """Read-only intp [C*kh*kw, OH*OW]: where patch entry (row, col) of one
    sample lies in its flattened [C*H*W] input, or C*H*W, one past the end,
    where the window reads padding."""
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    rows = np.arange(kh)[:, None] + stride * np.arange(oh) - pad  # [kh, OH]
    cols = np.arange(kw)[:, None] + stride * np.arange(ow) - pad  # [kw, OW]
    inside = (((rows >= 0) & (rows < h))[:, None, :, None]
              & ((cols >= 0) & (cols < w))[None, :, None, :])
    at = (np.arange(c)[:, None, None, None, None] * (h * w)
          + rows[:, None, :, None] * w + cols[None, :, None, :])
    index = np.where(inside, at, c * h * w).astype(np.intp).reshape(c * kh * kw, oh * ow)
    index.flags.writeable = False
    return index


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """[N,C,H,W] -> C-contiguous [N, C*kh*kw, OH*OW] patch matrix, built
    from few, long copies (see the module docstring).  The path depends on
    one sample's shape, never on N:

    * an unpadded 1x1 stride-1 conv: a read-only view of the input (made
      contiguous), no copy;
    * OW <= NARROW_OW: one ``np.take`` of each sample's flattened input,
      with a zero appended when padded, at the cached :func:`_gather_index`;
    * wider stride 1: the kw column windows [N, C, kw, H+2*pad, OW] are
      written from the input into a zeroed buffer, so the padding costs no
      copy, and the window of tap (i, j) is one contiguous run of OH*OW in
      that buffer, copied whole;
    * wider, larger strides: a strided view [N, C, kh, kw, OH, OW] of the
      zero-padded input, copied in rows of OW.
    """
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if kh == kw == stride == 1 and not pad:
        cols = np.ascontiguousarray(x).reshape(n, c, h * w)
        cols.flags.writeable = False  # it may be the caller's input
        return cols
    if ow <= NARROW_OW:
        flat = x.reshape(n, c * h * w)
        if pad:
            flat = np.concatenate((flat, np.zeros((n, 1), x.dtype)), axis=1)
        return np.take(flat, _gather_index(c, h, w, kh, kw, stride, pad), axis=1)
    if stride == 1:
        windows = np.zeros((n, c, kw, h + 2 * pad, ow), dtype=x.dtype)
        for j in range(kw):
            # window j's column q reads input column q + j - pad
            lo, hi = max(0, pad - j), min(ow, w + pad - j)
            if lo < hi:
                windows[:, :, j, pad:pad + h, lo:hi] = x[:, :, :, lo + j - pad:hi + j - pad]
        sn, sc, sj, sh, sw = windows.strides
        # an ndarray over the buffer skips as_strided's Python-level wrapper
        taps = np.ndarray((n, c, kh, kw, oh * ow), x.dtype, windows, 0, (sn, sc, sh, sj, sw))
        return taps.reshape(n, c * kh * kw, oh * ow)
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    else:
        x = np.ascontiguousarray(x)
    sn, sc, sh, sw = x.strides
    patches = np.ndarray((n, c, kh, kw, oh, ow), x.dtype, x, 0,
                         (sn, sc, sh, sw, stride * sh, stride * sw))
    return patches.reshape(n, c * kh * kw, oh * ow)


def _conv2d_adjoint(g2: np.ndarray, w: np.ndarray, xs: tuple, stride: int,
                    pad: int, oh: int, ow: int) -> np.ndarray:
    """Adjoint of :func:`conv2d` with w:[Cout, Cin, kh, kw], applied to
    g2:[N, Cout, OH*OW]: conv2d's input gradient, and the forward of
    :func:`conv_transpose2d`.  Scattered channels-last (see the module
    docstring) and returned as a C-contiguous [N, Cin, H, W] array of shape
    xs: a transposed view would hand the GEMMs downstream other operand
    layouts, and other bits."""
    n, cin, h, width = xs
    cout, _, kh, kw = w.shape
    if kh == kw == stride == 1 and not pad:
        return np.matmul(w.reshape(cout, cin).T, g2).reshape(xs)
    w_taps = w.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    taps = np.matmul(g2.transpose(0, 2, 1), w_taps).reshape(n, oh, ow, kh, kw, cin)
    buf = np.zeros((n, h + 2 * pad, width + 2 * pad, cin), dtype=taps.dtype)
    for i in range(kh):
        for j in range(kw):
            buf[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += taps[:, :, :, i, j]
    return np.ascontiguousarray(buf[:, pad:pad + h, pad:pad + width].transpose(0, 3, 1, 2))


def sum_matmul_t(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over n of a[n] @ b[n].T for a:[N,M,P] and b:[N,K,P]: [M,K].

    When each per-sample product is larger than its two operands,
    M*K > P*(M+K) (deep layers: many channels, few pixels), this is one GEMM
    over the joined (N*P) axis.  Otherwise it is N per-sample GEMMs summed,
    which is faster there and keeps those layers' bits.  The choice depends
    on the operand shapes only, never on N.
    """
    _, m, p = a.shape
    k = b.shape[1]
    if m * k > p * (m + k):
        return np.tensordot(a, b, axes=([0, 2], [0, 2]))
    return np.matmul(a, b.transpose(0, 2, 1)).sum(axis=0)


# ---------------------------------------------------------------------------
# Convolutions
# ---------------------------------------------------------------------------


def _check_conv(op: str, x: Tensor, w: Tensor, b: Tensor, stride: int,
                pad: int, cin_axis: int) -> tuple[tuple, tuple]:
    """Operand checks shared by both convolutions: ranks, dtypes, stride,
    pad, the input channels against weight axis ``cin_axis``, and the bias
    against the other leading weight axis.  Returns (x.shape, w.shape)."""
    xs, ws = x.data.shape, w.data.shape
    _check_rank(op, xs, 4, "input")
    _check_rank(op, ws, 4, "weight")
    check_dtypes(op, x, w, b)
    if stride < 1:
        raise ValueError(f"{op}: stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"{op}: pad must be >= 0, got {pad}")
    if xs[1] != ws[cin_axis]:
        raise ValueError(
            f"{op}: channel axis mismatch: input has {xs[1]} channels (axis 1), "
            f"weight expects {ws[cin_axis]} (axis {cin_axis})")
    cout = ws[1 - cin_axis]
    if b.data.shape != (cout,):
        raise ValueError(f"{op}: bias must have shape ({cout},), got {b.data.shape}")
    return xs, ws


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of x:[N,Cin,H,W] with w:[Cout,Cin,kh,kw].

    Output spatial extents: floor((H + 2*pad - kh) / stride) + 1, same for W.
    """
    xs, ws = _check_conv("conv2d", x, w, b, stride, pad, 1)
    n, cin, h, width = xs
    cout, _, kh, kw = ws
    if h + 2 * pad < kh:
        raise ValueError(f"conv2d: height axis too small: H+2*pad={h + 2 * pad} < kh={kh}")
    if width + 2 * pad < kw:
        raise ValueError(f"conv2d: width axis too small: W+2*pad={width + 2 * pad} < kw={kw}")

    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    cols = _im2col(x.data, kh, kw, stride, pad)
    w2 = w.data.reshape(cout, cin * kh * kw)
    out_data = np.matmul(w2, cols).reshape(n, cout, oh, ow)
    out_data += b.data[None, :, None, None]
    out = Tensor(out_data)

    def backward_fn(g):
        g2 = g.reshape(n, cout, oh * ow)
        dx = dw = db = None
        if x.requires_grad:
            dx = _conv2d_adjoint(g2, w.data, xs, stride, pad, oh, ow)
        if w.requires_grad:
            dw = sum_matmul_t(g2, cols).reshape(ws)
        if b.requires_grad:
            db = g.sum(axis=(0, 2, 3))
        return dx, dw, db

    return record(out, (x, w, b), backward_fn)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1,
                     pad: int = 0) -> Tensor:
    """Transposed convolution of x:[N,Cin,H,W] with w:[Cin,Cout,kh,kw].

    Output spatial extents: (H - 1)*stride - 2*pad + kh, same for W.  For
    matching geometry and zero biases this is the exact adjoint of
    :func:`conv2d`: dot(conv2d(x, w, 0), y) == dot(x, conv_transpose2d(y, w, 0)).
    """
    xs, ws = _check_conv("conv_transpose2d", x, w, b, stride, pad, 0)
    n, cin, h, width = xs
    _, cout, kh, kw = ws
    hp = (h - 1) * stride - 2 * pad + kh
    wp = (width - 1) * stride - 2 * pad + kw
    if hp < 1:
        raise ValueError(f"conv_transpose2d: height axis collapses to {hp}")
    if wp < 1:
        raise ValueError(f"conv_transpose2d: width axis collapses to {wp}")

    # w:[Cin, Cout, kh, kw] is the weight of the conv2d from [N, Cout, Hp, Wp]
    # to x's shape, so this is that conv's adjoint applied to x
    x2 = x.data.reshape(n, cin, h * width)
    out_data = _conv2d_adjoint(x2, w.data, (n, cout, hp, wp), stride, pad, h, width)
    out_data += b.data[None, :, None, None]
    out = Tensor(out_data)

    def backward_fn(g):
        dx = dw = db = None
        gcols = None
        if x.requires_grad or w.requires_grad:
            gcols = _im2col(g, kh, kw, stride, pad)
        if x.requires_grad:
            dx = np.matmul(w.data.reshape(cin, cout * kh * kw), gcols).reshape(xs)
        if w.requires_grad:
            dw = sum_matmul_t(x2, gcols).reshape(ws)
        if b.requires_grad:
            db = g.sum(axis=(0, 2, 3))
        return dx, dw, db

    return record(out, (x, w, b), backward_fn)


# ---------------------------------------------------------------------------
# Dense / activations / pooling
# ---------------------------------------------------------------------------


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer: y = x @ w.T + b for x:[N,Cin], w:[Cout,Cin]."""
    _check_rank("dense", x.shape, 2, "input")
    _check_rank("dense", w.shape, 2, "weight")
    check_dtypes("dense", x, w, b)
    if x.shape[1] != w.shape[1]:
        raise ValueError(
            f"dense: inner axis mismatch: input has {x.shape[1]} features (axis 1), "
            f"weight expects {w.shape[1]} (axis 1)")
    if b.shape != (w.shape[0],):
        raise ValueError(f"dense: bias must have shape ({w.shape[0]},), got {tuple(b.shape)}")
    # one 1-row product per sample: a 2-D product would run a gemv for one
    # row and a gemm for several, so a row's last bits would depend on its
    # batch-mates
    out = Tensor(np.matmul(x.data[:, None, :], w.data.T)[:, 0] + b.data[None, :])

    def backward_fn(g):
        dx = g @ w.data if x.requires_grad else None
        dw = g.T @ x.data if w.requires_grad else None
        db = g.sum(axis=0) if b.requires_grad else None
        return dx, dw, db

    return record(out, (x, w, b), backward_fn)


def relu(x: Tensor) -> Tensor:
    """max(x, 0).  The backward reads the active set x > 0 from the input,
    which the tape holds anyway, so the forward keeps no mask."""
    out = Tensor(np.maximum(x.data, 0))
    log_kink_pattern(x.data)
    return record(out, (x,), lambda g: (g * (x.data > 0),))


def flush_subnormals(d) -> np.ndarray:
    """Set the entries of the array ``d`` smaller in magnitude than the
    smallest normal number to 0, in place, and return it.

    Arithmetic on subnormal operands runs on a slow path in x86 CPUs (Dooley
    and Kale, "Quantifying the interference caused by subnormal
    floating-point values", 2006): a float32 matmul of a [144, 128] weight
    with an [8, 128, 256] operand measured 0.35 ms on normal data and 38.9 ms
    with 78% of the operand subnormal.  numpy has no flush-to-zero mode, so
    the backward functions that make subnormal gradients flush them here.
    """
    d = np.asarray(d)  # a 0-d product arrives as a numpy scalar
    d[np.abs(d) < np.finfo(d.dtype).tiny] = 0
    return d


def stable_logistic(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-|z|), sigmoid(z)) of the array z without overflow: exp(-|z|) is
    exp(-z) where z >= 0 and exp(z) elsewhere, so it never exceeds 1."""
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return e, np.where(z >= 0, 1.0 / denom, e / denom)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic; output clipped strictly inside (0, 1).

    Its backward flushes subnormal gradients to 0: where p is clipped to the
    smallest normal number, g * p * (1 - p) is subnormal for any |g| < 1.
    """
    z = x.data
    _, out_data = stable_logistic(z)
    info = np.finfo(z.dtype)
    np.clip(out_data, info.tiny, 1.0 - info.epsneg, out=out_data)
    out = Tensor(out_data)
    return record(out, (x,), lambda g: (flush_subnormals(g * out_data * (1.0 - out_data)),))


def activation(x: Tensor, kind: str) -> Tensor:
    if kind == "relu":
        return relu(x)
    if kind == "sigmoid":
        return sigmoid(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [N,C,H,W] -> [N,C]."""
    _check_rank("global_avg_pool", x.shape, 4, "input")
    n, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3), dtype=x.data.dtype))
    scale = 1.0 / (h * w)

    def backward_fn(g):
        return (np.broadcast_to(g[:, :, None, None] * scale, x.shape),)

    return record(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# Resolution changes
# ---------------------------------------------------------------------------


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel into a factor x factor block (no interpolation)."""
    _check_rank("upsample_nearest", x.shape, 4, "input")
    if factor < 1:
        raise ValueError(f"upsample_nearest: factor must be >= 1, got {factor}")
    n, c, h, w = x.shape
    out_data = np.broadcast_to(
        x.data[:, :, :, None, :, None], (n, c, h, factor, w, factor)
    ).reshape(n, c, h * factor, w * factor).copy()
    out = Tensor(out_data)

    def backward_fn(g):
        # each block's row sums, added row by row in order: numpy's
        # sum(axis=(3, 5)) makes the same float sums, bit for bit, but slower
        rows = g.reshape(n, c, h, factor, w, factor).sum(axis=5)
        total = rows[:, :, :, 0].copy()
        for i in range(1, factor):
            total += rows[:, :, :, i]
        return (total,)

    return record(out, (x,), backward_fn)


def _shuffle(a: np.ndarray, r: int) -> np.ndarray:
    """[N, C*r*r, H, W] -> [N, C, H*r, W*r]; a view when nothing moves (r = 1)."""
    n, c_in, h, w = a.shape
    c = c_in // (r * r)
    return a.reshape(n, c, r, r, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h * r, w * r)


def _unshuffle(a: np.ndarray, r: int) -> np.ndarray:
    """[N, C, H*r, W*r] -> [N, C*r*r, H, W], the inverse of :func:`_shuffle`."""
    n, c, hr, wr = a.shape
    h, w = hr // r, wr // r
    return a.reshape(n, c, h, r, w, r).transpose(0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h, w)


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """[N, C*r*r, H, W] -> [N, C, H*r, W*r] by periodic channel-to-space rearrangement."""
    _check_rank("pixel_shuffle", x.shape, 4, "input")
    if r < 1:
        raise ValueError(f"pixel_shuffle: r must be >= 1, got {r}")
    c_in = x.shape[1]
    if c_in % (r * r) != 0:
        raise ValueError(f"pixel_shuffle: channel extent {c_in} not divisible by r*r={r * r}")
    out = Tensor(_shuffle(x.data, r).copy())
    return record(out, (x,), lambda g: (_unshuffle(g, r),))


def _subpixel_fold_matrix(r: int, dtype: np.dtype) -> np.ndarray:
    """[r*r, 9, 9] 0/1 matrix: entry [a*r + b, 3*d + g, 3*e + f] is 1 when tap
    (d, g) of a 3x3 pad-1 kernel applied to an r-fold nearest upsample reads,
    for output phase (a, b), the low-resolution offset (e - 1, f - 1)."""
    one_axis = np.zeros((r, 3, 3), dtype=dtype)
    for a in range(r):
        for d in range(3):
            one_axis[a, d, (a + d - 1) // r + 1] = 1
    return np.einsum("ade,bgf->abdgef", one_axis, one_axis).reshape(r * r, 9, 9)


def subpixel_fold(w: Tensor, r: int) -> Tensor:
    """Fold a 3x3 kernel w:[Cout,Cin,3,3] through an r-fold nearest upsample
    into the [Cout*r*r, Cin, 3, 3] kernel of the sub-pixel form.

    Output channel c*r*r + a*r + b holds the kernel of output phase (a, b),
    matching :func:`pixel_shuffle`: its tap at low-resolution offset
    (e, f) is the sum of w's taps (d, g) with (a + d - 1) // r == e and
    (b + g - 1) // r == f.  A linear map; its backward is the transpose.
    """
    _check_rank("subpixel_fold", w.shape, 4, "weight")
    if w.shape[2:] != (3, 3):
        raise ValueError(f"subpixel_fold: kernel must be 3x3, got {tuple(w.shape[2:])}")
    if r < 1:
        raise ValueError(f"subpixel_fold: r must be >= 1, got {r}")
    cout, cin = w.shape[:2]
    m = _subpixel_fold_matrix(r, w.data.dtype)
    # [Cout, 1, Cin, 9] @ [r*r, 9, 9] -> [Cout, r*r, Cin, 9]
    out = Tensor(np.matmul(w.data.reshape(cout, 1, cin, 9), m)
                 .reshape(cout * r * r, cin, 3, 3))

    def backward_fn(g):
        g4 = g.reshape(cout, r * r, cin, 9)
        return (np.matmul(g4, m.transpose(0, 2, 1)).sum(axis=1).reshape(w.shape),)

    return record(out, (w,), backward_fn)


def subpixel_tile(b: Tensor, r: int) -> Tensor:
    """Repeat each entry of b:[C] r*r times, the bias of the sub-pixel form:
    out[c*r*r + k] = b[c].  Its backward sums each group of r*r."""
    _check_rank("subpixel_tile", b.shape, 1, "bias")
    if r < 1:
        raise ValueError(f"subpixel_tile: r must be >= 1, got {r}")
    c = b.shape[0]
    out = Tensor(np.repeat(b.data, r * r))
    return record(out, (b,), lambda g: (g.reshape(c, r * r).sum(axis=1),))


def fold_1x1(w: Tensor, b: Tensor, v: Tensor, c: Tensor, phases: int
             ) -> tuple[Tensor, Tensor]:
    """Weight and bias of one conv equal to the conv w:[C*phases, Cin, kh, kw],
    b:[C*phases] followed by the 1x1 conv v:[Co, C, 1, 1], c:[Co], where
    channel m*phases + p of the first conv is phase p of channel m, as
    :func:`pixel_shuffle` reads it (phases = r*r; 1 for no shuffle):

        W'[o*phases + p] = sum over m of v[o, m] * w[m*phases + p]
        b'[o*phases + p] = sum over m of v[o, m] * b[m*phases + p] + c[o]

    So ``pixel_shuffle(conv2d(x, W', b'), r)`` is the 1x1 conv of
    ``pixel_shuffle(conv2d(x, w, b), r)``, with Co instead of C channels
    computed.  W' is bilinear in (v, w) and b' is affine in each of v, b
    and c; the backward reaches all four inputs.
    """
    _check_rank("fold_1x1", w.shape, 4, "weight")
    _check_rank("fold_1x1", b.shape, 1, "bias")
    _check_rank("fold_1x1", v.shape, 4, "1x1 weight")
    _check_rank("fold_1x1", c.shape, 1, "1x1 bias")
    check_dtypes("fold_1x1", w, b, v, c)
    co, cm = v.shape[:2]
    if v.shape[2:] != (1, 1):
        raise ValueError(f"fold_1x1: second kernel must be 1x1, got {tuple(v.shape[2:])}")
    if phases < 1 or w.shape[0] != cm * phases:
        raise ValueError(
            f"fold_1x1: weight has {w.shape[0]} output channels, expected "
            f"{cm} channels x {phases} phases")
    if b.shape != (w.shape[0],):
        raise ValueError(f"fold_1x1: bias must have shape ({w.shape[0]},), got {tuple(b.shape)}")
    if c.shape != (co,):
        raise ValueError(f"fold_1x1: 1x1 bias must have shape ({co},), got {tuple(c.shape)}")
    v2 = v.data.reshape(co, cm)
    # row m of each grouped operand holds every phase of channel m
    wg = w.data.reshape(cm, -1)
    bg = b.data.reshape(cm, phases)
    w_out = Tensor((v2 @ wg).reshape((co * phases,) + w.shape[1:]))
    b_out = Tensor((v2 @ bg + c.data[:, None]).reshape(co * phases))

    def weight_backward(g):
        g2 = g.reshape(co, -1)
        dw = (v2.T @ g2).reshape(w.shape) if w.requires_grad else None
        dv = (g2 @ wg.T).reshape(v.shape) if v.requires_grad else None
        return dw, dv

    def bias_backward(g):
        g2 = g.reshape(co, phases)
        db = (v2.T @ g2).reshape(b.shape) if b.requires_grad else None
        dv = (g2 @ bg.T).reshape(v.shape) if v.requires_grad else None
        return db, dv, g2.sum(axis=1)

    return (record(w_out, (w, v), weight_backward),
            record(b_out, (b, v, c), bias_backward))


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Exact inverse of :func:`pixel_shuffle`: [N,C,H*r,W*r] -> [N,C*r*r,H,W]."""
    _check_rank("pixel_unshuffle", x.shape, 4, "input")
    if r < 1:
        raise ValueError(f"pixel_unshuffle: r must be >= 1, got {r}")
    hr, wr = x.shape[2:]
    if hr % r != 0:
        raise ValueError(f"pixel_unshuffle: height extent {hr} not divisible by r={r}")
    if wr % r != 0:
        raise ValueError(f"pixel_unshuffle: width extent {wr} not divisible by r={r}")
    out = Tensor(_unshuffle(x.data, r).copy())
    return record(out, (x,), lambda g: (_shuffle(g, r),))


def channel_scale(x: Tensor, gate: Tensor) -> Tensor:
    """Scale each channel map of x:[N,C,H,W] by gate:[N,C]."""
    _check_rank("channel_scale", x.shape, 4, "input")
    _check_rank("channel_scale", gate.shape, 2, "gate")
    check_dtypes("channel_scale", x, gate)
    if x.shape[:2] != gate.shape:
        raise ValueError(
            f"channel_scale: gate shape {tuple(gate.shape)} must match input batch/channel "
            f"axes {tuple(x.shape[:2])}")
    g4 = gate.data[:, :, None, None]
    out = Tensor(x.data * g4)

    def backward_fn(g):
        dx = g * g4 if x.requires_grad else None
        dgate = (g * x.data).sum(axis=(2, 3)) if gate.requires_grad else None
        return dx, dgate

    return record(out, (x, gate), backward_fn)
