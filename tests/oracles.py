"""Independent brute-force reference implementations used as test oracles.

Everything here is written as plainly as possible (nested loops, recursion)
and never calls into the package's vectorized code paths.
"""

import numpy as np


def conv2d_reference(x, w, b, stride=1, pad=1):
    """Direct 6-nested-loop cross-correlation."""
    n, cin, h, width = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for nn in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[nn, ci, i * stride + ki, j * stride + kj] \
                                    * w[co, ci, ki, kj]
                    out[nn, co, i, j] = acc + b[co]
    return out


def im2col_reference(x, kh, kw, stride, pad):
    """[N, C*kh*kw, OH*OW] patch matrix of x:[N,C,H,W], one entry at a time:
    row c*kh*kw + i*kw + j, column oy*OW + ox holds the zero-padded input at
    (c, oy*stride + i, ox*stride + j).  Every entry is copied, never computed,
    so the result is bit-exact for any values, NaN and -0.0 included."""
    n, c, h, width = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((n, c * kh * kw, oh * ow), dtype=x.dtype)
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                for oy in range(oh):
                    for ox in range(ow):
                        out[:, (ci * kh + i) * kw + j, oy * ow + ox] = \
                            xp[:, ci, oy * stride + i, ox * stride + j]
    return out


def conv2d_grad_reference(x, w, g, stride=1, pad=1):
    """Gradients (dx, dw, db) of sum(g * conv2d(x, w, b)), by scattering each
    output position's upstream gradient over its receptive field."""
    n, cin, h, width = x.shape
    cout, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros(xp.shape, dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    db = np.zeros(cout, dtype=np.float64)
    for nn in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    gv = g[nn, co, i, j]
                    db[co] += gv
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                r, c = i * stride + ki, j * stride + kj
                                dxp[nn, ci, r, c] += gv * w[co, ci, ki, kj]
                                dw[co, ci, ki, kj] += gv * xp[nn, ci, r, c]
    return dxp[:, :, pad:pad + h, pad:pad + width], dw, db


def conv2d_adjoint_nchw(w, g, x_shape, stride, pad):
    """Bit-level reference for the adjoint of the conv2d with w:[Cout, Cin,
    kh, kw], applied to g:[N, Cout, OH, OW]: conv2d's input gradient, and the
    forward of a transposed conv with weight w and zero bias.

    Its products are the GEMMs the package runs, so the comparison does not
    depend on how a BLAS kernel orders a GEMM's sums.  An unpadded 1x1
    stride-1 conv has nothing to scatter: the result is w2^T @ g2 per sample
    itself, with w2 = w as [Cout, Cin].  Otherwise the taps are the
    channels-last g2^T @ w_taps per sample, with w_taps = w as
    [Cout, kh*kw*Cin], and each tap is added, in (i, j) order, into a zeroed
    [N, Cin, Hp, Wp] buffer, cropped to x_shape."""
    n, cin, h, width = x_shape
    cout, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    g2 = g.reshape(n, cout, oh * ow)
    if kh == kw == stride == 1 and not pad:
        return np.matmul(w.reshape(cout, cin).T, g2).reshape(x_shape)
    w_taps = w.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    taps = np.matmul(g2.transpose(0, 2, 1), w_taps)
    cols = taps.reshape(n, oh, ow, kh, kw, cin).transpose(0, 5, 3, 4, 1, 2)
    buf = np.zeros((n, cin, h + 2 * pad, width + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            buf[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[:, :, i, j]
    return buf[:, :, pad:pad + h, pad:pad + width]


def conv_transpose2d_reference(x, w, b, stride=1, pad=0):
    """Direct scatter-add transposed convolution; w is [Cin, Cout, kh, kw]."""
    n, cin, h, width = x.shape
    _, cout, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (width - 1) * stride - 2 * pad + kw
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for nn in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(width):
                    v = x[nn, ci, i, j]
                    for co in range(cout):
                        for ki in range(kh):
                            for kj in range(kw):
                                oi = i * stride + ki - pad
                                oj = j * stride + kj - pad
                                if 0 <= oi < oh and 0 <= oj < ow:
                                    out[nn, co, oi, oj] += v * w[ci, co, ki, kj]
    return out + b[None, :, None, None]


def conv_transpose2d_grad_reference(x, w, g, stride=1, pad=0):
    """Gradients (dx, dw, db) of sum(g * conv_transpose2d(x, w, b)), by
    gathering, for each scatter term of the forward loop, the upstream
    gradient at the position it writes."""
    n, cin, h, width = x.shape
    _, cout, kh, kw = w.shape
    _, _, oh, ow = g.shape
    dx = np.zeros(x.shape, dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    db = np.zeros(cout, dtype=np.float64)
    for nn in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    db[co] += g[nn, co, oi, oj]
        for ci in range(cin):
            for i in range(h):
                for j in range(width):
                    for co in range(cout):
                        for ki in range(kh):
                            for kj in range(kw):
                                oi = i * stride + ki - pad
                                oj = j * stride + kj - pad
                                if 0 <= oi < oh and 0 <= oj < ow:
                                    gv = g[nn, co, oi, oj]
                                    dx[nn, ci, i, j] += gv * w[ci, co, ki, kj]
                                    dw[ci, co, ki, kj] += gv * x[nn, ci, i, j]
    return dx, dw, db


def dense_reference(x, w, b):
    n, cin = x.shape
    cout = w.shape[0]
    out = np.zeros((n, cout), dtype=np.float64)
    for nn in range(n):
        for co in range(cout):
            acc = 0.0
            for ci in range(cin):
                acc += x[nn, ci] * w[co, ci]
            out[nn, co] = acc + b[co]
    return out


def global_avg_pool_reference(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c), dtype=np.float64)
    for nn in range(n):
        for cc in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[nn, cc, i, j]
            out[nn, cc] = acc / (h * w)
    return out


def upsample_nearest_reference(x, factor):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h * factor, w * factor), dtype=x.dtype)
    for i in range(h * factor):
        for j in range(w * factor):
            out[:, :, i, j] = x[:, :, i // factor, j // factor]
    return out


def pixel_shuffle_reference(x, r):
    """Index-by-index application of the declared mapping
    out[n, c, h*r+a, w*r+b] = x[n, c*r*r + a*r + b, h, w]."""
    n, c_in, h, w = x.shape
    c = c_in // (r * r)
    out = np.zeros((n, c, h * r, w * r), dtype=x.dtype)
    for nn in range(n):
        for cc in range(c):
            for hh in range(h):
                for ww in range(w):
                    for a in range(r):
                        for b in range(r):
                            out[nn, cc, hh * r + a, ww * r + b] = \
                                x[nn, cc * r * r + a * r + b, hh, ww]
    return out


def subpixel_fold_reference(w, r):
    """Kernel [Cout*r*r, Cin, 3, 3] of the sub-pixel form of a 3x3 pad-1 conv
    after an r-fold nearest upsample, by adding each tap (d, g) of output
    phase (a, b) into the low-resolution offset it reads."""
    cout, cin = w.shape[:2]
    out = np.zeros((cout * r * r, cin, 3, 3), dtype=np.float64)
    for co in range(cout):
        for a in range(r):
            for b in range(r):
                for d in range(3):
                    for g in range(3):
                        e, f = (a + d - 1) // r + 1, (b + g - 1) // r + 1
                        out[co * r * r + a * r + b, :, e, f] += w[co, :, d, g]
    return out


def fold_1x1_reference(w, b, v, c, phases):
    """Weight and bias of a conv (w, b) followed by the 1x1 conv (v, c), where
    channel m*phases + p of the first is phase p of channel m, summed one
    term at a time."""
    co, cm = v.shape[:2]
    w_out = np.zeros((co * phases,) + w.shape[1:], dtype=np.float64)
    b_out = np.zeros(co * phases, dtype=np.float64)
    for o in range(co):
        for p in range(phases):
            b_out[o * phases + p] = c[o]
            for m in range(cm):
                w_out[o * phases + p] += v[o, m, 0, 0] * w[m * phases + p]
                b_out[o * phases + p] += v[o, m, 0, 0] * b[m * phases + p]
    return w_out, b_out


def baseline_fednet_logits_reference(params, x):
    """Logits of a baseline FedNet (every ablation flag off) from its named
    parameter arrays, with every nearest upsample applied before the conv
    that follows it, as the architecture is written."""
    def conv(name, v, stride=1, pad=0):
        return conv2d_reference(v, params[name + ".w"], params[name + ".b"], stride, pad)

    def relu(v):
        return np.maximum(v, 0.0)

    def decoder(name, v):
        v = relu(conv(name + ".reduce", v))
        v = relu(conv_transpose2d_reference(v, params[name + ".up.w"],
                                            params[name + ".up.b"], 2, 0))
        return conv(name + ".restore", v)

    levels = [relu(conv("encoder.stem_b", relu(conv("encoder.stem_a", x, 2, 1)), 2, 1))]
    for stage in ("encoder.stage2.", "encoder.stage3.", "encoder.stage4."):
        v = levels[-1]
        main = conv(stage + "main2", relu(conv(stage + "main1", v, 2, 1)), 1, 1)
        levels.append(relu(main + conv(stage + "short", v, 2, 0)))
    d = conv("upconv4.conv", upsample_nearest_reference(levels[3], 2), 1, 1)
    d = decoder("dec3", d + conv("skip3", levels[2]))
    d = decoder("dec2", d + conv("skip2", levels[1]))
    d = d + conv("skip1", levels[0])
    return conv("head_out", conv("head_upconv.conv", upsample_nearest_reference(d, 4), 1, 1))


def flood_fill_labels(mask, connectivity=6):
    """Recursive flood-fill component labeling, discovery order x-fastest."""
    import sys
    mask = np.asarray(mask).astype(bool)
    nz, ny, nx = mask.shape
    sys.setrecursionlimit(max(sys.getrecursionlimit(), mask.size * 4 + 1000))
    if connectivity == 6:
        offsets = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    else:
        offsets = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
                   if (a, b, c) != (0, 0, 0)]
    labels = np.zeros(mask.shape, dtype=np.int32)

    def fill(z, y, x, label):
        labels[z, y, x] = label
        for dz, dy, dx in offsets:
            pz, py, px = z + dz, y + dy, x + dx
            if (0 <= pz < nz and 0 <= py < ny and 0 <= px < nx
                    and mask[pz, py, px] and labels[pz, py, px] == 0):
                fill(pz, py, px, label)

    next_label = 1
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if mask[z, y, x] and labels[z, y, x] == 0:
                    fill(z, y, x, next_label)
                    next_label += 1
    return labels


def sigmoid_scalar(v: float) -> float:
    """High-precision logistic via extended-precision exponentials."""
    v = np.longdouble(v)
    if v >= 0:
        return float(1.0 / (1.0 + np.exp(-v)))
    e = np.exp(v)
    return float(e / (1.0 + e))


def sigmoid_branchwise_reference(z):
    """Logistic by its two overflow-free branches, 1/(1+exp(-z)) where z >= 0
    and exp(z)/(1+exp(z)) elsewhere, clipped to [tiny, 1 - epsneg] of z's dtype."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    info = np.finfo(z.dtype)
    return np.clip(out, info.tiny, 1.0 - info.epsneg)


def upsample_nearest_grad_reference(g, factor):
    """The input gradient of a factor-``factor`` nearest upsample, as one
    numpy reduction over both block axes."""
    n, c, hf, wf = g.shape
    return g.reshape(n, c, hf // factor, factor, wf // factor, factor).sum(axis=(3, 5))


def clip_gradients_reference(params, max_norm):
    """Per-parameter gradient clipping: the global L2 norm from a float64
    sum of squares per parameter, then each ``.grad`` scaled in place by the
    clip factor in its own dtype; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    total = total ** 0.5
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad *= p.grad.dtype.type(scale)
    return total


def sgd_step_reference(params, velocity, lr, momentum, weight_decay):
    """Per-parameter SGD with momentum, one full-size expression per operand,
    over one momentum buffer per parameter; gradients are released after."""
    for p, buf in zip(params, velocity):
        buf *= momentum
        buf += p.grad + weight_decay * p.data
        p.data -= lr * buf
        p.grad = None
