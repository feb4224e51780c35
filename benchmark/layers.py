"""Per-layer metrics and the time accounting of a traced run.

All figures come from the spans ``tracer.Tracer`` recorded.  Only spans that
start inside the run's timed windows count (the steps after the first of each
training, each inferred volume, each gradient-check suite), and every figure
is divided by the units of work in those windows: training steps, volumes or
suites.  Set-up figures come from the one traced set-up instead.
"""

from __future__ import annotations

import numpy as np

from definition import PER_LAYER
from tracer import LOSS_SCOPE, NET_CALL, NO_SCOPE

BLOCK_LAYERS = ("encoder.stem", "encoder.stage2", "encoder.stage3", "encoder.stage4",
                "rcb", "fuse", "se", "duc", "upconv", "decoder", "skip", "head")
SETUP_LAYERS = {"checkpoint.save.ms": "checkpoint.save",
                "volume.read_mvol.ms": "volume.read_mvol",
                "volume.write_mvol.ms": "volume.write_mvol",
                "synth.generate.ms": "synth.generate"}


class Spans:
    """Column view of a tracer's spans with self times."""

    def __init__(self, names: list[str], arrays: dict[str, np.ndarray]):
        self.names = names
        self.ids = {name: idx for idx, name in enumerate(names)}
        for key, value in arrays.items():
            setattr(self, key, value)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=self.dur.size)
        self.self_time = self.dur - child
        self.is_bwd = np.array([n.endswith(".bwd") for n in names], dtype=bool)[self.name_id]

    def within(self, windows) -> np.ndarray:
        """Mask of spans whose start lies in one of the (lo, hi) windows."""
        if not windows:
            return np.zeros(self.start.size, dtype=bool)
        lo = np.array([w[0] for w in windows])
        hi = np.array([w[1] for w in windows])
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]
        k = np.searchsorted(lo, self.start, side="right") - 1
        inside = k >= 0
        inside[inside] &= self.start[inside] < hi[k[inside]]
        return inside

    def named(self, mask: np.ndarray, name: str) -> np.ndarray:
        idx = self.ids.get(name)
        if idx is None:
            return np.zeros_like(mask)
        return mask & (self.name_id == idx)

    def scoped(self, mask: np.ndarray, scope: str, backward: bool) -> np.ndarray:
        idx = self.ids.get(scope)
        if idx is None:
            return np.zeros_like(mask)
        return mask & (self.scope_id == idx) & (self.is_bwd == backward)


def per_layer(spans: Spans, windows, units: int, setup_window, check_names) -> dict:
    """Every metric of ``definition.PER_LAYER``; layers a workload does not
    exercise read 0."""
    win = spans.within(windows)
    per = 1.0 / max(units, 1)

    def incl_ms(name: str) -> float:
        return spans.dur[spans.named(win, name)].sum() * 1e3 * per

    def self_ms(name: str) -> float:
        return spans.self_time[spans.named(win, name)].sum() * 1e3 * per

    def calls(name: str) -> int:
        return int(spans.named(win, name).sum())

    def payload(name: str) -> float:
        return float(spans.payload[spans.named(win, name)].sum())

    m: dict[str, float] = {}
    m["tensor.backward.ms"] = incl_ms("tensor.backward")
    m["tensor.backward.self_ms"] = self_ms("tensor.backward")
    m["tensor.tape_entries"] = payload("tensor.backward") * per
    m["tensor.clip_gradients.ms"] = incl_ms("tensor.clip_gradients")
    m["tensor.sgd_step.ms"] = incl_ms("tensor.sgd_step")
    evals = calls("tensor.grad_check.eval")
    m["tensor.grad_check.evals"] = evals * per
    m["tensor.grad_check.eval_ms"] = (incl_ms("tensor.grad_check.eval") * units / evals
                                      if evals else 0.0)

    for op in ("conv2d", "conv_transpose2d"):
        m[f"ops.{op}.fwd_ms"] = self_ms(f"ops.{op}.fwd")
        m[f"ops.{op}.bwd_ms"] = self_ms(f"ops.{op}.bwd")
        m[f"ops.{op}.calls"] = calls(f"ops.{op}.fwd") * per
    conv_fwd = spans.named(win, "ops.conv2d.fwd")
    conv_bwd = spans.named(win, "ops.conv2d.bwd")
    m["ops.conv2d.gflop"] = (spans.payload[conv_fwd].sum()
                             + spans.payload[conv_bwd].sum()) * 1e-9 * per
    m["ops.conv2d.im2col_mb"] = spans.im2col[conv_fwd].sum() * 1e-6 * per
    m["ops.elementwise.fwd_ms"] = self_ms("ops.elementwise.fwd")
    m["ops.elementwise.bwd_ms"] = self_ms("ops.elementwise.bwd")

    for layer in BLOCK_LAYERS:
        scope = f"blocks.{layer}"
        m[f"{scope}.fwd_ms"] = spans.self_time[spans.scoped(win, scope, False)].sum() * 1e3 * per
        m[f"{scope}.bwd_ms"] = spans.self_time[spans.scoped(win, scope, True)].sum() * 1e3 * per
    m["blocks.build_ms"] = incl_ms("blocks.build")
    m["losses.combined_loss.fwd_ms"] = (
        spans.self_time[spans.scoped(win, LOSS_SCOPE, False)].sum() * 1e3 * per)
    m["losses.combined_loss.bwd_ms"] = (
        spans.self_time[spans.scoped(win, LOSS_SCOPE, True)].sum() * 1e3 * per)

    cc = "pipeline.connected_components_3d"
    m[f"{cc}.ms"] = incl_ms(cc)
    m[f"{cc}.calls_per_volume"] = calls(cc) * per
    m[f"{cc}.fg_voxels"] = payload(cc) / calls(cc) if calls(cc) else 0.0
    m["pipeline.hierarchical_postprocess.ms"] = incl_ms("pipeline.hierarchical_postprocess")
    m["pipeline.batch_wait_ms"] = batch_wait(spans, win) * 1e3 * per

    m["harness.predict_volume.liver_ms"] = incl_ms("harness.predict_volume.liver")
    m["harness.predict_volume.lesion_ms"] = incl_ms("harness.predict_volume.lesion")
    liver_slices = payload("harness.predict_volume.liver")
    m["harness.lesion_slice_share"] = (payload("harness.predict_volume.lesion") / liver_slices
                                       if liver_slices else 0.0)
    m["checkpoint.load.ms"] = (incl_ms("checkpoint.load_checkpoint")
                               + incl_ms("checkpoint.load_parameters"))
    m["checkpoint.load.calls_per_volume"] = calls("checkpoint.load_checkpoint") * per

    setup = spans.within([setup_window])
    for metric, name in SETUP_LAYERS.items():
        m[metric] = spans.dur[spans.named(setup, name)].sum() * 1e3

    check_s = spans.dur[spans.named(win, "tensor.grad_check")]
    by_check: dict[str, float] = {}
    for k, secs in enumerate(check_s):
        name = check_names[k % len(check_names)] if check_names else "?"
        by_check[name] = by_check.get(name, 0.0) + secs * per
    m["gradcheck.encoder_s"] = by_check.pop("encoder", 0.0)
    m["gradcheck.fednet_forward_s"] = by_check.pop("fednet_forward", 0.0)
    m["gradcheck.other_s"] = sum(by_check.values())

    unit_s = sum(hi - lo for lo, hi in windows) * per
    m["traced.unit_ms"] = unit_s * 1e3
    missing = [name for name, _, _ in PER_LAYER if name not in m]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return m


def batch_wait(spans: Spans, win: np.ndarray) -> float:
    """Seconds a training step waits for its batch: from an sgd_step's end to
    the first network call after it, summed over such calls in the windows."""
    sgd = spans.ids.get("tensor.sgd_step")
    net = spans.ids.get(NET_CALL)
    if sgd is None or net is None:
        return 0.0
    sgd_end = np.sort(spans.end[spans.name_id == sgd])
    is_net = spans.name_id == net
    net_start = spans.start[is_net]          # spans are stored in start order
    previous = np.concatenate(([-np.inf], net_start[:-1]))
    k = np.searchsorted(sgd_end, net_start) - 1
    # a step's forward is the first network call after its sgd_step
    first = (k >= 0) & win[is_net]
    first[first] &= sgd_end[k[first]] > previous[first]
    return float((net_start[first] - sgd_end[k[first]]).sum())


def accounting(spans: Spans, windows, units: int) -> dict[str, float]:
    """Self time per layer in ms per unit of work, a partition of the traced
    time: network work by block scope (forward or backward), everything else
    by span name.  ``unspanned`` is window time no span covers, such as the
    loop around the calls."""
    win = spans.within(windows)
    per = 1e3 / max(units, 1)
    scope_names = np.array(spans.names, dtype=object)
    out: dict[str, float] = {}
    codes = spans.name_id[win].astype(np.int64) * len(spans.names) + spans.scope_id[win]
    weights = spans.self_time[win]
    bwd = spans.is_bwd[win]
    for code in np.unique(codes):
        sel = codes == code
        name = scope_names[code // len(spans.names)]
        scope = scope_names[code % len(spans.names)]
        backward = bool(bwd[sel][0])
        if scope != NO_SCOPE and (scope.startswith("blocks.") or scope == LOSS_SCOPE):
            key = f"{scope}.{'bwd' if backward else 'fwd'}"
        else:
            key = name
        out[key] = out.get(key, 0.0) + float(weights[sel].sum()) * per
    covered = sum(out.values())
    window_ms = sum(hi - lo for lo, hi in windows) * per
    out["unspanned"] = window_ms - covered
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
