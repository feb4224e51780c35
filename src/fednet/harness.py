"""Training loop, two-stage inference, evaluation, the ablation grid, and the
gradient-check suite.

Everything here is deterministic for a given (config, seed) under one
OpenBLAS kernel: data sampling, augmentation, initialization and batch order
are all driven by streams derived from the config seed, and BLAS runs on one
thread, so identical runs produce byte-identical checkpoints.

Inference uses up to two CPUs: :func:`predict_volume` runs each round of
slices as two forward passes at once, one on the calling thread and one on a
worker thread, and ``PREDICT_PIXELS`` bounds the slices of both passes
together.  Every op computes each slice on its own, so neither the split nor
the thread that runs a pass changes any probability.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import itertools
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from . import checkpoint, ops
from .blocks import (DUC, RCB, DecoderBlock, Encoder, FeatureFusion, FedNet,
                     NetworkSpec, SEBlock, UpsampleConv, check_slice_size)
from .config import TrainConfig
from .losses import (LossWeights, combined_loss, combined_loss_with_logits, dice_global,
                     dice_per_case)
from .pipeline import (check_slice_indices, flip_augment, hierarchical_postprocess,
                       hu_window_normalize, largest_component, sample_slices,
                       stack_adjacent_slices, threshold_mask)
from .tensor import (FlatParameters, GradCheckReport, Tape, Tensor, backward,
                     clip_gradients, grad_check, sgd_step)
from .volume import Volume, check_out_dir, read_mvol

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

CT_SUFFIX = "_ct.mvol"
SEG_SUFFIX = "_seg.mvol"

# Training stops once the pre-clip gradient norm has been exactly 0 for this
# many consecutive iterations: no parameter can move again, so the network is
# dead and further iterations only burn time.
DEAD_GRADIENT_ITERATIONS = 10

# numpy's wheels bundle OpenBLAS here; its thread-count setter under each
# build's symbol name
OPENBLAS_GLOB = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                             "*openblas*")
OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                        "openblas_set_num_threads")

# Pixels per round of predict_volume: a round holds at most
# max(1, PREDICT_PIXELS // (ny * nx)) slices, 32 at 64 px, 8 at 128 px (the
# memory of the former fixed 8-slice pass), 2 at 256 px and 1 at 512 px.
# With the worker, a round's two halves run as two passes at once, so the
# budget covers the passes running at once.  Every op computes each sample
# on its own, so round and pass sizes bound memory and do not change any
# result.  Each pass pays the same per-op overhead of about 110 op calls, so
# fewer, larger passes are faster until one spills the cache.  ms per
# cascade stage at 64 px, fixed chunks run one at a time on one thread, on a
# 2-vCPU Xeon, one BLAS thread, 30-iteration checkpoints: the median of 15
# interleaved rounds, then the range of the medians of three later runs of
# 30 rounds each:
#   slices/pass   liver, 48 slices                lesion, 27 slices
#    8            33.3   30.4-31.2                37.7   36.1-38.2
#   16            28.0   28.4-29.4                32.5   31.0-33.3
#   24            27.8   24.5-28.6                32.9   31.1-33.9
#   32            27.7   27.3-29.4 (32 + 16)      30.1   29.6-31.7 (one pass)
#   48            35.2   31.3-34.0 (cache spill)  30.1   34.3-37.0
# Balanced passes (48 -> 24 + 24) measured the same as 32 + 16.  The later
# runs' 48-slice lesion figure is the same single pass as at 32, slowed by
# the 48-slice liver pass run just before it.
PREDICT_PIXELS = 32 * 64 * 64

# glibc's mallopt parameter for the most malloc arenas a process may use
M_ARENA_MAX = -8


class TrainingDiverged(RuntimeError):
    pass


class DatasetError(ValueError):
    pass


class BlasError(RuntimeError):
    pass


@dataclass
class MetricsReport:
    per_case_dice: float
    global_dice: float
    loss_curve: list[float] = field(default_factory=list)  # one loss per iteration
    runtime_seconds: float = 0.0

    def lines(self) -> str:
        """Tab-separated ``name<TAB>value`` report for machine parsing."""
        rows = [
            ("per_case_dice", f"{self.per_case_dice:.6f}"),
            ("global_dice", f"{self.global_dice:.6f}"),
            ("runtime_seconds", f"{self.runtime_seconds:.3f}"),
        ]
        if self.loss_curve:
            rows.append(("loss_first", f"{self.loss_curve[0]:.6f}"))
            rows.append(("loss_last", f"{self.loss_curve[-1]:.6f}"))
        return "\n".join(f"{k}\t{v}" for k, v in rows)


# ---------------------------------------------------------------------------
# Dataset handling
# ---------------------------------------------------------------------------


def check_ct(dtype, source) -> None:
    """A one-line :class:`DatasetError` naming ``source`` and ``dtype``
    unless a CT's voxel ``dtype`` is int16 HU, the only input that HU
    windowing accepts.  A float volume is most likely windowed already:
    windowing it again would squeeze every voxel into [0.4444, 0.4467]."""
    if dtype != np.int16:
        raise DatasetError(f"{source}: a CT volume must hold int16 HU, got "
                           f"{dtype}; a windowed volume cannot be windowed again")


def load_dataset(data_dir) -> list[tuple[str, Volume, Volume]]:
    """Load (name, ct, seg) triples from ``data_dir`` in sorted name order;
    ``<name>`` + CT_SUFFIX pairs with ``<name>`` + SEG_SUFFIX."""
    root = Path(data_dir)
    if not root.is_dir():
        raise DatasetError(f"data directory {data_dir!r} does not exist")
    cts = {p.name[:-len(CT_SUFFIX)]: p for p in root.glob(f"*{CT_SUFFIX}")}
    segs = {p.name[:-len(SEG_SUFFIX)]: p for p in root.glob(f"*{SEG_SUFFIX}")}
    for kind, files, partners in (("CT", segs, cts), ("segmentation", cts, segs)):
        orphans = sorted(files.keys() - partners.keys())
        if orphans:
            raise DatasetError(f"missing {kind} for {files[orphans[0]].name}")
    if not cts:
        raise DatasetError(f"no *{CT_SUFFIX} volumes found in {data_dir!r}")
    out = []
    for name, ct_path in sorted(cts.items()):
        ct = read_mvol(ct_path)
        check_ct(ct.voxels.dtype, ct_path)
        check_slice_size(ct.voxels.shape, ct_path)
        seg_path = segs[name]
        seg = read_mvol(seg_path)
        labels = seg.voxels
        if labels.dtype != np.uint8 or labels.max() > 2:
            found = f"largest label {labels.max()}" if labels.dtype == np.uint8 else labels.dtype
            raise DatasetError(f"{seg_path}: a segmentation must hold uint8 labels in "
                               f"{{0, 1, 2}}, got {found}")
        if ct.voxels.shape != seg.voxels.shape:
            raise DatasetError(f"{name}: ct and seg dims differ")
        out.append((name, ct, seg))
    return out


def stage_targets(seg: np.ndarray, stage: str):
    """(target, eligible) slice selection for a training stage.

    Liver stage: every slice is eligible and the target is any organ label.
    Lesion stage: only liver-containing slices are eligible and the target is
    the lesion label.
    """
    if stage == "liver":
        target = (seg >= 1).astype(np.uint8)
        eligible = np.ones(seg.shape[0], dtype=bool)
    elif stage == "lesion":
        target = (seg == 2).astype(np.uint8)
        eligible = (seg >= 1).any(axis=(1, 2))
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return target, eligible


def _sample_stream(prepared, cfg: TrainConfig, aug_rng: np.random.Generator) -> Iterator:
    """Endless deterministic stream of augmented (image [3,H,W], target
    [1,H,W]) samples of HU from (int16 CT, target, eligible) triples.

    Each volume gets one vector of keep probabilities, built once: ``p_pos``
    for an eligible slice whose target contains foreground, ``p_neg`` for
    another eligible slice, and 0 for an ineligible one.  Each epoch draws
    every volume's slices against its vector with a seed derived from
    (config seed, epoch, volume index); within an epoch the order is volumes
    sorted by name, slices ascending.  A sample is built only when it is
    drawn.  If every probability is 0, the first draw raises a
    :class:`DatasetError` instead.
    """
    keep_ps = [np.where(eligible, np.where(target.any(axis=(1, 2)), cfg.p_pos, cfg.p_neg), 0.0)
               for _, target, eligible in prepared]
    if not any(keep_p.any() for keep_p in keep_ps):
        n_eligible = sum(int(eligible.sum()) for _, _, eligible in prepared)
        raise DatasetError(f"no slice can be drawn: p_pos={cfg.p_pos} and p_neg={cfg.p_neg} "
                           f"over {n_eligible} eligible slices")
    for epoch in itertools.count():
        for vol_idx, ((ct, target, _), keep_p) in enumerate(zip(prepared, keep_ps)):
            seed = np.random.SeedSequence([cfg.seed, epoch, vol_idx])
            for z in sample_slices(keep_p, seed):
                yield flip_augment(stack_adjacent_slices(ct, z), target[z][None], aug_rng)


@functools.cache
def _openblas_set_num_threads():
    """OpenBLAS's thread-count setter, looked up once per process; a
    :class:`BlasError` if no bundled library has one."""
    for path in sorted(glob.glob(OPENBLAS_GLOB)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in OPENBLAS_SET_THREADS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                return setter
    raise BlasError(f"no OpenBLAS thread-count setter found in {OPENBLAS_GLOB}; "
                    f"training and inference need one BLAS thread to be deterministic")


def build_network(cfg: TrainConfig, stage: Optional[str] = None,
                  init: bool = True) -> FedNet:
    """Network for a stage: the liver stage uses the baseline (all ablation
    flags off), the lesion stage uses the configured flags.  Weights are drawn
    from the config seed's init stream, or are zero with ``init=False``, for
    a network whose values are loaded next.

    Training and inference both start here, so this is where BLAS is set to
    one thread: OpenBLAS's GEMM sums can depend on how it splits a product
    over threads, and a checkpoint must not depend on the thread count."""
    _openblas_set_num_threads()(1)
    stage = stage or cfg.stage
    spec = cfg.network.baseline() if stage == "liver" else cfg.network
    init_rng = (np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF0]))
                if init else None)
    return FedNet(spec, rng=init_rng)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(cfg: TrainConfig, save: bool = True) -> tuple[dict[str, np.ndarray], MetricsReport]:
    """Run the configured number of SGD iterations and report training-set
    Dice.  Returns the parameter values and writes them as a FEDCKPT1
    checkpoint unless ``save`` is False.

    The optimizer state is training's own: the network's parameter values
    move into one flat array (:class:`~fednet.tensor.FlatParameters`), and
    the SGD momentum is one flat array beside it.  The gradients stay per
    parameter; clipping and the update gather them a chunk at a time, after
    backward has freed the tape's activations, so no full-size gradient
    copy is made.  The CTs stay int16 HU: a batch is windowed as it is stacked.

    The loss is :func:`~fednet.losses.combined_loss_with_logits` on the
    network's logits, so a saturated output still gets a gradient.  Aborts
    with :class:`TrainingDiverged`, naming the iteration, on a non-finite
    loss, on a non-finite pre-clip gradient norm (before ``sgd_step``), or
    when the pre-clip gradient norm has been exactly 0 for
    ``DEAD_GRADIENT_ITERATIONS`` consecutive iterations.  With ``save``, a
    missing checkpoint directory is rejected before any data is loaded.
    """
    started = time.perf_counter()
    if save:
        check_out_dir(cfg.checkpoint_out)
    volumes = load_dataset(cfg.data_dir)
    # a batch stacks single slices, so only the in-plane dims must agree
    planes = {ct.dims[:2] for _, ct, _ in volumes}
    if len(planes) > 1:
        raise DatasetError(f"training batches need uniform volume dims in-plane "
                           f"(nx, ny), got {sorted(planes)}")
    # (int16 CT, stage target, eligible slices) per volume
    prepared = [(ct.voxels, *stage_targets(seg.voxels, cfg.stage)) for _, ct, seg in volumes]
    net = build_network(cfg)
    flat = FlatParameters(net.parameters())
    velocity = np.zeros_like(flat.values)  # SGD momentum
    aug_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA0]))
    stream = _sample_stream(prepared, cfg, aug_rng)

    curve: list[float] = []
    zero_norm_run = 0
    for it in range(cfg.iterations):
        batch = [next(stream) for _ in range(cfg.batch_size)]
        xb = Tensor(hu_window_normalize(np.stack([image for image, _ in batch])))
        yb = Tensor(np.stack([target for _, target in batch], dtype=np.float32))
        with Tape() as tape:
            loss = combined_loss_with_logits(yb, net(xb), cfg.loss)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss at iteration {it}")
        backward(loss, tape)
        norm = clip_gradients(flat, cfg.grad_clip)
        if not np.isfinite(norm):
            # a NaN norm skips clipping, and sgd_step would write NaN into
            # every parameter
            raise TrainingDiverged(f"non-finite gradient norm {norm} at iteration {it}")
        zero_norm_run = zero_norm_run + 1 if norm == 0.0 else 0
        if zero_norm_run >= DEAD_GRADIENT_ITERATIONS:
            raise TrainingDiverged(
                f"gradient norm exactly 0 for {zero_norm_run} consecutive iterations "
                f"at iteration {it}: the network is saturated")
        sgd_step(flat, velocity, cfg.lr, cfg.momentum, cfg.weight_decay)
        curve.append(value)

    # the momentum is training state only; freed, its memory serves the
    # Dice passes' larger forward passes
    del velocity
    arrays = checkpoint.state_arrays(net)
    if save:
        checkpoint.save_checkpoint(cfg.checkpoint_out, arrays)

    per_case, global_ = training_set_dice(net, prepared, cfg)
    report = MetricsReport(per_case, global_, curve, time.perf_counter() - started)
    return arrays, report


@functools.cache
def _predict_worker() -> Optional[ThreadPoolExecutor]:
    """The one worker thread of :func:`predict_volume`, made on first use;
    None where this process may run on one CPU only.

    Before the worker exists, malloc is held to one arena, so the worker
    allocates from the caller's heap: in an arena of its own, the freed
    buffers of its passes stayed resident and raised the peak RSS of
    inference by 5-16 MB."""
    if len(os.sched_getaffinity(0)) < 2:
        return None
    # imported here: concurrent.futures loads logging, 0.5 MB of RSS that a
    # process which never predicts need not pay
    from concurrent.futures import ThreadPoolExecutor
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_ARENA_MAX, 1)
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fednet-predict")


# a forked child has no thread behind its parent's worker, so it makes its own
os.register_at_fork(after_in_child=_predict_worker.cache_clear)


def _probabilities(net: FedNet, x: np.ndarray) -> np.ndarray:
    return ops.sigmoid(net(Tensor(x))).data[:, 0]


def predict_volume(net: FedNet, ct: np.ndarray, z_indices: Sequence[int],
                   threshold: float) -> np.ndarray:
    """uint8 mask of the listed z indices of an int16 HU ``ct``: the sigmoid
    of the network's logits at ``threshold``, other slices 0.  The dtype
    (:func:`check_ct`) and every index are checked before the first forward
    pass.

    The slices go through in the fewest rounds of balanced size that each
    hold at most the slices that fit in ``PREDICT_PIXELS`` pixels, at least
    one.  The calling thread stacks and windows a round's input
    (:func:`hu_window_normalize`) while no pass runs, and thresholds each
    pass (:func:`threshold_mask`) in ``z_indices`` order.
    Where :func:`_predict_worker` gives a worker, it runs the second half of
    a round of two slices or more while the caller runs the first half; the
    round ends only once both passes have ended, also when one raises."""
    check_ct(ct.dtype, "predict_volume")
    nz, ny, nx = ct.shape
    z_indices = np.asarray(z_indices)
    check_slice_indices(z_indices, nz)
    mask = np.zeros(ct.shape, dtype=np.uint8)
    n = z_indices.size
    rounds = -(-n // max(1, PREDICT_PIXELS // (ny * nx)))
    worker = _predict_worker()
    for r in range(rounds):
        chunk = z_indices[r * n // rounds:(r + 1) * n // rounds]
        x = hu_window_normalize(stack_adjacent_slices(ct, chunk))
        if worker is None or chunk.size == 1:
            mask[chunk] = threshold_mask(_probabilities(net, x), threshold)
            continue
        half = (chunk.size + 1) // 2
        theirs = worker.submit(_probabilities, net, x[half:])
        try:
            mask[chunk[:half]] = threshold_mask(_probabilities(net, x[:half]), threshold)
        finally:
            theirs.exception()  # waits for the worker's pass, raising nothing
        mask[chunk[half:]] = threshold_mask(theirs.result(), threshold)
    return mask


def training_set_dice(net: FedNet, prepared, cfg: TrainConfig) -> tuple[float, float]:
    """Stage-appropriate Dice of the network against its training targets,
    from the training set's (int16 CT, target, eligible) triples.

    Lesion stage: predictions on ground-truth liver slices thresholded at the
    lesion threshold versus the lesion labels.  Liver stage: predictions on
    all slices at the liver threshold versus the organ labels.
    """
    threshold = cfg.liver_threshold if cfg.stage == "liver" else cfg.lesion_threshold
    cases = [(predict_volume(net, ct, np.nonzero(eligible)[0], threshold), target)
             for ct, target, eligible in prepared]
    return dice_per_case(cases), dice_global(cases)


# ---------------------------------------------------------------------------
# Two-stage inference and evaluation
# ---------------------------------------------------------------------------


def load_two_stage(cfg: TrainConfig, liver_ckpt, lesion_ckpt) -> tuple[FedNet, FedNet]:
    """The (liver, lesion) networks of the cascade, each built without an
    initial draw and loaded from its FEDCKPT1 file; load once, then
    :func:`segment` any number of volumes."""
    nets = []
    for stage, path in (("liver", liver_ckpt), ("lesion", lesion_ckpt)):
        net = build_network(cfg, stage=stage, init=False)
        checkpoint.load_parameters(net, path)
        nets.append(net)
    return nets[0], nets[1]


def segment(cfg: TrainConfig, liver_net: FedNet, lesion_net: FedNet,
            volume: Volume) -> Volume:
    """Two-stage segmentation of one CT volume with loaded networks.

    Stage 1 runs the baseline liver network on every slice; the thresholded
    largest component selects the slices the lesion network sees.  The final
    mask is the lesion mask restricted to that component's bounding box; an
    empty liver yields an empty mask.  The CT must hold int16 HU, which
    :func:`predict_volume` checks before its first pass.
    """
    liver_mask = largest_component(
        predict_volume(liver_net, volume.voxels, range(len(volume.voxels)), cfg.liver_threshold),
        cfg.connectivity)
    liver_z = np.nonzero(liver_mask.any(axis=(1, 2)))[0]
    lesion_mask = predict_volume(lesion_net, volume.voxels, liver_z, cfg.lesion_threshold)
    return Volume(hierarchical_postprocess(liver_mask, lesion_mask), volume.spacing)


def infer(cfg: TrainConfig, liver_ckpt, lesion_ckpt, volume: Volume) -> Volume:
    """Two-stage segmentation of one CT volume from the two checkpoint paths:
    :func:`load_two_stage` then :func:`segment`.  Over several volumes, load
    once and call :func:`segment` for each."""
    return segment(cfg, *load_two_stage(cfg, liver_ckpt, lesion_ckpt), volume)


def evaluate(pred_dir, gt_dir, gt_label: Optional[int] = None) -> MetricsReport:
    """Per-case and pooled Dice over matching ``*.mvol`` files in two
    directories.  A prediction is a uint8 mask of 0s and 1s, as :func:`infer`
    writes, and a ground truth holds uint8 labels.  ``gt_label`` selects one
    ground-truth label as foreground; by default any nonzero voxel is
    foreground, and must be a label a uint8 ground truth can hold."""
    if gt_label is not None and not 0 <= gt_label <= 255:
        raise DatasetError(f"gt_label must lie in [0, 255], the labels a uint8 ground "
                           f"truth holds, got {gt_label}")
    started = time.perf_counter()
    pred_root, gt_root = Path(pred_dir), Path(gt_dir)
    for kind, path in (("prediction", pred_dir), ("ground-truth", gt_dir)):
        if not Path(path).is_dir():
            raise DatasetError(f"{kind} directory {path!r} does not exist")
    preds = {p.name: p for p in sorted(pred_root.glob("*.mvol"))}
    gts = {p.name: p for p in sorted(gt_root.glob("*.mvol"))}
    if not preds:
        raise DatasetError(f"no .mvol files in {pred_dir!r}")
    unpaired = sorted(set(preds) ^ set(gts))
    if unpaired:
        raise DatasetError(f"unpaired files between {pred_dir!r} and {gt_dir!r}: {unpaired}")
    cases = []
    for name in sorted(preds):
        pv = read_mvol(preds[name]).voxels
        gv = read_mvol(gts[name]).voxels
        if pv.dtype != np.uint8 or pv.max(initial=0) > 1:
            found = f"largest value {pv.max()}" if pv.dtype == np.uint8 else pv.dtype
            raise DatasetError(f"{preds[name]}: a prediction must be a uint8 mask of 0s "
                               f"and 1s, got {found}")
        if gv.dtype != np.uint8:
            raise DatasetError(f"{gts[name]}: a ground truth must hold uint8 labels, "
                               f"got {gv.dtype}")
        if pv.shape != gv.shape:
            raise DatasetError(f"{name}: prediction and ground-truth dims differ, "
                               f"{pv.shape} vs {gv.shape}")
        gt_mask = (gv == gt_label) if gt_label is not None else (gv != 0)
        cases.append(((pv != 0), gt_mask))
    return MetricsReport(dice_per_case(cases), dice_global(cases),
                         runtime_seconds=time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Ablation grid
# ---------------------------------------------------------------------------

ABLATION_ROWS: list[tuple[str, dict]] = [
    ("Baseline", dict(enable_rcb=False, enable_ff=False, enable_se=False, enable_duc=False)),
    ("Baseline + RCB", dict(enable_rcb=True, enable_ff=False, enable_se=False, enable_duc=False)),
    ("Baseline + FF", dict(enable_rcb=False, enable_ff=True, enable_se=False, enable_duc=False)),
    ("Baseline + FF with SE-Block",
     dict(enable_rcb=False, enable_ff=True, enable_se=True, enable_duc=False)),
    ("Baseline + DUC", dict(enable_rcb=False, enable_ff=False, enable_se=False, enable_duc=True)),
    ("Baseline + RCB + FF + DUC",
     dict(enable_rcb=True, enable_ff=True, enable_se=True, enable_duc=True)),
]


def ablate(cfg: TrainConfig) -> tuple[list[tuple[str, float, float]], str]:
    """Train and evaluate the six flag combinations from one shared seed and
    dataset; returns the rows and a tab-separated table."""
    rows = []
    for label, flags in ABLATION_ROWS:
        variant = replace(cfg, stage="lesion", network=replace(cfg.network, **flags))
        _, report = train(variant, save=False)
        rows.append((label, report.per_case_dice, report.global_dice))
    lines = ["Model\tPer case\tGlobal"]
    lines += [f"{label}\t{pc:.4f}\t{gl:.4f}" for label, pc, gl in rows]
    return rows, "\n".join(lines)


# ---------------------------------------------------------------------------
# Gradient-check suite
# ---------------------------------------------------------------------------


def _suite_rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([0xC0FFEE, tag]))


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=False)


def gradcheck_suite(names: Optional[Sequence[str]] = None, tol: float = 1e-4
                    ) -> list[GradCheckReport]:
    """Finite-difference checks for every differentiable op and composite
    block at verification precision, one :class:`GradCheckReport` per check
    with its ``name`` and ``seconds`` set.  ``names`` filters the checks to
    run; a name the suite does not know is a ValueError."""
    f64 = np.float64
    toy = NetworkSpec(base_channels=4, se_reduction=4)

    def conv_input():
        rng = _suite_rng(1)
        w, b = _rand(rng, (4, 3, 3, 3)), _rand(rng, (4,))
        x = Tensor(rng.uniform(-1, 1, (2, 3, 6, 7)), requires_grad=True)
        return lambda t: ops.conv2d(t, w, b, 1, 1), x

    def conv_weight():
        rng = _suite_rng(2)
        x, b = _rand(rng, (2, 3, 6, 6)), _rand(rng, (4,))
        w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)), requires_grad=True)
        return lambda t: ops.conv2d(x, t, b, 2, 1), w

    def conv_weight_deep():
        # 8 output channels on a 2x2 map: the weight gradient is one GEMM
        # over the whole batch (ops.sum_matmul_t)
        rng = _suite_rng(26)
        x, b = _rand(rng, (2, 4, 2, 2)), _rand(rng, (8,))
        w = Tensor(rng.uniform(-1, 1, (8, 4, 3, 3)), requires_grad=True)
        return lambda t: ops.conv2d(x, t, b, 1, 1), w

    def convt_input():
        rng = _suite_rng(3)
        w, b = _rand(rng, (3, 4, 2, 2)), _rand(rng, (4,))
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 5)), requires_grad=True)
        return lambda t: ops.conv_transpose2d(t, w, b, 2, 0), x

    def convt_weight():
        rng = _suite_rng(4)
        x, b = _rand(rng, (2, 3, 4, 4)), _rand(rng, (4,))
        w = Tensor(rng.uniform(-1, 1, (3, 4, 3, 3)), requires_grad=True)
        return lambda t: ops.conv_transpose2d(x, t, b, 2, 1), w

    def dense_input():
        rng = _suite_rng(5)
        w, b = _rand(rng, (5, 4)), _rand(rng, (5,))
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        return lambda t: ops.dense(t, w, b), x

    def dense_weight():
        rng = _suite_rng(6)
        x, b = _rand(rng, (3, 4)), _rand(rng, (5,))
        w = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
        return lambda t: ops.dense(x, t, b), w

    def relu_check():
        rng = _suite_rng(7)
        # keep inputs away from the kink so central differences are valid
        mag = rng.uniform(0.1, 1.0, (2, 3, 5, 5))
        sign = rng.choice([-1.0, 1.0], size=mag.shape)
        x = Tensor(mag * sign, requires_grad=True)
        return lambda t: ops.relu(t), x

    def sigmoid_check():
        rng = _suite_rng(8)
        x = Tensor(rng.uniform(-4, 4, (2, 3, 4, 4)), requires_grad=True)
        return lambda t: ops.sigmoid(t), x

    def gap_check():
        rng = _suite_rng(9)
        x = Tensor(rng.uniform(-1, 1, (2, 4, 5, 3)), requires_grad=True)
        return lambda t: ops.global_avg_pool(t), x

    def upsample_check():
        rng = _suite_rng(10)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4, 5)), requires_grad=True)
        return lambda t: ops.upsample_nearest(t, 3), x

    def shuffle_check():
        rng = _suite_rng(11)
        x = Tensor(rng.uniform(-1, 1, (2, 8, 3, 4)), requires_grad=True)
        return lambda t: ops.pixel_shuffle(t, 2), x

    def fold_check():
        rng = _suite_rng(20)
        w = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)), requires_grad=True)
        return lambda t: ops.subpixel_fold(t, 2), w

    def tile_check():
        rng = _suite_rng(21)
        b = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
        return lambda t: ops.subpixel_tile(t, 2), b

    def fold_1x1_weight():
        rng = _suite_rng(23)
        b, v, c = _rand(rng, (8,)), _rand(rng, (2, 2, 1, 1)), _rand(rng, (2,))
        w = Tensor(rng.uniform(-1, 1, (8, 2, 3, 3)), requires_grad=True)
        return lambda t: ops.fold_1x1(t, b, v, c, 4)[0], w

    def fold_1x1_second_weight():
        rng = _suite_rng(24)
        w, b, c = _rand(rng, (8, 2, 3, 3)), _rand(rng, (8,)), _rand(rng, (2,))
        v = Tensor(rng.uniform(-1, 1, (2, 2, 1, 1)), requires_grad=True)

        def f(t):
            # v reaches both outputs: per output channel, the response to an
            # all-ones patch
            w_out, b_out = ops.fold_1x1(w, b, t, c, 4)
            return w_out.sum(axis=(1, 2, 3)) + b_out

        return f, v

    def se_check():
        rng = _suite_rng(12)
        block = SEBlock(8, 4, rng).astype(f64)
        x = Tensor(rng.uniform(-1, 1, (2, 8, 4, 4)), requires_grad=True)
        return lambda t: block(t), x

    def rcb_check():
        rng = _suite_rng(13)
        block = RCB(4, rng).astype(f64)
        x = Tensor(rng.uniform(0.05, 1.0, (2, 4, 5, 5)), requires_grad=True)
        return lambda t: block(t), x

    def fuse_check():
        rng = _suite_rng(14)
        block = FeatureFusion((4, 8), 4, True, rng).astype(f64)
        hi = Tensor(rng.uniform(-1, 1, (1, 8, 2, 3)))
        x = Tensor(rng.uniform(-1, 1, (1, 4, 4, 6)), requires_grad=True)

        def f(t):
            fused = block([t, hi])
            # scalar combination with distinct weights so neither output hides;
            # means keep the functional O(1) for finite differences
            return fused[0].mean() + fused[1].mean() * 0.7

        return f, x

    def duc_check():
        rng = _suite_rng(15)
        block = DUC(4, 3, 2, rng).astype(f64)
        x = Tensor(rng.uniform(-1, 1, (2, 4, 3, 4)), requires_grad=True)
        return lambda t: block(t), x

    def upconv_check():
        rng = _suite_rng(22)
        block = UpsampleConv(3, 2, 2, rng).astype(f64)
        block.conv.b.data[...] = rng.uniform(-1, 1, 2)
        # 2 output channels < 6 pixels: the sub-pixel form
        x = Tensor(rng.uniform(-1, 1, (2, 3, 2, 3)), requires_grad=True)
        return lambda t: block(t), x

    def decoder_check():
        rng = _suite_rng(16)
        block = DecoderBlock(8, 4, rng).astype(f64)
        x = Tensor(rng.uniform(-1, 1, (2, 8, 3, 3)), requires_grad=True)
        return lambda t: block(t), x

    def encoder_check():
        rng = _suite_rng(17)
        enc = Encoder(3, toy.channels_per_level, True, rng).astype(f64)
        coeffs = (1.0, 0.7, 1.3, 0.9)

        def f(t):
            # per-sample means, so the stacked copies of grad_check stay apart
            acc = None
            for level, c in zip(enc(t), coeffs):
                term = level.sum(axis=(1, 2, 3)) * (c / (level.size // level.shape[0]))
                acc = term if acc is None else acc + term
            return acc

        x = Tensor(rng.uniform(-1, 1, (1, 3, 32, 32)), requires_grad=True)
        return f, x

    def fednet_check():
        rng = _suite_rng(18)
        net = FedNet(toy, rng=rng).astype(f64)
        x = Tensor(rng.uniform(-1, 1, (1, 3, 32, 32)), requires_grad=True)
        return lambda t: ops.sigmoid(net(t)), x

    def loss_check():
        rng = _suite_rng(19)
        y = Tensor(rng.integers(0, 2, (2, 1, 5, 5)).astype(f64))
        w = LossWeights()
        x = Tensor(rng.uniform(0.05, 0.95, (2, 1, 5, 5)), requires_grad=True)
        return lambda t: combined_loss(y, t, w), x

    def logits_loss_check():
        # the form training minimizes
        rng = _suite_rng(25)
        y = Tensor(rng.integers(0, 2, (2, 1, 5, 5)).astype(f64))
        x = Tensor(rng.uniform(-4, 4, (2, 1, 5, 5)), requires_grad=True)
        return lambda t: combined_loss_with_logits(y, t, LossWeights()), x

    # (name, builder, samplewise): samplewise where x has the batch axis and
    # f does not reduce across it, so grad_check may stack perturbed copies
    registry = [
        ("conv2d/input", conv_input, True),
        ("conv2d/weight", conv_weight, False),
        ("conv2d/weight_deep", conv_weight_deep, False),
        ("conv_transpose2d/input", convt_input, True),
        ("conv_transpose2d/weight", convt_weight, False),
        ("dense/input", dense_input, True),
        ("dense/weight", dense_weight, False),
        ("relu", relu_check, True),
        ("sigmoid", sigmoid_check, True),
        ("global_avg_pool", gap_check, True),
        ("upsample_nearest", upsample_check, True),
        ("pixel_shuffle", shuffle_check, True),
        ("subpixel_fold/weight", fold_check, True),
        ("subpixel_tile/bias", tile_check, True),
        ("fold_1x1/weight", fold_1x1_weight, False),
        ("fold_1x1/1x1_weight", fold_1x1_second_weight, False),
        ("se_block", se_check, True),
        ("rcb", rcb_check, True),
        ("feature_fuse", fuse_check, False),
        ("duc_block", duc_check, True),
        ("upsample_conv_block", upconv_check, True),
        ("decoder_block", decoder_check, True),
        ("encoder", encoder_check, True),
        ("fednet_forward", fednet_check, True),
        ("combined_loss", loss_check, False),
        ("combined_loss_with_logits", logits_loss_check, False),
    ]
    unknown = sorted(set(names or ()) - {name for name, _, _ in registry})
    if unknown:
        raise ValueError(f"gradcheck_suite: unknown check names {unknown}")
    results = []
    for name, builder, samplewise in registry:
        if names is not None and name not in names:
            continue
        started = time.perf_counter()
        f, x = builder()
        report = grad_check(f, x, tol, samplewise=samplewise)
        results.append(replace(report, name=name, seconds=time.perf_counter() - started))
    return results
