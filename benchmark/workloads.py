"""The three benchmark workloads: set-up, the timed closed loop, and the
checks on what the program returned.

Each workload is closed loop with one client: the next operation starts when
the previous one has returned.  Only the generated inputs reach the program;
the workload seed never does, except where it *is* an input (the training
seed of ``train_lesion``).

The untraced run observes the program through a few probes that cost well
under a microsecond per operation: a timestamp after each ``sgd_step``, the
norm ``clip_gradients`` returns, the loss handed to ``backward``, the
stage-1 liver mask ``infer`` keeps, and the time of each gradient check.
The same probes give ``pace.Pacer`` its chances to sample the host's speed
between operations.  Per-layer spans are installed only in the traced run
(see ``tracer.py``).
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fednet import checkpoint, harness, pipeline, synth, tensor, volume
from fednet.config import TrainConfig
from pace import MIXED, Pacer

DIMS = (64, 64, 48)            # phantom size (nx, ny, nz)
BATCH = 8                      # slices per training step, each 3x64x64
TRAIN_PHANTOMS = 4             # training volumes for train_lesion
TRAIN_ITERATIONS = 300         # the default training recipe
# infer_two_stage: checkpoints trained in set-up on a fixed phantom set, so
# every seed runs the same networks and only the held-out volumes vary.
CKPT_DATA_SEED = 20_190_327
CKPT_TRAIN_SEED = 1
LIVER_ITERATIONS = 30
LESION_ITERATIONS = 30
HELD_OUT_BATCH = 8             # held-out phantoms generated per batch, untimed


@dataclass
class Outcome:
    """What one timed run measured and checked."""

    op_windows: list[tuple[float, float]]       # (start, end) of each timed operation
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)   # failed output checks
    quality: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    lines: list[tuple[str, object]] = field(default_factory=list)
    window: list[tuple[float, float]] = field(default_factory=list)


class Probe:
    """Rebinds a fednet module attribute for the length of a run."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, name: str, make: Callable) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make(original))

    def restore(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def write_phantoms(directory: Path, seed: int, count: int, pacer: Pacer) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for idx, (ct, seg) in enumerate(synth.synth_generate(seed, count, DIMS)):
        volume.write_mvol(ct, directory / f"case{idx:03d}{harness.CT_SUFFIX}")
        volume.write_mvol(seg, directory / f"case{idx:03d}{harness.SEG_SUFFIX}")
        pacer.tick()


def ticking(pacer: Pacer) -> Callable:
    """Probe factory: sample the host's speed after each call."""
    def make(fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            pacer.tick()
            return result
        return wrapped
    return make


def closed_loop(seconds: float, operation: Callable[[], object]) -> int:
    """Run ``operation`` back to back; stop before one that would end past
    ``seconds``, judged by the previous one's duration.  Runs at least once."""
    started = time.perf_counter()
    runs = 0
    while True:
        t0 = time.perf_counter()
        operation()
        runs += 1
        now = time.perf_counter()
        if now - started + (now - t0) > seconds:
            return runs


# ---------------------------------------------------------------------------
# train_lesion
# ---------------------------------------------------------------------------


def setup_train(work: Path, seed: int, pacer: Pacer) -> dict:
    data = work / "data"
    write_phantoms(data, seed, TRAIN_PHANTOMS, pacer)
    cfg = TrainConfig(stage="lesion", data_dir=str(data), seed=seed, batch_size=BATCH,
                      iterations=TRAIN_ITERATIONS,
                      checkpoint_out=str(work / "lesion.fedckpt"))
    cfg.validate()
    # warm-up: dataset read, network build and one full-size forward and
    # backward, so BLAS threads and allocator pools exist before timing
    volumes = harness.load_dataset(cfg.data_dir)
    net = harness.build_network(cfg)
    pacer.tick()
    norm = pipeline.hu_window_normalize(volumes[0][1].voxels)
    xb = tensor.Tensor(np.stack([pipeline.stack_adjacent_slices(norm, z)
                                 for z in range(BATCH)]))
    with tensor.Tape() as tape:
        loss = net(xb).mean()
    tensor.backward(loss, tape)
    return {"cfg": cfg}


def measure_train(ctx: dict, seconds: float, pacer: Pacer, tracer=None) -> Outcome:
    cfg: TrainConfig = ctx["cfg"]
    step_end: list[float] = []
    norms: list[float] = []
    losses: list[float] = []

    def loss_probe(backward):
        def wrapped(root, tape):
            losses.append(float(root.data))
            return backward(root, tape)
        return wrapped

    def norm_probe(clip_gradients):
        def wrapped(params, max_norm):
            norms.append(clip_gradients(params, max_norm))
            return norms[-1]
        return wrapped

    def step_probe(sgd_step):
        def wrapped(*args, **kwargs):
            sgd_step(*args, **kwargs)
            step_end.append(time.perf_counter())
        return ticking(pacer)(wrapped)

    probe = Probe()
    probe.wrap(harness, "backward", loss_probe)
    probe.wrap(harness, "clip_gradients", norm_probe)
    probe.wrap(harness, "sgd_step", step_probe)

    runs: list[dict] = []
    problems: list[str] = []

    def one_training():
        first = len(step_end)
        diverged = None
        try:
            arrays, report = harness.train(cfg)
        except harness.TrainingDiverged as exc:
            arrays, report, diverged = None, None, str(exc)
        runs.append({"first": first, "last": len(step_end), "arrays": arrays,
                     "report": report, "diverged": diverged})

    try:
        closed_loop(seconds, one_training)
    finally:
        probe.restore()

    op_windows: list[tuple[float, float]] = []
    window: list[tuple[float, float]] = []
    for run in runs:
        ends = step_end[run["first"]:run["last"]]
        # a step runs from the end of one sgd_step to the end of the next
        op_windows.extend(zip(ends[:-1], ends[1:]))
        if len(ends) > 1:
            window.append((ends[0], ends[-1]))
    # a step with a non-finite loss raises before backward and ends training;
    # every other step reports its pre-clip gradient norm
    diverged = sum(1 for run in runs if run["diverged"])
    zero_norm = [i for i, n in enumerate(norms) if n == 0.0]
    attempted = len(norms) + diverged
    failed = len(zero_norm) + diverged

    # -- output checks --------------------------------------------------------
    reference = runs[0]
    for idx, run in enumerate(runs):
        report = run["report"]
        if run["diverged"]:
            continue
        steps = run["last"] - run["first"]
        if steps != cfg.iterations or len(report.loss_curve) != cfg.iterations:
            problems.append(f"training {idx}: {steps} steps, expected {cfg.iterations}")
        for key in ("per_case_dice", "global_dice"):
            value = getattr(report, key)
            if not 0.0 <= value <= 1.0:
                problems.append(f"training {idx}: {key} {value} outside [0, 1]")
        if idx and not reference["diverged"] and not _same_arrays(run["arrays"],
                                                                  reference["arrays"]):
            problems.append(f"training {idx}: rerun is not bit-identical to the first run")

    if not runs[-1]["diverged"]:
        # each training writes the same path; the file holds the last one
        saved = checkpoint.load_checkpoint(cfg.checkpoint_out)
        if not _same_arrays(saved, runs[-1]["arrays"]):
            problems.append("saved checkpoint differs from the returned state")

    report = reference["report"]
    quality = {}
    if report is not None:
        quality = {"train.dice_per_case": report.per_case_dice,
                   "train.global_dice": report.global_dice}
    finite = [n for n in norms if np.isfinite(n)]
    details = {
        "trainings": len(runs),
        "steps_per_training": cfg.iterations,
        "diverged": [run["diverged"] for run in runs if run["diverged"]],
        "zero_norm_steps": zero_norm[:50],
        "grad_norm_min": min(finite) if finite else None,
        "grad_norm_median": float(np.median(finite)) if finite else None,
        # a saturated ("dead") network: the gradient norm collapses towards 0
        "steps_grad_norm_below_1e-8": sum(1 for n in finite if n < 1e-8),
        "loss_first": losses[0] if losses else None,
        "loss_last": losses[-1] if losses else None,
    }
    lines = [("train.trainings", len(runs)),
             ("train.grad_norm_min", details["grad_norm_min"]),
             ("train.steps_grad_norm_below_1e-8", details["steps_grad_norm_below_1e-8"]),
             ("train.loss_first", details["loss_first"]),
             ("train.loss_last", details["loss_last"])]
    return Outcome(op_windows, attempted, failed, problems, quality, details, lines, window)


def _same_arrays(a: Optional[dict], b: Optional[dict]) -> bool:
    if a is None or b is None or set(a) != set(b):
        return False
    return all(np.array_equal(a[k], b[k]) for k in a)


# ---------------------------------------------------------------------------
# infer_two_stage
# ---------------------------------------------------------------------------


def setup_infer(work: Path, seed: int, pacer: Pacer) -> dict:
    data = work / "ckpt_data"
    write_phantoms(data, CKPT_DATA_SEED, TRAIN_PHANTOMS, pacer)
    paths = {}
    probe = Probe()
    probe.wrap(harness, "sgd_step", ticking(pacer))
    try:
        for stage, iterations in (("liver", LIVER_ITERATIONS),
                                  ("lesion", LESION_ITERATIONS)):
            paths[stage] = work / f"{stage}.fedckpt"
            stage_cfg = TrainConfig(stage=stage, data_dir=str(data), seed=CKPT_TRAIN_SEED,
                                    batch_size=BATCH, iterations=iterations,
                                    checkpoint_out=str(paths[stage]))
            harness.train(stage_cfg)
    finally:
        probe.restore()
    cfg = TrainConfig(stage="lesion", data_dir=str(data), seed=CKPT_TRAIN_SEED,
                      batch_size=BATCH, checkpoint_out=str(paths["lesion"]))
    # held-out volumes: the first batch is generated here, later ones between
    # timed operations; the warm-up volume is never timed or scored
    held_out = HeldOut(seed)
    pacer.tick()
    warm_ct, _ = synth.synth_generate(np.random.SeedSequence([seed, 0xAA]), 1, DIMS)[0]
    harness.infer(cfg, paths["liver"], paths["lesion"], warm_ct)
    return {"cfg": cfg, "liver": paths["liver"], "lesion": paths["lesion"],
            "held_out": held_out}


class HeldOut:
    """Endless stream of held-out (ct, seg) phantoms drawn from the seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.batch = 0
        self.queue: list = []
        self.refill()

    def refill(self) -> None:
        if not self.queue:
            seq = np.random.SeedSequence([self.seed, self.batch])
            self.queue = synth.synth_generate(seq, HELD_OUT_BATCH, DIMS)
            self.batch += 1

    def next(self):
        return self.queue.pop(0)


def measure_infer(ctx: dict, seconds: float, pacer: Pacer, tracer=None) -> Outcome:
    cfg: TrainConfig = ctx["cfg"]
    held_out: HeldOut = ctx["held_out"]
    stage1: list[np.ndarray] = []

    def liver_probe(largest_component):
        # infer's own largest_component call yields the stage-1 liver mask
        def wrapped(*args, **kwargs):
            stage1.append(largest_component(*args, **kwargs))
            return stage1[-1]
        return wrapped

    probe = Probe()
    probe.wrap(harness, "largest_component", liver_probe)
    # samples inside a volume too: predict_volume stacks each slice's input
    probe.wrap(harness, "stack_adjacent_slices", ticking(pacer))

    window: list[tuple[float, float]] = []
    rows: list[dict] = []
    problems: list[str] = []
    counts = {"liver_inter": 0, "liver_total": 0, "lesion_inter": 0, "lesion_total": 0}

    def one_volume():
        pacer.tick()
        held_out.refill()
        ct, seg = held_out.next()
        stage1.clear()
        if tracer is not None:
            tracer.expect_inference()
        error = None
        t0 = time.perf_counter()
        try:
            result = harness.infer(cfg, ctx["liver"], ctx["lesion"], ct)
        except Exception as exc:  # any exception fails this volume; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        window.append((t0, t1))
        rows.append(_check_volume(len(rows), ct, seg, result, stage1, error, counts))

    try:
        closed_loop(seconds, one_volume)
    finally:
        probe.restore()
    for row, ms in zip(rows, pacer.program_seconds(window) * 1e3):
        row["ms"] = float(ms)

    failed_rows = [row for row in rows if row["failure"]]
    problems += [f"volume {row['volume']}: {row['failure']}" for row in failed_rows
                 if row["invalid"]]
    quality = {
        "infer.liver_dice": _dice(counts["liver_inter"], counts["liver_total"]),
        "infer.lesion_dice": _dice(counts["lesion_inter"], counts["lesion_total"]),
    }
    liver_voxels = [row["liver_voxels"] for row in rows]
    lesion_voxels = [row["lesion_voxels"] for row in rows]
    details = {"volumes": rows, "checkpoint_iterations": {
        "liver": LIVER_ITERATIONS, "lesion": LESION_ITERATIONS}}
    lines = [(f"volume.{row['volume']:03d}",
              f"ms={row['ms']:.1f}\tliver_voxels={row['liver_voxels']}"
              f"\tlesion_voxels={row['lesion_voxels']}"
              + (f"\tFAILED={row['failure']}" if row["failure"] else ""))
             for row in rows]
    lines += [("infer.liver_voxels.min", min(liver_voxels)),
              ("infer.liver_voxels.median", float(np.median(liver_voxels))),
              ("infer.lesion_voxels.median", float(np.median(lesion_voxels))),
              ("infer.lesion_voxels.max", max(lesion_voxels))]
    return Outcome(window, len(rows), len(failed_rows), problems, quality, details,
                   lines, window)


def _check_volume(index, ct, seg, result, stage1, error, counts) -> dict:
    """Counts, Dice tallies and the first failure of one inferred volume;
    ``invalid`` marks an output that breaks the cascade's contract."""
    row = {"volume": index, "liver_voxels": 0, "lesion_voxels": 0, "failure": error,
           "invalid": False}
    if error is not None:
        return row
    final = result.voxels
    liver = stage1[0] if stage1 else np.zeros(final.shape, dtype=np.uint8)
    row["liver_voxels"] = int(np.count_nonzero(liver))
    row["lesion_voxels"] = int(np.count_nonzero(final))
    truth = seg.voxels
    counts["liver_inter"] += int(np.count_nonzero(liver.astype(bool) & (truth >= 1)))
    counts["liver_total"] += row["liver_voxels"] + int(np.count_nonzero(truth >= 1))
    counts["lesion_inter"] += int(np.count_nonzero(final.astype(bool) & (truth == 2)))
    counts["lesion_total"] += row["lesion_voxels"] + int(np.count_nonzero(truth == 2))
    invalid = None
    if final.shape != ct.voxels.shape:
        invalid = f"shape {final.shape} != input {ct.voxels.shape}"
    elif not np.isin(final, (0, 1)).all():
        invalid = "non-binary final mask"
    elif row["lesion_voxels"] and (not row["liver_voxels"] or
                                   not pipeline.bbox_of_mask(liver).contains_mask(final)):
        invalid = "lesion outside the liver bounding box"
    row["invalid"] = invalid is not None
    if invalid:
        row["failure"] = invalid
    elif not row["liver_voxels"]:
        row["failure"] = "empty stage-1 liver"
    return row


def _dice(inter: int, total: int) -> float:
    return 2.0 * inter / total if total else 1.0


# ---------------------------------------------------------------------------
# gradcheck_suite
# ---------------------------------------------------------------------------


def setup_gradcheck(work: Path, seed: int, pacer: Pacer) -> dict:
    # warm-up: one small float64 check through the same code path
    harness.gradcheck_suite(names=["conv2d/input"])
    return {}


def measure_gradcheck(ctx: dict, seconds: float, pacer: Pacer, tracer=None) -> Outcome:
    probe = Probe()
    check_windows: list[tuple[float, float]] = []

    def timed(fn):
        def wrapped(f, *args, **kwargs):
            def evaluate(x):
                pacer.tick()
                return f(x)

            t0 = time.perf_counter()
            try:
                return fn(evaluate, *args, **kwargs)
            finally:
                check_windows.append((t0, time.perf_counter()))
        return wrapped

    probe.wrap(harness, "grad_check", timed)
    suites: list[list] = []
    window: list[tuple[float, float]] = []

    def one_suite():
        t0 = time.perf_counter()
        suites.append(harness.gradcheck_suite())
        window.append((t0, time.perf_counter()))

    try:
        closed_loop(seconds, one_suite)
    finally:
        probe.restore()

    checks = [check for suite in suites for check in suite]
    problems = []
    names = [check.name for check in suites[0]]
    check_seconds = pacer.program_seconds(check_windows)
    if len(names) != len(set(names)) or len(check_seconds) != len(checks):
        problems.append("gradient-check suite returned an inconsistent set of checks")
    for suite in suites[1:]:
        if [(c.name, c.max_rel_err) for c in suite] != [(c.name, c.max_rel_err)
                                                        for c in suites[0]]:
            problems.append("repeated suite is not bit-identical to the first")
    failed = [check.name for check in checks if not check.passed]
    per_check = {}
    for check, secs in zip(checks, check_seconds):
        per_check.setdefault(check.name, []).append(secs)
    details = {
        "suites": len(suites),
        "checks": [{"name": c.name, "max_rel_err": c.max_rel_err, "passed": c.passed,
                    "seconds": float(np.median(per_check[c.name]))} for c in suites[0]],
        "failed_checks": failed,
    }
    worst = max(c.max_rel_err for c in checks)
    lines = [(f"check.{c['name']}", f"s={c['seconds']:.3f}\tmax_rel_err={c['max_rel_err']:.3e}"
              f"\t{'PASS' if c['passed'] else 'FAIL'}") for c in details["checks"]]
    lines.append(("gradcheck.worst_max_rel_err", worst))
    # latency is per suite (gradcheck.suite_s); failures are counted per check
    return Outcome(window, len(checks), len(failed), problems, {}, details, lines, window)


# name -> (set-up, timed loop, host-speed scale of pace.py).  The scale is the
# reference whose work is most like the workload's: training and inference
# spend most of their time in batch-8 conv GEMMs, the gradient checks in
# thousands of tiny-shape passes that are part per-call overhead and part
# arithmetic.  Over ten seeds each, the mixed scale left train_lesion and
# infer_two_stage figures spread 11-13%, gemm alone 6-7%; gradcheck_suite
# spread 4.5% mixed, 6% with calls and 11% with gemm alone.
WORKLOADS = {
    "train_lesion": (setup_train, measure_train, "gemm"),
    "infer_two_stage": (setup_infer, measure_infer, "gemm"),
    "gradcheck_suite": (setup_gradcheck, measure_gradcheck, MIXED),
}


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
