"""Training loop, two-stage inference, evaluation, ablation table, the
gradient-check suite, and the CLI surface."""

import argparse
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fednet
from fednet import cli, harness, ops, pipeline
from fednet.blocks import FedNet, NetworkSpec
from fednet.checkpoint import CheckpointMismatch, save_checkpoint, state_arrays
from fednet.config import TrainConfig, parse_config
from fednet.synth import synth_generate
from fednet.tensor import GradCheckReport, Tensor
from fednet.volume import Volume, read_mvol, write_mvol
from oracles import clip_gradients_reference, sgd_step_reference


def make_dataset(root, n=2, dims=(32, 32, 32), seed=5):
    root.mkdir(parents=True, exist_ok=True)
    for idx, (ct, seg) in enumerate(synth_generate(seed, n, dims)):
        write_mvol(ct, root / f"case{idx:03d}_ct.mvol")
        write_mvol(seg, root / f"case{idx:03d}_seg.mvol")


def micro_config(data_dir, ckpt, **kw):
    defaults = dict(
        stage="lesion",
        data_dir=str(data_dir),
        checkpoint_out=str(ckpt),
        iterations=6,
        batch_size=2,
        seed=0,
    )
    defaults.update(kw)
    return TrainConfig(network=NetworkSpec(base_channels=4, se_reduction=4), **defaults)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("volumes") / "data"
    make_dataset(root)
    return root


class TestLoadDataset:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(harness.DatasetError, match="does not exist"):
            harness.load_dataset(tmp_path / "nope")

    @staticmethod
    def counting_reads(monkeypatch):
        reads = []
        monkeypatch.setattr(harness, "read_mvol",
                            lambda path: reads.append(path) or read_mvol(path))
        return reads

    def test_missing_segmentation(self, tmp_path, monkeypatch):
        # the orphan sorts after a complete case: it is still found before any read
        make_dataset(tmp_path / "d", n=2)
        (tmp_path / "d" / "case001_seg.mvol").unlink()
        reads = self.counting_reads(monkeypatch)
        with pytest.raises(harness.DatasetError) as info:
            harness.load_dataset(tmp_path / "d")
        assert str(info.value) == "missing segmentation for case001_ct.mvol"
        assert reads == []

    def test_orphan_segmentation_rejected(self, tmp_path, monkeypatch):
        make_dataset(tmp_path / "d", n=2)
        (tmp_path / "d" / "case002_seg.mvol").write_bytes(
            (tmp_path / "d" / "case000_seg.mvol").read_bytes())
        reads = self.counting_reads(monkeypatch)
        with pytest.raises(harness.DatasetError) as info:
            harness.load_dataset(tmp_path / "d")
        assert str(info.value) == "missing CT for case002_seg.mvol"
        assert reads == []

    def test_empty_directory(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(harness.DatasetError, match="no .*volumes"):
            harness.load_dataset(tmp_path / "d")

    def test_sorted_names(self, dataset):
        names = [name for name, _, _ in harness.load_dataset(dataset)]
        assert names == sorted(names)

    def test_ct_and_seg_dims_differ(self, tmp_path):
        make_dataset(tmp_path / "d", n=1)
        seg = read_mvol(tmp_path / "d" / "case000_seg.mvol")
        write_mvol(Volume(seg.voxels[:-1], seg.spacing), tmp_path / "d" / "case000_seg.mvol")
        with pytest.raises(harness.DatasetError, match="case000: ct and seg dims differ"):
            harness.load_dataset(tmp_path / "d")

    def test_ct_as_segmentation_rejected(self, tmp_path):
        make_dataset(tmp_path / "d", n=1)
        seg_path = tmp_path / "d" / "case000_seg.mvol"
        seg_path.write_bytes((tmp_path / "d" / "case000_ct.mvol").read_bytes())
        with pytest.raises(harness.DatasetError) as info:
            harness.load_dataset(tmp_path / "d")
        assert str(info.value) == (f"{seg_path}: a segmentation must hold uint8 labels in "
                                   "{0, 1, 2}, got int16")

    def test_label_above_two_rejected(self, tmp_path):
        make_dataset(tmp_path / "d", n=1)
        seg_path = tmp_path / "d" / "case000_seg.mvol"
        seg = read_mvol(seg_path)
        labels = seg.voxels.copy()
        labels[0, 0, 0] = 3
        write_mvol(Volume(labels, seg.spacing), seg_path)
        with pytest.raises(harness.DatasetError, match="case000_seg.mvol: .* got largest label 3$"):
            harness.load_dataset(tmp_path / "d")


class TestStageTargets:
    def test_liver_stage(self):
        seg = np.zeros((3, 2, 2), dtype=np.uint8)
        seg[1, 0, 0] = 1
        seg[2, 1, 1] = 2
        target, eligible = harness.stage_targets(seg, "liver")
        np.testing.assert_array_equal(target[1, 0, 0], 1)
        np.testing.assert_array_equal(target[2, 1, 1], 1)
        assert eligible.all()

    def test_lesion_stage(self):
        seg = np.zeros((3, 2, 2), dtype=np.uint8)
        seg[1, 0, 0] = 1
        seg[2, 1, 1] = 2
        target, eligible = harness.stage_targets(seg, "lesion")
        assert target.sum() == 1 and target[2, 1, 1] == 1
        np.testing.assert_array_equal(eligible, [False, True, True])

    def test_unknown_stage(self):
        with pytest.raises(ValueError, match="stage"):
            harness.stage_targets(np.zeros((1, 1, 1), dtype=np.uint8), "bones")


def write_relabelled_phantom(root, relabel):
    """One 64x64x48 phantom whose labels are ``relabel(labels)``."""
    root.mkdir(parents=True)
    ((ct, seg),) = synth_generate(5, 1, (64, 64, 48))
    write_mvol(ct, root / "case000_ct.mvol")
    write_mvol(Volume(relabel(seg.voxels.copy()), seg.spacing), root / "case000_seg.mvol")


def short_liver(labels):
    """No lesion, and liver on 4 slices only."""
    labels = np.minimum(labels, 1)
    first = np.flatnonzero(labels.any(axis=(1, 2)))[0]
    labels[:first + 20] = 0
    labels[first + 24:] = 0
    return labels


class TestSampleStream:
    @pytest.fixture(scope="class")
    def short_liver_dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("short_liver") / "data"
        write_relabelled_phantom(root, short_liver)
        return root

    def test_short_liver_span_streams_for_every_seed(self, short_liver_dataset):
        # a lesion-free volume has 4 eligible slices at p_neg = 0.1: most
        # epochs draw nothing, yet some slice can always be drawn
        ((_, ct, seg),) = harness.load_dataset(short_liver_dataset)
        prepared = [(ct.voxels, *harness.stage_targets(seg.voxels, "lesion"))]
        assert prepared[0][2].sum() == 4 and not prepared[0][1].any()
        for seed in range(20):
            cfg = micro_config(short_liver_dataset, "unused.fedckpt", seed=seed)
            stream = harness._sample_stream(prepared, cfg, np.random.default_rng(seed))
            for _ in range(300 * 8):
                image, target = next(stream)
            assert image.shape == (3, 64, 64) and target.shape == (1, 64, 64)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_short_liver_span_trains(self, short_liver_dataset, tmp_path, seed):
        cfg = micro_config(short_liver_dataset, tmp_path / "s.fedckpt", seed=seed,
                           iterations=30, batch_size=8)
        _, report = harness.train(cfg, save=False)
        assert len(report.loss_curve) == 30

    @pytest.mark.parametrize("case", ["zero_probabilities", "no_liver"])
    def test_nothing_drawable_rejected_before_the_first_forward_pass(
            self, dataset, tmp_path, monkeypatch, case):
        if case == "zero_probabilities":
            cfg = micro_config(dataset, tmp_path / "z.fedckpt", stage="liver",
                               p_pos=0.0, p_neg=0.0)
            expected = "p_pos=0.0 and p_neg=0.0 over 64 eligible slices"
        else:
            write_relabelled_phantom(tmp_path / "d", np.zeros_like)
            cfg = micro_config(tmp_path / "d", tmp_path / "z.fedckpt")
            expected = "p_pos=0.9 and p_neg=0.1 over 0 eligible slices"

        def no_forward(net, x):
            raise AssertionError("forward pass before the sampling check")
        monkeypatch.setattr(FedNet, "__call__", no_forward)
        with pytest.raises(harness.DatasetError) as info:
            harness.train(cfg, save=False)
        assert str(info.value) == f"no slice can be drawn: {expected}"


class TestTrain:
    def test_zero_iterations_checkpoint_equals_initialization(self, dataset, tmp_path):
        cfg = micro_config(dataset, tmp_path / "zero.fedckpt", iterations=0)
        arrays, report = harness.train(cfg)
        fresh = state_arrays(harness.build_network(cfg))
        assert set(arrays) == set(fresh)
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], fresh[name])
        assert report.loss_curve == []

    def test_same_seed_gives_byte_identical_checkpoints(self, dataset, tmp_path):
        a = micro_config(dataset, tmp_path / "a.fedckpt")
        b = micro_config(dataset, tmp_path / "b.fedckpt")
        harness.train(a)
        harness.train(b)
        assert (tmp_path / "a.fedckpt").read_bytes() == (tmp_path / "b.fedckpt").read_bytes()

    def test_blas_thread_count_leaves_checkpoint_unchanged(self, tmp_path):
        # each GEMM's sums must not depend on how BLAS splits it over threads.
        # OpenBLAS reads its thread count when numpy loads, so each count
        # trains in its own process: the default lesion net at 64 px
        data = tmp_path / "data"
        make_dataset(data, dims=(64, 64, 32))
        paths = [str(Path(fednet.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        checkpoints = []
        for threads in ("1", "2"):
            ckpt = tmp_path / f"threads{threads}.fedckpt"
            cfg = tmp_path / f"threads{threads}.cfg"
            cfg.write_text(f"data_dir = {data}\ncheckpoint_out = {ckpt}\niterations = 25\n")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in paths if p))
            subprocess.run([sys.executable, "-m", "fednet", "train", "--config", str(cfg)],
                           env=env, check=True, capture_output=True, timeout=600)
            checkpoints.append(ckpt.read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_failed_blas_lookup_exits_one(self, dataset, tmp_path, monkeypatch, capsys):
        # neither a missing library nor a file that does not load gives the
        # thread-count setter, so training and inference stop before any GEMM
        (tmp_path / "libopenblas.so").write_text("not a shared library")
        monkeypatch.setattr(harness, "OPENBLAS_GLOB", str(tmp_path / "*openblas*"))
        monkeypatch.setattr(harness, "_openblas_set_num_threads",
                            harness._openblas_set_num_threads.__wrapped__)
        ckpt = tmp_path / "never.fedckpt"
        cfg_path = tmp_path / "blas.cfg"
        cfg_path.write_text(f"data_dir = {dataset}\niterations = 1\nbatch_size = 2\n"
                            f"base_channels = 4\nse_reduction = 4\ncheckpoint_out = {ckpt}\n")
        infer = ["infer", str(dataset / "case000_ct.mvol"), "--config", str(cfg_path),
                 "--liver-ckpt", str(ckpt), "--lesion-ckpt", str(ckpt),
                 "--out", str(tmp_path / "mask.mvol")]
        for argv in (["train", "--config", str(cfg_path)], infer):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert "no OpenBLAS thread-count setter" in err
        assert not ckpt.exists() and not (tmp_path / "mask.mvol").exists()

    def test_blas_lookup_runs_once_per_process(self, dataset, tmp_path, monkeypatch):
        cfg = micro_config(dataset, tmp_path / "unused.fedckpt")
        loads = []
        loader = harness.ctypes.CDLL

        def counting(path):
            loads.append(path)
            return loader(path)

        monkeypatch.setattr(harness.ctypes, "CDLL", counting)
        harness._openblas_set_num_threads.cache_clear()
        for stage in ("liver", "lesion", "lesion"):
            harness.build_network(cfg, stage=stage)
        assert len(loads) == 1

    def test_different_seed_changes_checkpoint(self, dataset, tmp_path):
        a = micro_config(dataset, tmp_path / "a2.fedckpt")
        b = micro_config(dataset, tmp_path / "b2.fedckpt", seed=1)
        harness.train(a)
        harness.train(b)
        assert (tmp_path / "a2.fedckpt").read_bytes() != (tmp_path / "b2.fedckpt").read_bytes()

    @pytest.mark.parametrize("line", [
        "omega1 = 0.3", "omega2 = 0.5", "epsilon = 1e-6",
    ])
    def test_loss_key_changes_checkpoint(self, dataset, tmp_path, line):
        def train_with(extra, name):
            ckpt = tmp_path / f"{name}.fedckpt"
            path = tmp_path / f"{name}.cfg"
            path.write_text(f"data_dir = {dataset}\ncheckpoint_out = {ckpt}\n"
                            "iterations = 3\nbatch_size = 2\n"
                            f"base_channels = 4\nse_reduction = 4\n{extra}\n")
            harness.train(parse_config(path))
            return ckpt.read_bytes()

        assert train_with(line, "keyed") != train_with("", "default")

    def test_checkpoint_equals_per_parameter_oracle_run(self, dataset, tmp_path, monkeypatch):
        # the default net, so the flat passes split parameters across chunks,
        # and a clip norm that its first step exceeds and the next two do not
        cfg = replace(micro_config(dataset, tmp_path / "flat.fedckpt", iterations=3),
                      network=NetworkSpec(), grad_clip=0.5)
        norms = []
        clip = harness.clip_gradients
        monkeypatch.setattr(harness, "clip_gradients",
                            lambda flat, max_norm: norms.append(clip(flat, max_norm)) or norms[-1])
        harness.train(cfg)

        def per_parameter_step(flat, velocity, lr, momentum, weight_decay):
            buffers, offset = [], 0
            for p in flat.params:
                buffers.append(velocity[offset:offset + p.size].reshape(p.shape))
                offset += p.size
            sgd_step_reference(flat.params, buffers, lr, momentum, weight_decay)

        monkeypatch.setattr(harness, "clip_gradients",
                            lambda flat, max_norm: clip_gradients_reference(flat.params, max_norm))
        monkeypatch.setattr(harness, "sgd_step", per_parameter_step)
        harness.train(replace(cfg, checkpoint_out=str(tmp_path / "oracle.fedckpt")))
        assert min(norms) < cfg.grad_clip < max(norms)
        flat, oracle = (tmp_path / f"{name}.fedckpt" for name in ("flat", "oracle"))
        assert flat.read_bytes() == oracle.read_bytes()

    def test_loss_decreases(self, dataset, tmp_path):
        cfg = micro_config(dataset, tmp_path / "long.fedckpt", iterations=60, batch_size=4)
        _, report = harness.train(cfg, save=False)
        assert len(report.loss_curve) == 60
        assert np.mean(report.loss_curve[-10:]) < report.loss_curve[0]

    def test_curve_and_dice_in_report(self, dataset, tmp_path):
        cfg = micro_config(dataset, tmp_path / "rep.fedckpt", iterations=3)
        _, report = harness.train(cfg, save=False)
        assert 0.0 <= report.per_case_dice <= 1.0
        assert 0.0 <= report.global_dice <= 1.0
        assert len(report.loss_curve) == 3
        assert report.runtime_seconds > 0

    def test_missing_checkpoint_directory_rejected_before_loading(self, dataset, tmp_path,
                                                                  monkeypatch):
        ckpt = tmp_path / "missing" / "dir" / "lesion.fedckpt"
        loads = []
        monkeypatch.setattr(harness, "load_dataset", lambda *args: loads.append(1))
        with pytest.raises(FileNotFoundError) as info:
            harness.train(micro_config(dataset, ckpt))
        assert str(info.value) == (f"cannot write {ckpt}: directory {ckpt.parent} "
                                   "does not exist")
        assert loads == []

    def test_mixed_dims_rejected(self, tmp_path):
        root = tmp_path / "mixed"
        make_dataset(root, n=1, dims=(32, 32, 32))
        for idx, (ct, seg) in enumerate(synth_generate(9, 1, (64, 32, 32)), start=1):
            write_mvol(ct, root / f"case{idx:03d}_ct.mvol")
            write_mvol(seg, root / f"case{idx:03d}_seg.mvol")
        cfg = micro_config(root, tmp_path / "m.fedckpt")
        with pytest.raises(harness.DatasetError, match="uniform volume dims"):
            harness.train(cfg)

    def test_mixed_slice_counts_train(self, tmp_path):
        # real CT series differ in slice count; a batch holds single slices
        root = tmp_path / "mixed_nz"
        make_dataset(root, n=1, dims=(32, 32, 32))
        for idx, (ct, seg) in enumerate(synth_generate(9, 1, (32, 32, 48)), start=1):
            write_mvol(ct, root / f"case{idx:03d}_ct.mvol")
            write_mvol(seg, root / f"case{idx:03d}_seg.mvol")
        _, report = harness.train(micro_config(root, tmp_path / "m.fedckpt", iterations=2),
                                  save=False)
        assert len(report.loss_curve) == 2
        assert 0.0 <= report.per_case_dice <= 1.0

    def test_nonfinite_loss_aborts_with_iteration(self, dataset, tmp_path, monkeypatch):
        calls = []

        def poisoned_loss(y, p, w):
            calls.append(1)
            value = float("nan") if len(calls) > 2 else 1.0
            return p.sum() * 0.0 + value  # stays on the tape

        monkeypatch.setattr(harness, "combined_loss_with_logits", poisoned_loss)
        cfg = micro_config(dataset, tmp_path / "nan.fedckpt", iterations=5)
        with pytest.raises(harness.TrainingDiverged, match="iteration 2"):
            harness.train(cfg)

    def test_nonfinite_gradient_norm_aborts_before_the_step(self, dataset, tmp_path,
                                                            monkeypatch):
        norms, steps = [], []
        real_clip, real_step = harness.clip_gradients, harness.sgd_step

        def poisoned_clip(params, max_norm):
            norms.append(real_clip(params, max_norm))
            return float("nan") if len(norms) > 2 else norms[-1]

        def counted_step(*args, **kwargs):
            steps.append(1)
            real_step(*args, **kwargs)

        monkeypatch.setattr(harness, "clip_gradients", poisoned_clip)
        monkeypatch.setattr(harness, "sgd_step", counted_step)
        cfg = micro_config(dataset, tmp_path / "nan_norm.fedckpt", iterations=3)
        with pytest.raises(harness.TrainingDiverged, match="gradient norm nan at iteration 2"):
            harness.train(cfg)
        assert len(steps) == 2
        assert not (tmp_path / "nan_norm.fedckpt").exists()

    def test_zero_gradient_norm_aborts_with_iteration(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "clip_gradients", lambda params, max_norm: 0.0)
        k = harness.DEAD_GRADIENT_ITERATIONS
        cfg = micro_config(dataset, tmp_path / "dead.fedckpt", iterations=k + 2)
        with pytest.raises(harness.TrainingDiverged, match=f"iteration {k - 1}: "):
            harness.train(cfg)
        assert not (tmp_path / "dead.fedckpt").exists()

    def test_nonzero_gradient_norm_resets_dead_count(self, dataset, tmp_path, monkeypatch):
        k = harness.DEAD_GRADIENT_ITERATIONS
        calls = []

        def mostly_zero(params, max_norm):
            calls.append(1)
            return 1.0 if len(calls) % k == 0 else 0.0

        monkeypatch.setattr(harness, "clip_gradients", mostly_zero)
        cfg = micro_config(dataset, tmp_path / "alive.fedckpt", iterations=2 * k + 2)
        _, report = harness.train(cfg, save=False)
        assert len(report.loss_curve) == 2 * k + 2

    @pytest.mark.parametrize("stage", ["liver", "lesion"])
    def test_training_set_dice_matches_one_slice_passes(self, dataset, tmp_path, stage):
        cfg = micro_config(dataset, tmp_path / "unused.fedckpt", stage=stage)
        net = harness.build_network(cfg)
        prepared = [(ct.voxels, *harness.stage_targets(seg.voxels, stage))
                    for _, ct, seg in harness.load_dataset(dataset)]
        probs = [one_slice_passes(net, ct, np.nonzero(eligible)[0])
                 for ct, _, eligible in prepared]
        # the stage's threshold at the median probability, the other stage's
        # above every probability
        t = float(np.median([p for case in probs for p in case.values()]))
        cfg = replace(cfg, liver_threshold=t if stage == "liver" else 1.0,
                      lesion_threshold=t if stage == "lesion" else 1.0)
        scores, inter, total = [], 0, 0
        for (_, target, _), case in zip(prepared, probs):
            pred = np.zeros(target.shape, dtype=bool)
            for z, p in case.items():
                pred[z] = p >= t
            i = int(np.count_nonzero(pred & (target == 1)))
            n = int(np.count_nonzero(pred)) + int(np.count_nonzero(target))
            scores.append(2 * i / n if n else 1.0)
            inter, total = inter + i, total + n
        per_case, global_ = harness.training_set_dice(net, prepared, cfg)
        assert (per_case, global_) == (float(np.mean(scores)), 2 * inter / total)
        assert 0 < global_ < 1


@pytest.fixture(scope="module")
def phantom64():
    """A 64x64x48 int16 phantom, the benchmark's volume size."""
    ct, _ = synth_generate(11, 1, (64, 64, 48))[0]
    return ct.voxels


def one_slice_passes(net, ct, z_indices):
    """The reference: each slice's probabilities from a forward pass of its
    own, stacked from the whole CT windowed at once."""
    norm = pipeline.hu_window_normalize(ct)
    return {z: ops.sigmoid(net(Tensor(pipeline.stack_adjacent_slices(norm, z)[None]))).data[0, 0]
            for z in set(z_indices)}


class PassFailed(RuntimeError):
    pass


class PassRecorder:
    """A stand-in network that returns zero logits of the right shape and
    records, under a lock, every forward pass's batch size and thread and the
    most slices in passes running at once.  A pass lasts ``delay`` seconds,
    so the two passes of a round overlap; a pass on the thread named by
    ``fail_on`` ("caller" or "worker") raises :class:`PassFailed` at once."""

    def __init__(self, delay=0.0, fail_on=None):
        self.delay, self.fail_on = delay, fail_on
        self.caller = threading.get_ident()
        self.lock = threading.Lock()
        self.sizes, self.threads = [], []
        self.running = self.peak = 0

    def __call__(self, x):
        n = x.shape[0]
        thread = "caller" if threading.get_ident() == self.caller else "worker"
        with self.lock:
            self.sizes.append(n)
            self.threads.append(threading.get_ident())
            self.running += n
            self.peak = max(self.peak, self.running)
        try:
            if thread == self.fail_on:
                raise PassFailed(thread)
            time.sleep(self.delay)
            return Tensor(np.zeros((n, 1) + x.shape[2:], dtype=np.float32))
        finally:
            with self.lock:
                self.running -= n


def needs_worker():
    if harness._predict_worker() is None:
        pytest.skip("predict_volume makes no worker where the process has one CPU")


def thresholded_passes(monkeypatch, net, ct, z_indices, threshold=0.5):
    """``predict_volume``'s mask, and the probabilities of each pass that
    reached ``harness.threshold_mask``, in call order.  Every call must come
    from the calling thread."""
    caller = threading.get_ident()
    passes = []

    def recording(prob, t):
        assert threading.get_ident() == caller and t == threshold
        passes.append(prob)
        return pipeline.threshold_mask(prob, t)

    monkeypatch.setattr(harness, "threshold_mask", recording)
    return harness.predict_volume(net, ct, z_indices, threshold), passes


def assert_mask_of_passes(mask, passes, expected, z_indices, threshold=0.5):
    """The passes' probabilities, joined, equal ``expected``'s one-slice
    passes over ``z_indices`` by bytes, the mask's listed slices are their
    threshold, and every slice not listed is 0."""
    probs = np.concatenate(passes)
    assert mask.dtype == np.uint8
    assert probs.tobytes() == np.stack([expected[z] for z in z_indices]).tobytes()
    assert mask[z_indices].tobytes() == pipeline.threshold_mask(probs, threshold).tobytes()
    assert not np.delete(mask, z_indices, axis=0).any()


class TestPredictVolume:
    # index lists of 1, 3, 8, 27, 32 and 48 slices, and one unsorted with
    # repeats, on a 48-slice volume: up to 32 slices fit one round, and 48
    # take two rounds of 24; where the worker exists, a round of two slices
    # or more runs as two passes at once
    INDEX_SETS = [[17], [0, 24, 47], list(range(20, 28)), list(range(10, 37)),
                  list(range(32)), list(range(48)), [40, 2, 17, 2, 47, 0, 40, 31, 5]]

    @pytest.mark.parametrize("baseline", [False, True])
    def test_probabilities_match_one_slice_passes(self, phantom64, baseline, monkeypatch):
        spec = NetworkSpec()
        net = FedNet(spec.baseline() if baseline else spec, rng=np.random.default_rng(3))
        expected = one_slice_passes(net, phantom64, range(48))
        # a threshold near the median, so each mask holds both values
        threshold = float(np.median(np.stack(list(expected.values()))))
        for z_indices in self.INDEX_SETS:
            mask, passes = thresholded_passes(monkeypatch, net, phantom64, z_indices, threshold)
            assert_mask_of_passes(mask, passes, expected, z_indices, threshold)
            assert 0 < mask[z_indices].sum() < mask[z_indices].size

    def test_probabilities_match_one_slice_passes_at_128_px(self, monkeypatch):
        # 8 slices per round at 128 px: 10 slices take two rounds of 5
        ct, _ = synth_generate(12, 1, (128, 128, 32))[0]
        net = FedNet(NetworkSpec(), rng=np.random.default_rng(5))
        z_indices = [31, *range(9), 0]
        mask, passes = thresholded_passes(monkeypatch, net, ct.voxels, z_indices)
        assert_mask_of_passes(mask, passes, one_slice_passes(net, ct.voxels, z_indices),
                              z_indices)

    # (ny, nx, slices, (pass sizes on one thread, pass sizes with the
    # worker)): balanced rounds of at most the budget's slices, each split
    # in halves where the worker exists
    @pytest.mark.parametrize("ny, nx, count, passes", [
        (64, 64, 27, ([27], [14, 13])), (64, 64, 48, ([24, 24], [12, 12, 12, 12])),
        (64, 64, 1, ([1], [1])), (32, 32, 64, ([64], [32, 32])),
        (128, 128, 20, ([6, 7, 7], [3, 3, 4, 3, 4, 3])),
        (64, 128, 20, ([10, 10], [5, 5, 5, 5])), (256, 256, 5, ([1, 2, 2], [1, 1, 1, 1, 1])),
        (512, 512, 2, ([1, 1], [1, 1])), (100, 100, 26, ([13, 13], [7, 6, 7, 6]))])
    def test_pass_holds_the_slices_that_fit_the_pixel_budget(self, ny, nx, count, passes):
        worker = harness._predict_worker() is not None
        net = PassRecorder(delay=0.005)
        harness.predict_volume(net, np.zeros((count, ny, nx), dtype=np.int16), range(count), 0.5)
        one, two = passes
        assert sorted(net.sizes) == sorted(two if worker else one)
        # one worker thread where a round splits, and none without a worker
        assert len(set(net.threads) - {net.caller}) == (worker and one != two)
        # the passes running at once stay within the budget, or are one slice
        # where a slice alone exceeds it
        assert net.peak * ny * nx <= harness.PREDICT_PIXELS or net.peak == 1

    def test_worker_only_where_two_cpus_are_allowed(self):
        worker = harness._predict_worker()
        assert (worker is None) == (len(os.sched_getaffinity(0)) < 2)
        assert harness._predict_worker() is worker

    def test_forked_child_makes_its_own_worker(self):
        needs_worker()
        ones = np.ones((4, 32, 32), dtype=np.int16)
        harness.predict_volume(PassRecorder(), ones, range(4), 0.5)  # starts the worker's thread
        # a forked child has no thread behind its parent's worker: submitting
        # to it would wait forever, so an alarm ends a child that hangs
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)
                # zero logits: probability 0.5, foreground at threshold 0.5
                mask = harness.predict_volume(PassRecorder(), ones, range(4), 0.5)
                code = 0 if np.all(mask == 1) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_inputs_stacked_on_the_calling_thread_while_no_pass_runs(self, monkeypatch):
        # the benchmark's pacer times its reference kernels inside the stack
        # call; each round's int16 stack is windowed next, also while no
        # pass runs
        net = PassRecorder(delay=0.005)
        calls = []

        def recording(name, fn):
            def wrapped(*args):
                calls.append((name, threading.get_ident(), net.running))
                return fn(*args)
            return wrapped

        for name in ("stack_adjacent_slices", "hu_window_normalize"):
            monkeypatch.setattr(harness, name, recording(name, getattr(pipeline, name)))
        harness.predict_volume(net, np.zeros((48, 64, 64), dtype=np.int16), range(48), 0.5)
        assert calls == [("stack_adjacent_slices", net.caller, 0),
                         ("hu_window_normalize", net.caller, 0)] * 2
        assert net.running == 0

    @pytest.mark.parametrize("fail_on", ["worker", "caller"])
    def test_failing_pass_raises_after_both_passes_end(self, fail_on):
        needs_worker()
        # the failing pass raises at once; the other lasts 50 ms
        net = PassRecorder(delay=0.05, fail_on=fail_on)
        with pytest.raises(PassFailed, match=f"^{fail_on}$"):
            harness.predict_volume(net, np.zeros((27, 64, 64), dtype=np.int16), range(27), 0.5)
        assert net.running == 0 and sorted(net.sizes) == [13, 14]
        # the worker survives a failed pass
        mask = harness.predict_volume(PassRecorder(), np.ones((4, 32, 32), dtype=np.int16),
                                      range(4), 0.5)
        assert mask.shape == (4, 32, 32) and np.all(mask == 1)

    @pytest.mark.parametrize("z_indices, bad", [
        ([*range(40), 48], 48), ([*range(40), -1], -1), ([-3], -3), ([0, 5, 100, 2], 100)])
    def test_bad_index_raises_before_any_pass(self, z_indices, bad):
        # the bad index of the first two lists lies in the second round
        net = PassRecorder()
        with pytest.raises(IndexError, match=f"^slice index {bad} out of range for nz=48$"):
            harness.predict_volume(net, np.zeros((48, 64, 64), dtype=np.int16), z_indices, 0.5)
        assert net.sizes == []

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_non_int16_ct_raises_before_any_pass(self, dtype):
        # a float32 CT is most likely windowed already; windowing it again
        # would squeeze every voxel into [0.4444, 0.4467]. No windowing
        # makes uint8, so its message does not say so
        net = PassRecorder()
        name = np.dtype(dtype).name
        reason = "; a windowed volume cannot be windowed again" if dtype == np.float32 else ""
        with pytest.raises(harness.DatasetError,
                           match=f"^predict_volume: a CT volume must hold int16 HU, got {name}"
                                 f"{reason}$"):
            harness.predict_volume(net, np.zeros((48, 64, 64), dtype=dtype), range(48), 0.5)
        assert net.sizes == []

    def test_no_slices_no_pass(self, monkeypatch):
        # no pass on either thread, and nothing to threshold
        net = PassRecorder()
        mask, passes = thresholded_passes(monkeypatch, net, np.ones((4, 32, 32), np.int16), [])
        assert net.sizes == [] and passes == []
        assert mask.shape == (4, 32, 32) and mask.dtype == np.uint8 and not mask.any()

    def test_probabilities_are_sigmoid_of_logits(self, dataset, monkeypatch):
        net = FedNet(NetworkSpec(base_channels=4, se_reduction=4), rng=np.random.default_rng(4))
        _, ct, _ = harness.load_dataset(dataset)[0]
        norm = pipeline.hu_window_normalize(ct.voxels)
        x = Tensor(np.stack([pipeline.stack_adjacent_slices(norm, z) for z in (3, 5)]))
        expected = ops.sigmoid(net(x)).data[:, 0]
        threshold = float(np.median(expected))
        mask, passes = thresholded_passes(monkeypatch, net, ct.voxels, [3, 5], threshold)
        assert_mask_of_passes(mask, passes, dict(zip((3, 5), expected)), [3, 5], threshold)
        assert all(np.all(p > 0) and np.all(p < 1) for p in passes)


class TestPredictVolumeOnOneCpu(TestPredictVolume):
    """Every test above in a process allowed one CPU, where predict_volume
    makes no worker and runs each round as one pass on the calling thread."""

    @pytest.fixture(autouse=True)
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        harness._predict_worker.cache_clear()
        yield
        harness._predict_worker.cache_clear()


class TestInfer:
    def test_zero_weight_liver_net_gives_empty_mask(self, dataset, tmp_path):
        cfg = micro_config(dataset, tmp_path / "unused.fedckpt")
        liver_net = harness.build_network(cfg, stage="liver")
        for p in liver_net.parameters():
            p.data[...] = 0.0
        liver_net.head_out.b.data[...] = -2.0  # logits -2 -> prob 0.12 < 0.5
        lesion_net = harness.build_network(cfg, stage="lesion")
        liver_ckpt = tmp_path / "liver0.fedckpt"
        lesion_ckpt = tmp_path / "lesion0.fedckpt"
        save_checkpoint(liver_ckpt, state_arrays(liver_net))
        save_checkpoint(lesion_ckpt, state_arrays(lesion_net))
        _, ct, _ = harness.load_dataset(dataset)[0]
        mask = harness.infer(cfg, liver_ckpt, lesion_ckpt, ct)
        assert mask.voxels.shape == ct.voxels.shape
        assert not mask.voxels.any()
        assert mask.spacing == ct.spacing

    def test_one_connected_components_pass(self, dataset, tmp_path, monkeypatch):
        cfg = micro_config(dataset, tmp_path / "unused1.fedckpt")
        liver_net = harness.build_network(cfg, stage="liver")
        for p in liver_net.parameters():
            p.data[...] = 0.0
        liver_net.head_out.b.data[...] = 2.0  # logits 2 -> prob 0.88: all liver
        liver_ckpt = tmp_path / "liver1.fedckpt"
        lesion_ckpt = tmp_path / "lesion1.fedckpt"
        save_checkpoint(liver_ckpt, state_arrays(liver_net))
        save_checkpoint(lesion_ckpt, state_arrays(harness.build_network(cfg, stage="lesion")))
        calls = []
        labeler = pipeline.connected_components_3d

        def counting(*args, **kwargs):
            calls.append(args[0])
            return labeler(*args, **kwargs)

        monkeypatch.setattr(pipeline, "connected_components_3d", counting)
        _, ct, _ = harness.load_dataset(dataset)[0]
        mask = harness.infer(cfg, liver_ckpt, lesion_ckpt, ct)
        assert mask.voxels.shape == ct.voxels.shape
        assert len(calls) == 1 and calls[0].all()

    def test_segment_memory_per_voxel_at_512_px(self, tmp_path):
        # every voxel is liver, so the lesion network sees every slice; the
        # traced peak's growth between two slice counts is what each voxel
        # costs: the two masks and the int32 labels
        cfg = micro_config(tmp_path, tmp_path / "unused.fedckpt")
        liver_net = harness.build_network(cfg, stage="liver")
        for p in liver_net.parameters():
            p.data[...] = 0.0
        liver_net.head_out.b.data[...] = 2.0  # logits 2 -> prob 0.88: all liver
        lesion_net = harness.build_network(cfg, stage="lesion")
        volumes = {nz: Volume(np.zeros((nz, 512, 512), dtype=np.int16)) for nz in (8, 24)}
        harness.segment(cfg, liver_net, lesion_net, volumes[8])  # one-time allocations
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            peaks = {}
            for nz, volume in volumes.items():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                harness.segment(cfg, liver_net, lesion_net, volume)
                peaks[nz] = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        per_voxel = (peaks[24] - peaks[8]) / (16 * 512 * 512)
        assert per_voxel <= 6, per_voxel

    def test_checkpoint_spec_mismatch_rejected(self, dataset, tmp_path):
        cfg = micro_config(dataset, tmp_path / "unused2.fedckpt")
        lesion_net = harness.build_network(cfg, stage="lesion")
        ckpt = tmp_path / "wrong.fedckpt"
        save_checkpoint(ckpt, state_arrays(lesion_net))
        _, ct, _ = harness.load_dataset(dataset)[0]
        with pytest.raises(CheckpointMismatch) as info:
            harness.infer(cfg, ckpt, ckpt, ct)  # lesion ckpt offered as liver
        assert "\n" not in str(info.value)

    def test_uninitialized_build_is_zero(self, dataset, tmp_path):
        cfg = micro_config(dataset, tmp_path / "unused4.fedckpt")
        blank = harness.build_network(cfg, stage="lesion", init=False)
        seeded = harness.build_network(cfg, stage="lesion")
        assert list(blank.named_parameters()) == list(seeded.named_parameters())
        for name, p in blank.named_parameters().items():
            assert p.data.dtype == np.float32
            assert name == "head_out.b" or not p.data.any()


class TestEvaluate:
    def _write_masks(self, root, masks):
        root.mkdir(parents=True, exist_ok=True)
        for name, arr in masks.items():
            write_mvol(Volume(arr.astype(np.uint8)), root / f"{name}.mvol")

    def test_identical_masks_score_one(self, tmp_path):
        mask = (np.random.default_rng(1).uniform(size=(4, 4, 4)) > 0.5)
        self._write_masks(tmp_path / "pred", {"a": mask})
        self._write_masks(tmp_path / "gt", {"a": mask})
        report = harness.evaluate(tmp_path / "pred", tmp_path / "gt")
        assert report.per_case_dice == 1.0 and report.global_dice == 1.0

    def test_empty_predictions_score_zero_globally(self, tmp_path):
        gt = np.zeros((3, 3, 3), dtype=np.uint8)
        gt[1, 1, 1] = 1
        self._write_masks(tmp_path / "pred", {"a": np.zeros((3, 3, 3))})
        self._write_masks(tmp_path / "gt", {"a": gt})
        report = harness.evaluate(tmp_path / "pred", tmp_path / "gt")
        assert report.global_dice == 0.0

    @pytest.mark.parametrize("missing, kind", [("pred", "prediction"),
                                               ("gt", "ground-truth")])
    def test_missing_directory_named(self, tmp_path, missing, kind):
        mask = np.ones((2, 2, 2))
        for name in {"pred", "gt"} - {missing}:
            self._write_masks(tmp_path / name, {"a": mask})
        with pytest.raises(harness.DatasetError) as info:
            harness.evaluate(str(tmp_path / "pred"), str(tmp_path / "gt"))
        assert str(info.value) == (f"{kind} directory {str(tmp_path / missing)!r} "
                                   "does not exist")

    def test_gt_label_selection(self, tmp_path):
        gt = np.zeros((3, 3, 3), dtype=np.uint8)
        gt[0] = 1
        gt[1, 1, 1] = 2
        pred = (gt == 2)
        self._write_masks(tmp_path / "pred", {"a": pred})
        self._write_masks(tmp_path / "gt", {"a": gt})
        assert harness.evaluate(tmp_path / "pred", tmp_path / "gt", gt_label=2).per_case_dice == 1.0
        assert harness.evaluate(tmp_path / "pred", tmp_path / "gt").per_case_dice < 1.0

    @pytest.mark.parametrize("label", [-1, 256, 300])
    def test_gt_label_a_uint8_cannot_hold_rejected(self, tmp_path, label):
        # no uint8 voxel equals 300, so every case would score 0 without a word
        self._write_masks(tmp_path / "pred", {"a": np.ones((2, 2, 2))})
        self._write_masks(tmp_path / "gt", {"a": np.ones((2, 2, 2))})
        with pytest.raises(harness.DatasetError, match=rf"\[0, 255\].*got {label}$"):
            harness.evaluate(tmp_path / "pred", tmp_path / "gt", gt_label=label)

    @pytest.mark.parametrize("voxels, found", [
        (np.full((2, 2, 2), 60, np.int16), "int16"),
        (np.full((2, 2, 2), 0.7, np.float32), "float32"),
        (np.array([0, 1, 2, 0, 1, 0, 0, 0], np.uint8).reshape(2, 2, 2), "largest value 2"),
    ])
    def test_prediction_that_is_not_a_mask_rejected(self, tmp_path, voxels, found):
        (tmp_path / "pred").mkdir()
        write_mvol(Volume(voxels), tmp_path / "pred" / "a.mvol")
        self._write_masks(tmp_path / "gt", {"a": np.ones((2, 2, 2))})
        with pytest.raises(harness.DatasetError) as info:
            harness.evaluate(tmp_path / "pred", tmp_path / "gt")
        assert str(info.value) == (f"{tmp_path / 'pred' / 'a.mvol'}: a prediction must be "
                                   f"a uint8 mask of 0s and 1s, got {found}")

    def test_ground_truth_that_is_not_labels_rejected(self, tmp_path):
        self._write_masks(tmp_path / "pred", {"a": np.ones((2, 2, 2))})
        (tmp_path / "gt").mkdir()
        write_mvol(Volume(np.ones((2, 2, 2), np.int16)), tmp_path / "gt" / "a.mvol")
        with pytest.raises(harness.DatasetError) as info:
            harness.evaluate(tmp_path / "pred", tmp_path / "gt")
        assert str(info.value) == (f"{tmp_path / 'gt' / 'a.mvol'}: a ground truth must hold "
                                   "uint8 labels, got int16")

    def test_dims_mismatch_names_the_case(self, tmp_path):
        self._write_masks(tmp_path / "pred", {"a": np.zeros((4, 4, 4))})
        self._write_masks(tmp_path / "gt", {"a": np.zeros((4, 4, 5))})
        with pytest.raises(harness.DatasetError,
                           match=r"a\.mvol: prediction and ground-truth dims differ"):
            harness.evaluate(tmp_path / "pred", tmp_path / "gt")

    def test_unpaired_files_rejected(self, tmp_path):
        self._write_masks(tmp_path / "pred", {"a": np.zeros((2, 2, 2))})
        self._write_masks(tmp_path / "gt", {"b": np.zeros((2, 2, 2))})
        with pytest.raises(harness.DatasetError, match="unpaired"):
            harness.evaluate(tmp_path / "pred", tmp_path / "gt")

    def test_matches_independent_recomputation(self, tmp_path):
        rng = np.random.default_rng(3)
        masks_p, masks_g = {}, {}
        for i in range(3):
            masks_p[f"c{i}"] = rng.uniform(size=(4, 4, 4)) > 0.5
            masks_g[f"c{i}"] = rng.uniform(size=(4, 4, 4)) > 0.5
        self._write_masks(tmp_path / "pred", masks_p)
        self._write_masks(tmp_path / "gt", masks_g)
        report = harness.evaluate(tmp_path / "pred", tmp_path / "gt")
        dices = []
        inter = total = 0
        for key in sorted(masks_p):
            a, b = masks_p[key], masks_g[key]
            dices.append(2 * np.sum(a & b) / (a.sum() + b.sum()))
            inter += np.sum(a & b)
            total += a.sum() + b.sum()
        assert report.per_case_dice == pytest.approx(np.mean(dices))
        assert report.global_dice == pytest.approx(2 * inter / total)


class TestMetricsReport:
    def test_tab_separated_lines(self):
        report = harness.MetricsReport(0.5, 0.25, [2.0, 1.0], 3.5)
        lines = report.lines().splitlines()
        assert lines[0] == "per_case_dice\t0.500000"
        assert all("\t" in line for line in lines)
        assert "loss_first\t2.000000" in lines and "loss_last\t1.000000" in lines


class TestAblate:
    def test_table_structure(self, dataset, tmp_path):
        cfg = micro_config(dataset, tmp_path / "ab.fedckpt", iterations=2)
        rows, table = harness.ablate(cfg)
        labels = [label for label, _, _ in rows]
        assert labels == [
            "Baseline", "Baseline + RCB", "Baseline + FF",
            "Baseline + FF with SE-Block", "Baseline + DUC",
            "Baseline + RCB + FF + DUC",
        ]
        assert all(0.0 <= pc <= 1.0 and 0.0 <= gl <= 1.0 for _, pc, gl in rows)
        lines = table.splitlines()
        assert lines[0] == "Model\tPer case\tGlobal"
        assert len(lines) == 7


class TestGradcheckSuite:
    def test_filtered_subset_passes(self):
        results = harness.gradcheck_suite(names=["dense/input", "sigmoid", "se_block"])
        assert [c.name for c in results] == ["dense/input", "sigmoid", "se_block"]
        assert all(c.passed for c in results)

    def test_reports_the_gate_fields(self):
        (check,) = harness.gradcheck_suite(names=["relu"])
        assert check.worst_coord is not None and len(check.worst_coord) == 4
        assert check.kink_coords_skipped == 0

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match=r"unknown check names \['conv2d/inptu'\]"):
            harness.gradcheck_suite(names=["conv2d/inptu", "relu"])

    def test_fault_injection_detected(self, monkeypatch):
        import fednet.ops as ops_mod
        from fednet.tensor import Tensor, record

        true_sigmoid = ops_mod.sigmoid

        def corrupted(x):
            out = true_sigmoid(x)
            bad = Tensor(out.data.copy())
            return record(bad, (x,), lambda g: (g * out.data * (1 - out.data) * 1.02,))

        monkeypatch.setattr(ops_mod, "sigmoid", corrupted)
        results = harness.gradcheck_suite(names=["sigmoid"])
        assert not results[0].passed


class TestCli:
    def test_synth_evaluate_flow(self, tmp_path, capsys):
        # the lesion labels of a synthesized segmentation, as a mask, score
        # Dice 1 against that segmentation at --gt-label 2
        out = tmp_path / "cli_data"
        assert cli.main(["synth", "--out", str(out), "--count", "1",
                         "--dims", "32,32,32", "--seed", "4"]) == 0
        assert (out / "case000_ct.mvol").exists()
        seg = read_mvol(out / "case000_seg.mvol")
        assert (seg.voxels == 2).any()
        pred = tmp_path / "p"
        gt = tmp_path / "g"
        pred.mkdir()
        gt.mkdir()
        write_mvol(Volume((seg.voxels == 2).view(np.uint8), seg.spacing), pred / "x.mvol")
        (gt / "x.mvol").write_bytes((out / "case000_seg.mvol").read_bytes())
        assert cli.main(["evaluate", str(pred), str(gt), "--gt-label", "2"]) == 0
        captured = capsys.readouterr().out
        assert "per_case_dice\t1.000000" in captured

    def test_train_and_infer_cli(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "micro.cfg"
        cfg_path.write_text(
            f"data_dir = {dataset}\nstage = lesion\niterations = 2\nbatch_size = 2\n"
            f"base_channels = 4\nse_reduction = 4\n"
            f"checkpoint_out = {tmp_path / 'lesion.fedckpt'}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        liver_cfg = tmp_path / "liver.cfg"
        liver_cfg.write_text(
            f"data_dir = {dataset}\nstage = liver\niterations = 2\nbatch_size = 2\n"
            f"base_channels = 4\nse_reduction = 4\n"
            f"checkpoint_out = {tmp_path / 'liver.fedckpt'}\n")
        assert cli.main(["train", "--config", str(liver_cfg)]) == 0
        assert cli.main([
            "infer", str(dataset / "case000_ct.mvol"),
            "--config", str(cfg_path),
            "--liver-ckpt", str(tmp_path / "liver.fedckpt"),
            "--lesion-ckpt", str(tmp_path / "lesion.fedckpt"),
            "--out", str(tmp_path / "mask.mvol")]) == 0
        mask = read_mvol(tmp_path / "mask.mvol")
        assert mask.voxels.dtype == np.uint8

    def test_infer_cli_loads_once_for_many_volumes(self, dataset, tmp_path, monkeypatch,
                                                   capsys):
        cfg_path = tmp_path / "many.cfg"
        cfg_path.write_text(f"data_dir = {dataset}\nbase_channels = 4\nse_reduction = 4\n"
                            f"checkpoint_out = {tmp_path / 'unused.fedckpt'}\n")
        cfg = parse_config(str(cfg_path))
        ckpts = {}
        for stage in ("liver", "lesion"):
            net = harness.build_network(cfg, stage=stage)
            # head biases +2 and 0: every slice is liver, and lesion
            # probabilities near 0.5 clear the 0.3 threshold, so masks are not empty
            net.head_out.b.data[...] = 2.0 if stage == "liver" else 0.0
            ckpts[stage] = tmp_path / f"{stage}.fedckpt"
            save_checkpoint(ckpts[stage], state_arrays(net))
        common = ["--config", str(cfg_path), "--liver-ckpt", str(ckpts["liver"]),
                  "--lesion-ckpt", str(ckpts["lesion"])]
        volumes = [str(dataset / "case000_ct.mvol"), str(dataset / "case001_ct.mvol")]
        singles = [tmp_path / "single0.mvol", tmp_path / "single1.mvol"]
        for volume, out in zip(volumes, singles):
            assert cli.main(["infer", volume, *common, "--out", str(out)]) == 0

        loads = []
        loader = harness.checkpoint.load_parameters

        def counting(net, path):
            loads.append(str(path))
            return loader(net, path)

        monkeypatch.setattr(harness.checkpoint, "load_parameters", counting)
        capsys.readouterr()
        many = [tmp_path / "many0.mvol", tmp_path / "many1.mvol"]
        assert cli.main(["infer", *volumes, *common,
                         "--out", str(many[0]), "--out", str(many[1])]) == 0
        assert loads == [str(ckpts["liver"]), str(ckpts["lesion"])]
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("out\t")] == [
            f"out\t{many[0]}", f"out\t{many[1]}"]
        for single, multi in zip(singles, many):
            assert read_mvol(multi).voxels.any()
            assert single.read_bytes() == multi.read_bytes()

    @pytest.mark.parametrize("dims", ["64,64,x", "64,64", "64,64,48,2", ""])
    def test_synth_bad_dims_names_the_flag(self, tmp_path, capsys, dims):
        out = tmp_path / "never_written"
        assert cli.main(["synth", "--out", str(out), "--dims", dims]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --dims must be three integers nx,ny,nz, "
                                f"got {dims!r}\n")
        assert not out.exists()

    def test_infer_cli_out_count_mismatch_exits_one(self, dataset, tmp_path, capsys):
        missing = str(tmp_path / "never_read.fedckpt")
        assert cli.main(["infer", str(dataset / "case000_ct.mvol"),
                         str(dataset / "case001_ct.mvol"), "--config", "never_read.cfg",
                         "--liver-ckpt", missing, "--lesion-ckpt", missing,
                         "--out", str(tmp_path / "only.mvol")]) == 1
        assert "2 volumes but 1 --out" in capsys.readouterr().err
        assert not (tmp_path / "only.mvol").exists()

    def test_train_missing_out_directory_exits_one(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(f"data_dir = {dataset}\nbase_channels = 4\nse_reduction = 4\n"
                            f"checkpoint_out = {tmp_path / 'unused.fedckpt'}\n")
        out = tmp_path / "missing" / "lesion.fedckpt"
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {out}: directory {out.parent} "
                                "does not exist\n")

    def test_infer_missing_out_directory_exits_one_before_loading(self, dataset, tmp_path,
                                                                  capsys):
        # neither the config nor the checkpoints exist: no --out is checked after them
        missing = str(tmp_path / "never_read.fedckpt")
        outs = [tmp_path / "first.mvol", tmp_path / "missing" / "second.mvol"]
        assert cli.main(["infer", str(dataset / "case000_ct.mvol"),
                         str(dataset / "case001_ct.mvol"), "--config", "never_read.cfg",
                         "--liver-ckpt", missing, "--lesion-ckpt", missing,
                         "--out", str(outs[0]), "--out", str(outs[1])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot write {outs[1]}: directory {outs[1].parent} "
                                "does not exist\n")
        assert not outs[0].exists()

    @pytest.mark.parametrize("collide", ["volume", "liver", "lesion", "config", "twice"])
    def test_infer_out_that_would_overwrite_an_input_exits_one(self, dataset, tmp_path,
                                                               monkeypatch, capsys, collide):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"data_dir = {dataset}\nbase_channels = 4\nse_reduction = 4\n"
                            f"checkpoint_out = {tmp_path / 'unused.fedckpt'}\n")
        cfg = parse_config(str(cfg_path))
        inputs = {"config": cfg_path}
        for stage in ("liver", "lesion"):
            inputs[stage] = tmp_path / f"{stage}.fedckpt"
            save_checkpoint(inputs[stage], state_arrays(harness.build_network(cfg, stage=stage)))
        volumes = [tmp_path / "a.mvol", tmp_path / "b.mvol"]
        for idx, path in enumerate(volumes):
            path.write_bytes((dataset / f"case{idx:03d}_ct.mvol").read_bytes())
        inputs["volume"] = volumes[1]
        before = {path: path.read_bytes() for path in [*volumes, *inputs.values()]}
        mask = tmp_path / "mask.mvol"
        if collide == "twice":
            outs = [mask, mask]
            message = f"--out {mask} is given twice; give each volume its own"
        else:
            # another spelling of the input's path: the check compares resolved paths
            (tmp_path / "sub").mkdir()
            outs = [tmp_path / "sub" / os.pardir / inputs[collide].name, mask]
            message = f"--out {outs[0]} would overwrite the input {inputs[collide]}"
        reads = []
        parse, load = cli.parse_config, harness.load_two_stage
        monkeypatch.setattr(cli, "parse_config", lambda path: reads.append(path) or parse(path))
        monkeypatch.setattr(harness, "load_two_stage",
                            lambda *args: reads.append(args) or load(*args))
        argv = ["infer", *map(str, volumes), "--config", str(cfg_path),
                "--liver-ckpt", str(inputs["liver"]), "--lesion-ckpt", str(inputs["lesion"])]
        for out in outs:
            argv += ["--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert reads == []
        assert {path: path.read_bytes() for path in before} == before
        assert not mask.exists()

    def test_slices_that_do_not_fit_the_network_exit_one_naming_the_ct(self, tmp_path,
                                                                        monkeypatch, capsys):
        # a 48x48 CT, cropped from a 64x64 phantom: train refuses it before it
        # builds a network and infer before it segments
        data = tmp_path / "small"
        data.mkdir()
        ct, seg = synth_generate(5, 1, (64, 64, 32))[0]
        for vol, suffix in ((ct, harness.CT_SUFFIX), (seg, harness.SEG_SUFFIX)):
            write_mvol(Volume(vol.voxels[:, :48, :48], vol.spacing), data / f"case000{suffix}")
        ct_path = data / f"case000{harness.CT_SUFFIX}"
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(f"data_dir = {data}\nbase_channels = 4\nse_reduction = 4\n"
                            f"iterations = 1\nbatch_size = 2\n"
                            f"checkpoint_out = {tmp_path / 's.fedckpt'}\n")
        cfg = parse_config(str(cfg_path))
        for stage in ("liver", "lesion"):
            save_checkpoint(tmp_path / f"{stage}.fedckpt",
                            state_arrays(harness.build_network(cfg, stage=stage)))
        message = (f"error: {ct_path}: slice height and width must be multiples of 32 to fit "
                   "the network, got 48x48\n")
        mask = tmp_path / "mask.mvol"
        assert cli.main(["infer", str(ct_path), "--config", str(cfg_path),
                         "--liver-ckpt", str(tmp_path / "liver.fedckpt"),
                         "--lesion-ckpt", str(tmp_path / "lesion.fedckpt"),
                         "--out", str(mask)]) == 1
        assert capsys.readouterr().err == message
        assert not mask.exists()
        builds = []
        monkeypatch.setattr(harness, "build_network", lambda *args, **kw: builds.append(args))
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert builds == []
        assert not (tmp_path / "s.fedckpt").exists()

    @pytest.mark.parametrize("bad", ["small48", "windowed"])
    def test_infer_checks_every_volume_before_writing_any_mask(self, dataset, tmp_path,
                                                               monkeypatch, capsys, bad):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"data_dir = {dataset}\nbase_channels = 4\nse_reduction = 4\n"
                            f"checkpoint_out = {tmp_path / 'unused.fedckpt'}\n")
        cfg = parse_config(str(cfg_path))
        for stage in ("liver", "lesion"):
            save_checkpoint(tmp_path / f"{stage}.fedckpt",
                            state_arrays(harness.build_network(cfg, stage=stage)))
        ct, _ = synth_generate(5, 1, (64, 64, 32))[0]
        good, bad_path = tmp_path / "good.mvol", tmp_path / f"{bad}.mvol"
        write_mvol(ct, good)
        if bad == "small48":
            write_mvol(Volume(ct.voxels[:, :48, :48], ct.spacing), bad_path)
            message = (f"{bad_path}: slice height and width must be multiples of 32 to fit "
                       "the network, got 48x48")
        else:
            write_mvol(Volume(pipeline.hu_window_normalize(ct.voxels), ct.spacing), bad_path)
            message = (f"{bad_path}: a CT volume must hold int16 HU, got float32; a windowed "
                       "volume cannot be windowed again")
        loads = []
        load = harness.load_two_stage
        monkeypatch.setattr(harness, "load_two_stage",
                            lambda *args: loads.append(args) or load(*args))
        outs = [tmp_path / "a.mvol", tmp_path / "b.mvol"]
        assert cli.main(["infer", str(good), str(bad_path), "--config", str(cfg_path),
                         "--liver-ckpt", str(tmp_path / "liver.fedckpt"),
                         "--lesion-ckpt", str(tmp_path / "lesion.fedckpt"),
                         "--out", str(outs[0]), "--out", str(outs[1])]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert loads == []
        assert not any(out.exists() for out in outs)

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_out_that_is_a_directory_exits_one_before_loading(self, dataset, tmp_path,
                                                             monkeypatch, capsys, command):
        # neither the config's checkpoints nor its data are read: the --out
        # check comes first
        out = tmp_path / "taken"
        out.mkdir()
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(f"data_dir = {dataset}\nbase_channels = 4\nse_reduction = 4\n"
                            f"iterations = 1\nbatch_size = 2\n"
                            f"checkpoint_out = {tmp_path / 'unused.fedckpt'}\n")
        reads = []
        for module, name in ((harness, "load_two_stage"), (harness, "load_dataset"),
                             (harness, "read_mvol"), (cli, "read_mvol")):
            monkeypatch.setattr(module, name, lambda *args, **kw: reads.append(args))
        ct = str(dataset / "case000_ct.mvol")
        missing = str(tmp_path / "never_read.fedckpt")
        argv = {"infer": ["infer", ct, "--config", str(cfg_path), "--liver-ckpt", missing,
                          "--lesion-ckpt", missing, "--out", str(out)],
                "train": ["train", "--config", str(cfg_path), "--out", str(out)]}[command]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: cannot write {out}: it is a "
                                                    "directory\n")
        assert reads == []
        assert not any(out.iterdir())

    @pytest.mark.parametrize("under", [False, True])
    def test_synth_out_that_is_a_file_exits_one_before_generating(self, tmp_path, monkeypatch,
                                                                  capsys, under):
        taken = tmp_path / "taken"
        taken.write_bytes(b"kept")
        out = taken / "sub" if under else taken
        calls = []
        monkeypatch.setattr(cli, "synth_generate", lambda *args: calls.append(args))
        assert cli.main(["synth", "--out", str(out), "--count", "1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: cannot write phantoms to {out}: {taken} is not a directory\n")
        assert calls == []
        assert taken.read_bytes() == b"kept"

    def test_synth_seed_defaults_to_zero(self, tmp_path):
        for name, seed in (("default", []), ("zero", ["--seed", "0"])):
            assert cli.main(["synth", "--out", str(tmp_path / name), "--count", "1",
                             "--dims", "32,32,32", *seed]) == 0
        for suffix in ("_ct.mvol", "_seg.mvol"):
            assert ((tmp_path / "default" / f"case000{suffix}").read_bytes()
                    == (tmp_path / "zero" / f"case000{suffix}").read_bytes())

    def test_windowed_ct_exits_one_naming_file_and_dtype(self, dataset, tmp_path, capsys):
        # a float32 CT is windowed already: infer and train each refuse it
        # instead of windowing it a second time
        norm = tmp_path / "norm.mvol"
        ct = read_mvol(dataset / "case000_ct.mvol")
        write_mvol(Volume(pipeline.hu_window_normalize(ct.voxels), ct.spacing), norm)
        cfg_path = tmp_path / "w.cfg"
        cfg_path.write_text(f"data_dir = {tmp_path / 'windowed'}\nbase_channels = 4\n"
                            f"se_reduction = 4\niterations = 1\nbatch_size = 2\n"
                            f"checkpoint_out = {tmp_path / 'w.fedckpt'}\n")
        cfg = parse_config(str(cfg_path))
        for stage in ("liver", "lesion"):
            save_checkpoint(tmp_path / f"{stage}.fedckpt",
                            state_arrays(harness.build_network(cfg, stage=stage)))
        (tmp_path / "windowed").mkdir()
        (tmp_path / "windowed" / "case000_ct.mvol").write_bytes(norm.read_bytes())
        (tmp_path / "windowed" / "case000_seg.mvol").write_bytes(
            (dataset / "case000_seg.mvol").read_bytes())
        capsys.readouterr()
        commands = [
            (["infer", str(norm), "--config", str(cfg_path),
              "--liver-ckpt", str(tmp_path / "liver.fedckpt"),
              "--lesion-ckpt", str(tmp_path / "lesion.fedckpt"),
              "--out", str(tmp_path / "mask.mvol")], "norm.mvol"),
            (["train", "--config", str(cfg_path)], "case000_ct.mvol"),
        ]
        for argv, name in commands:
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert name in err and "float32" in err and "int16" in err
        assert not (tmp_path / "mask.mvol").exists()
        assert not (tmp_path / "w.fedckpt").exists()

    def test_evaluate_rejects_a_ct_as_prediction(self, dataset, tmp_path, capsys):
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        (pred / "case000.mvol").write_bytes((dataset / "case000_ct.mvol").read_bytes())
        (gt / "case000.mvol").write_bytes((dataset / "case000_seg.mvol").read_bytes())
        assert cli.main(["evaluate", str(pred), str(gt)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {pred / 'case000.mvol'}: a prediction must be a "
                                "uint8 mask of 0s and 1s, got int16\n")

    def test_evaluate_rejects_a_gt_label_beyond_uint8(self, dataset, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        (gt / "case000.mvol").write_bytes((dataset / "case000_seg.mvol").read_bytes())
        assert cli.main(["evaluate", str(gt), str(gt), "--gt-label", "300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: gt_label must lie in [0, 255], the labels a uint8 "
                                "ground truth holds, got 300\n")

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_synth_count_below_one_exits_one(self, tmp_path, capsys, count):
        out = tmp_path / "none"
        assert cli.main(["synth", "--out", str(out), "--count", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: volume count must be at least 1, got {count}\n"
        assert not out.exists()

    def test_validation_errors_exit_one(self, tmp_path, capsys):
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("nonsense_key = 1\n")
        assert cli.main(["train", "--config", str(bad_cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err
        ckpt = str(tmp_path / "missing.fedckpt")
        assert cli.main(["infer", str(tmp_path / "missing.mvol"), "--config", str(bad_cfg),
                         "--liver-ckpt", ckpt, "--lesion-ckpt", ckpt,
                         "--out", str(tmp_path / "o.mvol")]) == 1
        assert "missing.mvol" in capsys.readouterr().err
        assert cli.main(["synth", "--out", str(tmp_path / "s"), "--dims", "8,8,8"]) == 1

    @staticmethod
    def _commands(parser) -> set[str]:
        return set(next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)))

    def test_parser_has_exactly_the_six_commands(self, capsys):
        assert self._commands(cli.build_parser()) == {"synth", "train", "infer", "evaluate",
                                                      "ablate", "gradcheck"}
        # a removed command is an argparse usage error, exit 2
        with pytest.raises(SystemExit) as info:
            cli.main(["preprocess", "ct.mvol", "--out", "norm.mvol"])
        assert info.value.code == 2
        assert "invalid choice: 'preprocess'" in capsys.readouterr().err

    def test_readme_quickstart_commands_parse(self):
        # every `fednet ...` line of the Quickstart block, with its
        # backslash-continued lines joined, parses; together they use every command
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Quickstart (CLI)", 1)[1].split("```bash\n", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("fednet ")]
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)
        assert {argv[0] for argv in commands} == self._commands(parser)

    def test_seed_flag_overrides_config(self, dataset, tmp_path):
        cfg_path = tmp_path / "seeded.cfg"
        cfg_path.write_text(
            f"data_dir = {dataset}\niterations = 2\nbatch_size = 2\nseed = 0\n"
            f"base_channels = 4\nse_reduction = 4\n"
            f"checkpoint_out = {tmp_path / 'a.fedckpt'}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path), "--seed", "7",
                         "--out", str(tmp_path / "b.fedckpt")]) == 0
        assert (tmp_path / "a.fedckpt").read_bytes() != (tmp_path / "b.fedckpt").read_bytes()

    def test_gradcheck_exit_codes(self, monkeypatch, capsys):
        ok = [GradCheckReport(1e-9, True, name="x")]
        monkeypatch.setattr(harness, "gradcheck_suite", lambda: ok)
        assert cli.main(["gradcheck"]) == 0
        assert "x\t1.000e-09\tPASS" in capsys.readouterr().out
        bad = [GradCheckReport(1e-2, False, name="x")]
        monkeypatch.setattr(harness, "gradcheck_suite", lambda: bad)
        assert cli.main(["gradcheck"]) == 2

    def test_gradcheck_prints_worst_coord_and_kinks(self, monkeypatch, capsys):
        checks = [GradCheckReport(1e-9, True, (0, 2, 1), kink_coords_skipped=3, name="x",
                                  seconds=1.25),
                  GradCheckReport(1e-9, True, name="y", seconds=0.5)]
        monkeypatch.setattr(harness, "gradcheck_suite", lambda: checks)
        assert cli.main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("x\t1.000e-09\tPASS\tworst_coord=0,2,1\tkink_coords_skipped=3"
                            "\tseconds=1.250")
        assert lines[1] == ("y\t1.000e-09\tPASS\tworst_coord=-\tkink_coords_skipped=0"
                            "\tseconds=0.500")
        assert lines[-1] == "total_seconds\t1.750"

    def test_gradcheck_prints_the_reason_of_a_failed_check(self, monkeypatch, capsys):
        checks = [GradCheckReport(np.inf, False, (1, 0), "non-finite gradient at (1, 0)",
                                  name="x", seconds=0.25)]
        monkeypatch.setattr(harness, "gradcheck_suite", lambda: checks)
        assert cli.main(["gradcheck"]) == 2
        assert capsys.readouterr().out.splitlines()[0] == (
            "x\tinf\tFAIL\tworst_coord=1,0\tkink_coords_skipped=0\tseconds=0.250"
            "\treason=non-finite gradient at (1, 0)")

    def test_ablate_cli(self, dataset, tmp_path, capsys):
        cfg_path = tmp_path / "ab.cfg"
        cfg_path.write_text(
            f"data_dir = {dataset}\niterations = 1\nbatch_size = 2\n"
            f"base_channels = 4\nse_reduction = 4\n"
            f"checkpoint_out = {tmp_path / 'unused.fedckpt'}\n")
        assert cli.main(["ablate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Model\tPer case\tGlobal")
        assert "Baseline + RCB + FF + DUC" in out
