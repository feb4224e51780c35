"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fednet import cli, harness, ops
from fednet.blocks import FeatureFusion, NetworkSpec
from fednet.config import TrainConfig
from fednet.losses import CLAMP_DELTA, LossWeights, combined_loss, soft_jaccard
from fednet.pipeline import (bbox_of_mask, connected_components_3d,
                             hu_window_normalize, largest_component)
from fednet.synth import synth_generate
from fednet.tensor import Tensor
from fednet.volume import read_mvol, write_mvol

from oracles import conv2d_reference, conv_transpose2d_reference, flood_fill_labels

SMOKE_SEED = 0
DATA_SEED = 42


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def smoke_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance") / "data"
    root.mkdir()
    for idx, (ct, seg) in enumerate(synth_generate(DATA_SEED, 4, (64, 64, 48))):
        write_mvol(ct, root / f"case{idx:03d}_ct.mvol")
        write_mvol(seg, root / f"case{idx:03d}_seg.mvol")
    return root


def test_criterion_1_reference_scores_out_of_scope():
    """Desk-scale acceptance is property-based plus structural replication.

    The published full-scale Dice figures (for example 0.650 per-case /
    0.766 global for the complete configuration) depend on the LiTS dataset,
    an ImageNet-pretrained encoder, and GPU-scale training; none of those are
    part of this build, so no test asserts them.
    """
    report(1, "reference full-scale Dice values are documented as out of scope; "
              "verification is property-based")


def test_criterion_2_gradient_suite():
    started = time.perf_counter()
    results = harness.gradcheck_suite(tol=1e-4)
    elapsed = time.perf_counter() - started
    failed = [c.name for c in results if not c.passed]
    assert not failed, f"gradient checks failed: {failed}"
    assert len(results) >= 12
    names = {c.name for c in results}
    for required in ["conv2d/input", "conv_transpose2d/input", "dense/input", "relu",
                     "sigmoid", "global_avg_pool", "upsample_nearest", "pixel_shuffle",
                     "se_block", "rcb", "feature_fuse", "duc_block", "decoder_block",
                     "fednet_forward", "combined_loss", "combined_loss_with_logits"]:
        assert required in names
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s, budget is 300s"
    worst = max(c.max_rel_err for c in results)
    report(2, f"{len(results)} gradient checks passed at tol 1e-4 "
              f"(worst {worst:.2e}) in {elapsed:.0f}s")


def test_criterion_3_oracle_equivalences():
    rng = np.random.default_rng(303)

    # convolutions against nested-loop oracles at 64-bit
    x = rng.standard_normal((2, 3, 6, 7))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), 2, 1).data
    assert np.abs(got - conv2d_reference(x, w, b, 2, 1)).max() <= 1e-12
    y = rng.standard_normal((2, 3, 4, 4))
    wt = rng.standard_normal((3, 2, 3, 3))
    bt = np.zeros(2)
    got_t = ops.conv_transpose2d(Tensor(y), Tensor(wt), Tensor(bt), 2, 1).data
    assert np.abs(got_t - conv_transpose2d_reference(y, wt, bt, 2, 1)).max() <= 1e-12

    # losses against scalar evaluation
    yv = (rng.uniform(size=16) > 0.6).astype(float)
    pv = rng.uniform(0.01, 0.99, size=16)
    inter = float(np.sum(yv * pv))
    union = float(yv.sum() + pv.sum() - inter)
    expected_j = (inter + 1e-15) / (union + 1e-15)
    assert abs(soft_jaccard(Tensor(yv), Tensor(pv)).item() - expected_j) <= 1e-12
    w_loss = LossWeights(omega1=0.4, omega2=0.7)
    delta = CLAMP_DELTA
    bce_terms = [(w_loss.omega1 - 1.0) * yi * math.log(min(max(pi, delta), 1 - delta))
                 - w_loss.omega1 * (1 - yi) * math.log(1 - min(max(pi, delta), 1 - delta))
                 for yi, pi in zip(yv, pv)]
    expected_loss = float(np.mean(bce_terms)) - w_loss.omega2 * math.log(expected_j)
    got_loss = combined_loss(Tensor(yv), Tensor(pv), w_loss).item()
    assert abs(got_loss - expected_loss) <= 1e-12

    # connected components against the recursive flood-fill oracle
    cc_rng = np.random.default_rng(304)
    for _ in range(100):
        mask = (cc_rng.uniform(size=(16, 16, 16)) > cc_rng.uniform(0.55, 0.85))
        labels, sizes = connected_components_3d(mask.astype(np.uint8))
        np.testing.assert_array_equal(labels, flood_fill_labels(mask))
        assert int(sizes.sum()) == int(mask.sum())

    # pixel shuffle round trip, bit exact
    for r in (1, 2, 3):
        t = Tensor(rng.standard_normal((2, 4 * r * r, 3, 5)))
        back = ops.pixel_unshuffle(ops.pixel_shuffle(t, r), r).data
        assert back.tobytes() == t.data.tobytes()

    report(3, "conv/loss/component/shuffle implementations match their "
              "independent oracles")


def test_criterion_4_fusion_reduction():
    rng = np.random.default_rng(404)
    channels = (3, 3, 3, 3)
    fuse = FeatureFusion(channels, 1, False, rng).astype(np.float64)
    for term in fuse.terms.values():
        c = term.proj.w.shape[0]
        term.proj.w.data[...] = np.eye(c).reshape(c, c, 1, 1)
        term.proj.b.data[...] = 0.0

    constants = [Tensor(np.full((1, 3, 16, 16), 1.0)), Tensor(np.full((1, 3, 8, 8), 2.0)),
                 Tensor(np.full((1, 3, 4, 4), 3.0)), Tensor(np.full((1, 3, 2, 2), 4.0))]
    fused = fuse(constants)
    np.testing.assert_array_equal(fused[0].data, np.full((1, 3, 16, 16), 10.0))
    np.testing.assert_array_equal(fused[1].data, np.full((1, 3, 8, 8), 9.0))
    np.testing.assert_array_equal(fused[2].data, np.full((1, 3, 4, 4), 7.0))
    np.testing.assert_array_equal(fused[3].data, np.full((1, 3, 2, 2), 4.0))

    levels = [rng.uniform(-1, 1, (2, 3, 16 >> i, 16 >> i)) for i in range(4)]
    fused = fuse([Tensor(v) for v in levels])
    up = lambda v, f: np.kron(v, np.ones((1, 1, f, f)))
    for l in range(4):
        expected = levels[l].copy()
        for i in range(l + 1, 4):
            expected = expected + up(levels[i], 2 ** (i - l))
        assert np.abs(fused[l].data - expected).max() <= 1e-12
    report(4, "attention fusion with SE disabled and identity projections "
              "reduces to the plain upsampled sum")


def test_criterion_5_loss_anchors():
    v = combined_loss(Tensor([1.0]), Tensor([0.5]),
                      LossWeights(omega1=0.5, omega2=1.0)).item()
    assert v == pytest.approx(1.039721, abs=1e-6)

    rng = np.random.default_rng(505)
    y = (rng.uniform(size=(2, 1, 4, 4)) > 0.7).astype(np.float64)
    perfect = combined_loss(Tensor(y), Tensor(y.copy())).item()
    assert 0.0 <= perfect <= 1e-5

    negative = 0
    for i in range(10_000):
        pair_rng = np.random.default_rng(505_000 + i)
        yv = (pair_rng.uniform(size=6) > pair_rng.uniform()).astype(np.float64)
        pv = pair_rng.uniform(size=6)
        w = LossWeights(omega1=pair_rng.uniform(0.05, 0.95),
                        omega2=pair_rng.uniform(0.0, 2.0))
        if combined_loss(Tensor(yv), Tensor(pv), w).item() < 0.0:
            negative += 1
    assert negative == 0
    report(5, "single-pixel anchor 1.039721 hit to 1e-6; perfect predictions "
              "score <= 1e-5; loss non-negative over 10^4 random pairs")


def test_criterion_6_preprocessing_anchors():
    vals = np.array([[[-200, 250, -300, 400, 25]]], dtype=np.int16)
    out = hu_window_normalize(vals)[0, 0]
    assert out[0] == 0.0
    assert out[1] == 1.0
    assert out[2] == 0.0   # clipped below the window
    assert out[3] == 1.0   # clipped above the window
    assert out[4] == pytest.approx(0.5, abs=1e-7)
    report(6, "HU window maps -200 -> 0.0 and 250 -> 1.0 exactly, clipping outside")


def test_criterion_7_training_smoke(smoke_data, tmp_path):
    cfg_a = TrainConfig(stage="lesion", data_dir=str(smoke_data), seed=SMOKE_SEED,
                        checkpoint_out=str(tmp_path / "lesion_a.fedckpt"))
    assert cfg_a.iterations == 300
    started = time.perf_counter()
    _, rep_a = harness.train(cfg_a)
    elapsed = time.perf_counter() - started
    assert elapsed <= 900.0, f"training took {elapsed:.0f}s, budget is 900s"
    assert rep_a.per_case_dice >= 0.80, f"per-case dice {rep_a.per_case_dice:.3f} < 0.80"

    cfg_b = replace(cfg_a, checkpoint_out=str(tmp_path / "lesion_b.fedckpt"))
    harness.train(cfg_b)
    bytes_a = (tmp_path / "lesion_a.fedckpt").read_bytes()
    bytes_b = (tmp_path / "lesion_b.fedckpt").read_bytes()
    assert bytes_a == bytes_b, "identical config+seed must give byte-identical checkpoints"
    report(7, f"lesion-stage training reached per-case dice "
              f"{rep_a.per_case_dice:.3f} (>= 0.80) in {elapsed:.0f}s; "
              f"rerun checkpoints byte-identical")


def test_criterion_8_ablation_structure(tmp_path):
    data = tmp_path / "toy"
    data.mkdir()
    for idx, (ct, seg) in enumerate(synth_generate(8, 2, (32, 32, 32))):
        write_mvol(ct, data / f"case{idx:03d}_ct.mvol")
        write_mvol(seg, data / f"case{idx:03d}_seg.mvol")
    cfg = TrainConfig(data_dir=str(data), iterations=20, batch_size=4, seed=3,
                      checkpoint_out=str(tmp_path / "unused.fedckpt"),
                      network=NetworkSpec(base_channels=8, se_reduction=8))

    rows, table = harness.ablate(cfg)
    labels = [label for label, _, _ in rows]
    assert labels == ["Baseline", "Baseline + RCB", "Baseline + FF",
                      "Baseline + FF with SE-Block", "Baseline + DUC",
                      "Baseline + RCB + FF + DUC"]
    assert all(0.0 <= pc <= 1.0 and 0.0 <= gl <= 1.0 for _, pc, gl in rows)
    _, table_again = harness.ablate(cfg)
    assert table == table_again, "ablation table must be deterministic per seed"
    report(8, "ablation grid emits the six expected rows, all Dice in [0,1], "
              "deterministic per seed")


def test_criterion_9_end_to_end(tmp_path):
    work = tmp_path
    data = work / "data"
    assert cli.main(["synth", "--out", str(data), "--count", "4",
                     "--dims", "64,64,48", "--seed", str(DATA_SEED)]) == 0

    liver_cfg = work / "liver.cfg"
    liver_cfg.write_text(
        f"stage = liver\ndata_dir = {data}\nseed = {SMOKE_SEED}\n"
        f"checkpoint_out = {work / 'liver.fedckpt'}\n")
    lesion_cfg = work / "lesion.cfg"
    lesion_cfg.write_text(
        f"stage = lesion\ndata_dir = {data}\nseed = {SMOKE_SEED}\n"
        f"checkpoint_out = {work / 'lesion.fedckpt'}\n")
    assert cli.main(["train", "--config", str(liver_cfg)]) == 0
    assert cli.main(["train", "--config", str(lesion_cfg)]) == 0

    pred = work / "pred"
    gt = work / "gt"
    pred.mkdir()
    gt.mkdir()
    cfg = TrainConfig(data_dir=str(data))
    liver_net = harness.build_network(cfg, stage="liver")
    from fednet.checkpoint import load_parameters
    load_parameters(liver_net, work / "liver.fedckpt")

    for ct_path in sorted(data.glob("*_ct.mvol")):
        name = ct_path.name[:-len("_ct.mvol")]
        out_path = pred / f"{name}.mvol"
        assert cli.main(["infer", str(ct_path), "--config", str(lesion_cfg),
                         "--liver-ckpt", str(work / "liver.fedckpt"),
                         "--lesion-ckpt", str(work / "lesion.fedckpt"),
                         "--out", str(out_path)]) == 0
        seg = read_mvol(data / f"{name}_seg.mvol")
        write_mvol(seg, gt / f"{name}.mvol")

        # voxelwise containment in the stage-1 liver bounding box
        mask = read_mvol(out_path).voxels
        ct = read_mvol(ct_path).voxels
        liver_mask = largest_component(
            harness.predict_volume(liver_net, ct, range(len(ct)), cfg.liver_threshold))
        if mask.any():
            assert liver_mask.any(), "nonempty lesion mask without a liver"
            assert bbox_of_mask(liver_mask).contains_mask(mask), \
                f"{name}: lesion voxels escape the liver bounding box"

    assert cli.main(["evaluate", str(pred), str(gt), "--gt-label", "2"]) == 0
    rep = harness.evaluate(pred, gt, gt_label=2)
    report(9, f"synth -> train (both stages) -> infer -> evaluate completed; "
              f"final masks contained in the liver bounding box on every volume "
              f"(two-stage dice {rep.per_case_dice:.3f} per-case / "
              f"{rep.global_dice:.3f} global)")
