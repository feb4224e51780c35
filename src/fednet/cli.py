"""Command-line entry points.

Subcommands: synth, preprocess, train, infer, evaluate, ablate, gradcheck.
Exit codes: 0 success, 1 validation error (bad config, bad file, mismatched
checkpoint, no OpenBLAS to set to one thread), 2 internal failure (including
failed gradient checks).
Reports are tab-separated text on standard output.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import harness
from .blocks import ENCODER_STRIDE, check_slice_size
from .config import parse_config
from .pipeline import hu_window_normalize
from .synth import synth_generate
from .volume import Volume, read_mvol, write_mvol

# ConfigError, MVolError, CheckpointError and DatasetError all derive from ValueError
_VALIDATION_ERRORS = (ValueError, FileNotFoundError, NotADirectoryError, harness.BlasError)


def _parse_dims(raw: str) -> tuple[int, int, int]:
    parts = [int(p) for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"dims must be 'nx,ny,nz', got {raw!r}")
    return tuple(parts)


def _load_config(args, **overrides) -> "harness.TrainConfig":
    """The config file with each given (not None) override; ``replace`` checks it."""
    given = {key: value for key, value in overrides.items() if value is not None}
    return replace(parse_config(args.config), **given)


def cmd_synth(args) -> int:
    pairs = synth_generate(args.seed, args.count, _parse_dims(args.dims))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx, (ct, seg) in enumerate(pairs):
        write_mvol(ct, out / f"case{idx:03d}{harness.CT_SUFFIX}")
        write_mvol(seg, out / f"case{idx:03d}{harness.SEG_SUFFIX}")
    print(f"volumes\t{len(pairs)}")
    print(f"out_dir\t{out}")
    return 0


def cmd_preprocess(args) -> int:
    vol = harness.check_ct(read_mvol(args.volume), args.volume)
    norm = Volume(hu_window_normalize(vol.voxels), vol.spacing)
    write_mvol(norm, args.out)
    print(f"out\t{args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args, seed=args.seed, checkpoint_out=args.out)
    _, report = harness.train(cfg)
    print(f"checkpoint\t{cfg.checkpoint_out}")
    print(report.lines())
    return 0


def cmd_infer(args) -> int:
    if len(args.out) != len(args.volume):
        raise ValueError(f"infer got {len(args.volume)} volumes but {len(args.out)} "
                         f"--out paths; give one --out per volume, in order")
    # resolved input path -> the path as given
    inputs = {Path(p).resolve(): p
              for p in (*args.volume, args.liver_ckpt, args.lesion_ckpt, args.config)}
    targets = set()
    for out in args.out:
        harness.check_out_dir(out)
        target = Path(out).resolve()
        if target in inputs:
            raise ValueError(f"--out {out} would overwrite the input {inputs[target]}")
        if target in targets:
            raise ValueError(f"--out {out} is given twice; give each volume its own")
        targets.add(target)
    cfg = _load_config(args)
    nets = harness.load_two_stage(cfg, args.liver_ckpt, args.lesion_ckpt)
    for volume_path, out in zip(args.volume, args.out):
        ct = harness.check_ct(read_mvol(volume_path), volume_path)
        check_slice_size(ct.voxels.shape, volume_path)
        mask = harness.segment(cfg, *nets, ct)
        write_mvol(mask, out)
        print(f"out\t{out}")
        print(f"lesion_voxels\t{int(mask.voxels.sum())}")
    return 0


def cmd_evaluate(args) -> int:
    report = harness.evaluate(args.pred_dir, args.gt_dir, args.gt_label)
    print(report.lines())
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args, seed=args.seed)
    _, table = harness.ablate(cfg)
    print(table)
    return 0


def cmd_gradcheck(args) -> int:
    results = harness.gradcheck_suite(tol=args.tol)
    for check in results:
        print(check)
    failed = [c for c in results if not c.passed]
    print(f"checks\t{len(results)}")
    print(f"failed\t{len(failed)}")
    print(f"total_seconds\t{sum(c.seconds for c in results):.3f}")
    return 0 if not failed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fednet",
        description="Two-stage CT lesion segmentation at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic phantom volumes")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--dims", default="64,64,48",
                   help=f"nx,ny,nz (each >= 32; nx and ny multiples of {ENCODER_STRIDE})")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("preprocess", help="HU-window a CT volume to [0,1]")
    p.add_argument("volume")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train", help="train one stage from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override checkpoint_out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="two-stage segmentation of one or more volumes")
    p.add_argument("volume", nargs="+")
    p.add_argument("--config", required=True)
    p.add_argument("--liver-ckpt", required=True)
    p.add_argument("--lesion-ckpt", required=True)
    p.add_argument("--out", required=True, action="append",
                   help="output mask path, once per volume, in the same order")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("evaluate", help="per-case and global Dice over mask directories")
    p.add_argument("pred_dir")
    p.add_argument("gt_dir")
    p.add_argument("--gt-label", type=int, default=None,
                   help="ground-truth label treated as foreground (default: any nonzero)")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and evaluate the six flag combinations")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every op and block")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
