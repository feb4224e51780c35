"""Desk-scale attention feature-fusion encoder-decoder segmentation stack:
a minimal autodiff tensor core, the network blocks, the composite
BCE + Jaccard loss, a two-stage CT pipeline with synthetic phantom data, and
a command-line harness.
"""

from .blocks import FedNet, NetworkSpec
from .config import ConfigError, TrainConfig, parse_config
from .losses import (LossWeights, combined_loss, combined_loss_with_logits, dice, dice_global,
                     dice_per_case, soft_jaccard, weighted_bce)
from .tensor import (FlatParameters, GradCheckReport, Parameter, Tape, Tensor, backward,
                     grad_check, sgd_step)
from .volume import MVolError, Volume, read_mvol, write_mvol

__all__ = [
    "FedNet", "NetworkSpec",
    "ConfigError", "TrainConfig", "parse_config",
    "LossWeights", "combined_loss", "combined_loss_with_logits", "dice", "dice_global",
    "dice_per_case", "soft_jaccard", "weighted_bce",
    "FlatParameters", "GradCheckReport", "Parameter", "Tape", "Tensor", "backward", "grad_check",
    "sgd_step",
    "MVolError", "Volume", "read_mvol", "write_mvol",
]

__version__ = "0.1.0"
