"""Text configuration: ``key = value`` lines, ``#`` comments, unknown keys
rejected, missing keys defaulted, everything validated with line numbers.

:class:`TrainConfig` and the :class:`~fednet.blocks.NetworkSpec` and
:class:`~fednet.losses.LossWeights` it holds check themselves when built and
are frozen: a config that exists is valid and cannot be changed.  A variant
comes from ``dataclasses.replace``, which builds, and so checks, a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .blocks import NetworkSpec
from .losses import LossWeights


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    stage: str = "lesion"                  # "liver" trains the baseline, "lesion" the full net
    network: NetworkSpec = field(default_factory=NetworkSpec)
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 8
    iterations: int = 300
    seed: int = 0
    loss: LossWeights = field(default_factory=LossWeights)
    data_dir: str = "data"
    checkpoint_out: str = "model.fedckpt"
    p_pos: float = 0.9
    p_neg: float = 0.1
    liver_threshold: float = 0.5
    lesion_threshold: float = 0.3
    connectivity: int = 6
    grad_clip: float = 3.0                 # global grad-norm cap; 0 disables

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.stage not in ("liver", "lesion"):
            raise ConfigError(f"stage must be 'liver' or 'lesion', got {self.stage!r}")
        # each float check is a comparison that NaN fails
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be > 0 and finite, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be a u64, got {self.seed}")
        for key in ("p_pos", "p_neg", "liver_threshold", "lesion_threshold"):
            v = getattr(self, key)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {v}")
        if not self.data_dir or not self.checkpoint_out:
            raise ConfigError("data_dir and checkpoint_out must be non-empty paths")
        if self.connectivity not in (6, 26):
            raise ConfigError(f"connectivity must be 6 or 26, got {self.connectivity}")
        if not 0 <= self.grad_clip < math.inf:
            raise ConfigError(f"grad_clip must be >= 0 and finite, got {self.grad_clip}")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_CASTERS = {str: str, int: int, float: float, bool: _parse_bool}


def _scalar_keys(cls, target: str) -> dict:
    """key -> (target, caster) for every field of ``cls`` with a scalar type."""
    hints = get_type_hints(cls)
    return {f.name: (target, _CASTERS[hints[f.name]]) for f in fields(cls)
            if hints[f.name] in _CASTERS}


# every scalar field of the three dataclasses is a key; target "cfg" / "net" / "loss"
_SCHEMA = {**_scalar_keys(TrainConfig, "cfg"), **_scalar_keys(NetworkSpec, "net"),
           **_scalar_keys(LossWeights, "loss")}


def parse_config(path) -> TrainConfig:
    """Parse and fully validate a config file; every error names its line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    buckets: dict[str, dict] = {"cfg": {}, "net": {}, "loss": {}}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        target, caster = _SCHEMA[key]
        try:
            buckets[target][key] = caster(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse {key!r} from {value!r}: {exc}") from exc

    try:
        net = NetworkSpec(**buckets["net"])
        loss = LossWeights(**buckets["loss"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return TrainConfig(network=net, loss=loss, **buckets["cfg"])
