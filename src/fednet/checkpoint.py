"""FEDCKPT1 checkpoint format.

Layout (little-endian): magic b"FEDCKPT1", u32 entry count, then per entry a
u16 name length, the UTF-8 name, a u8 rank, rank u32 extents, and the values
as 32-bit IEEE-754.  Entries are written sorted by name, so save -> load ->
save is byte-identical.  SGD momentum buffers are stored as ordinary entries
under the parameter name plus the suffix ".m".
"""

from __future__ import annotations

import struct
from typing import Mapping

import numpy as np

from .volume import atomic_write

MAGIC = b"FEDCKPT1"
MOMENTUM_SUFFIX = ".m"


class CheckpointError(ValueError):
    pass


class CheckpointMismatch(CheckpointError):
    """Checkpoint and network disagree on the parameter name set or shapes."""


def save_checkpoint(path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``path``; a failed write leaves the old file."""
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) or blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a FEDCKPT1 file")
    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        n_values = int(np.prod(shape, dtype=np.int64)) if rank else 1
        values = np.frombuffer(take(4 * n_values), dtype="<f4").reshape(shape)
        if name in out:
            raise CheckpointError(f"{path}: duplicate parameter name {name!r}")
        out[name] = values.copy()
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} trailing bytes")
    return out


def state_arrays(net) -> dict[str, np.ndarray]:
    """Flatten a network's parameters and momentum buffers for saving."""
    out: dict[str, np.ndarray] = {}
    for name, p in net.named_parameters().items():
        out[name] = p.value.data
        out[name + MOMENTUM_SUFFIX] = p.momentum
    return out


def load_parameters(net, arrays: Mapping[str, np.ndarray]) -> None:
    """Load values (and any momentum buffers) into ``net`` by name.

    The value-name sets must match exactly; missing or extra names raise
    :class:`CheckpointMismatch` listing the offenders.
    """
    params = net.named_parameters()
    values = {k: v for k, v in arrays.items() if not k.endswith(MOMENTUM_SUFFIX)}
    missing = sorted(set(params) - set(values))
    extra = sorted(set(values) - set(params))
    if missing or extra:
        raise CheckpointMismatch(
            f"parameter name mismatch: missing from checkpoint {missing}, "
            f"unexpected in checkpoint {extra}")
    for name, p in params.items():
        arr = values[name]
        if tuple(arr.shape) != tuple(p.value.shape):
            raise CheckpointMismatch(
                f"parameter {name!r}: checkpoint shape {tuple(arr.shape)} != "
                f"network shape {tuple(p.value.shape)}")
        p.value.data[...] = arr.astype(p.value.data.dtype)
        mom = arrays.get(name + MOMENTUM_SUFFIX)
        if mom is not None:
            p.momentum[...] = mom.astype(p.momentum.dtype)
