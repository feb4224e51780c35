"""FEDCKPT1 checkpoint format.

Layout (little-endian): magic b"FEDCKPT1", u32 entry count, then per entry a
u16 name length, the UTF-8 name, a u8 rank, rank u32 extents, and the values
as 32-bit IEEE-754.  Entries are written sorted by name, so save -> load ->
save is byte-identical.  A network's checkpoint holds one entry per
parameter, its values, under the parameter's name.

Both readers first walk the entry headers (:func:`_index`), which holds
every check of the layout, and only then read payloads, each straight into
the array that keeps it.
"""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO, Mapping

import numpy as np

from .volume import atomic_write

MAGIC = b"FEDCKPT1"
# names of each kind quoted in a CheckpointMismatch; the rest are counted
MISMATCH_NAMES_SHOWN = 3

FILE_DTYPE = np.dtype("<f4")


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
            arr = np.ascontiguousarray(arrays[name], dtype=FILE_DTYPE)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)


def _index(fh: BinaryIO, path) -> dict[str, tuple[tuple[int, ...], int]]:
    """Walk the entry headers of an open FEDCKPT1 file, seeking over every
    payload; returns name -> (shape, payload offset) in file order.

    Raises :class:`CheckpointError` on a wrong magic, a header or payload
    cut short, a name that is not UTF-8, a duplicate name, or bytes after
    the last entry.
    """
    size = os.fstat(fh.fileno()).st_size
    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        chunk = fh.read(n)
        if len(chunk) != n:
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        pos += n
        return chunk

    if fh.read(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a FEDCKPT1 file")
    (count,) = struct.unpack("<I", take(4))
    index: dict[str, tuple[tuple[int, ...], int]] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        raw = take(name_len + 1)  # the name, then the rank byte
        try:
            name, rank = raw[:-1].decode("utf-8"), raw[-1]
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: entry name is not UTF-8 at byte "
                                  f"{pos - len(raw) + exc.start}") from None
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        end = pos + FILE_DTYPE.itemsize * math.prod(shape)
        if end > size:
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        if name in index:
            raise CheckpointError(f"{path}: duplicate parameter name {name!r}")
        index[name] = (shape, pos)
        pos = fh.seek(end)
    if pos != size:
        raise CheckpointError(f"{path}: {size - pos} trailing bytes")
    return index


def _read_payload(fh: BinaryIO, path, offset: int, out: np.ndarray) -> None:
    """Fill ``out`` with the payload at ``offset``: read straight into it when
    it is a contiguous little-endian float32 array, else through a cast."""
    direct = out.dtype == FILE_DTYPE and out.flags.c_contiguous
    buf = out if direct else np.empty(out.shape, dtype=FILE_DTYPE)
    fh.seek(offset)
    if fh.readinto(buf) != buf.nbytes:
        raise CheckpointError(f"{path}: truncated at byte {offset}")
    if not direct:
        out[...] = buf


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Every entry of a FEDCKPT1 file, each as its own writable float32
    array, in file (name) order."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        for name, (shape, offset) in _index(fh, path).items():
            out[name] = np.empty(shape, dtype=FILE_DTYPE)
            _read_payload(fh, path, offset, out[name])
    return out


def state_arrays(net) -> dict[str, np.ndarray]:
    """A network's parameter values by name, for saving."""
    return {name: p.data for name, p in net.named_parameters().items()}


def _quoted(names: list[str], label: str) -> str:
    shown = ", ".join(repr(n) for n in names[:MISMATCH_NAMES_SHOWN])
    more = ", ..." if len(names) > MISMATCH_NAMES_SHOWN else ""
    return f"{len(names)} {label} [{shown}{more}]"


def load_parameters(net, path) -> None:
    """Read a FEDCKPT1 file's values into ``net`` by name, each payload
    straight into the parameter's array.

    The file's names must be exactly the network's parameter names, with
    the same shapes; otherwise :class:`CheckpointMismatch` says, on one
    line, how many names are missing and unexpected and quotes the first
    few.  Every check runs before any value is read, so a rejected file
    leaves ``net`` as it was.
    """
    params = net.named_parameters()
    with open(path, "rb") as fh:
        index = _index(fh, path)
        missing = sorted(params.keys() - index.keys())
        extra = sorted(index.keys() - params.keys())
        if missing or extra:
            raise CheckpointMismatch(
                f"{path}: parameter name mismatch: "
                f"{_quoted(missing, 'missing from checkpoint')}, "
                f"{_quoted(extra, 'unexpected in checkpoint')}")
        for name, p in params.items():
            shape = index[name][0]
            if shape != p.data.shape:
                raise CheckpointMismatch(
                    f"{path}: parameter {name!r}: checkpoint shape {shape} != "
                    f"network shape {p.data.shape}")
        # in file order, so the reads run forward through the file
        for name, (_, offset) in index.items():
            _read_payload(fh, path, offset, params[name].data)
