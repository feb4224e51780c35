"""Voxel volume container and the MVOL binary file format.

MVOL layout (little-endian throughout):

    magic   6 bytes  b"MVOL1\\0"
    nx, ny, nz       3x u32
    dtype   u8       1 = signed 16-bit HU, 2 = 32-bit IEEE-754, 3 = unsigned 8-bit labels
    spacing 3x f32   voxel size in millimeters (sx, sy, sz)
    payload          raw voxels, x fastest, then y, then z

In memory, voxels are stored as a C-contiguous array of shape (nz, ny, nx),
so the on-disk payload is exactly the array's buffer, written and read with
no intermediate copy.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"MVOL1\x00"
_HEADER = struct.Struct("<3I B 3f")
_DTYPE_CODES = {1: np.dtype("<i2"), 2: np.dtype("<f4"), 3: np.dtype("u1")}
_CODE_FOR_KIND = {np.dtype(np.int16): 1, np.dtype(np.float32): 2, np.dtype(np.uint8): 3}
_MAX_VOXELS = 2 ** 31


class MVolError(ValueError):
    """Base class for MVOL format errors."""


class BadMagic(MVolError):
    pass


class TruncatedPayload(MVolError):
    pass


class DimOverflow(MVolError):
    pass


@dataclass
class Volume:
    """A voxel grid with physical spacing.

    ``voxels`` has shape (nz, ny, nx): int16 for HU data, uint8 for label
    masks.  No command writes float32, but it is still read, so that
    ``train`` and ``infer`` can name a windowed CT in their error.
    """

    voxels: np.ndarray
    spacing: tuple[float, float, float] = field(default=(1.0, 1.0, 1.0))

    def __post_init__(self):
        self.voxels = np.ascontiguousarray(self.voxels)
        if self.voxels.ndim != 3:
            raise ValueError(f"volume voxels must be 3-d (nz, ny, nx), got {self.voxels.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(nx, ny, nz)"""
        nz, ny, nx = self.voxels.shape
        return nx, ny, nz


def check_out_dir(path) -> None:
    """A one-line FileNotFoundError naming ``path`` unless its directory
    exists, or IsADirectoryError if ``path`` is a directory itself, so that a
    command fails before it computes what it cannot write."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise FileNotFoundError(f"cannot write {path}: directory {parent} does not exist")
    if Path(path).is_dir():
        raise IsADirectoryError(f"cannot write {path}: it is a directory")


@contextmanager
def atomic_write(path):
    """Open a temporary file next to ``path`` for binary writing; when the
    block finishes, ``os.replace`` moves it onto ``path``.  A write that
    raises or is killed midway leaves any previous file at ``path`` as it was
    (a raise also deletes the temporary file)."""
    check_out_dir(path)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_mvol(vol: Volume, path) -> None:
    dt = vol.voxels.dtype
    code = _CODE_FOR_KIND.get(np.dtype(dt))
    if code is None:
        raise MVolError(f"unsupported voxel dtype {dt}; use int16, float32 or uint8")
    nx, ny, nz = vol.dims
    arr = np.ascontiguousarray(vol.voxels, dtype=_DTYPE_CODES[code])
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(nx, ny, nz, code, *vol.spacing))
        fh.write(arr)


def _read_header(fh, path) -> tuple[tuple[int, int, int], np.dtype, tuple]:
    """(array shape (nz, ny, nx), dtype, spacing) from the header of the open
    MVOL file ``fh``, once the header and the payload's size are checked;
    ``fh`` is left at the payload."""
    magic = fh.read(len(MAGIC))
    if len(magic) < len(MAGIC):
        raise TruncatedPayload(f"{path}: file shorter than the magic header")
    if magic != MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r}")
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise TruncatedPayload(f"{path}: truncated header")
    nx, ny, nz, code, sx, sy, sz = _HEADER.unpack(head)
    if nx == 0 or ny == 0 or nz == 0 or nx * ny * nz > _MAX_VOXELS:
        raise DimOverflow(f"{path}: invalid dims {nx}x{ny}x{nz}")
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise MVolError(f"{path}: unknown dtype code {code}")
    expected = nx * ny * nz * dtype.itemsize
    payload = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload < expected:
        raise TruncatedPayload(f"{path}: payload holds {payload} bytes, expected {expected}")
    if payload > expected:
        raise MVolError(f"{path}: {payload - expected} trailing bytes after payload")
    return (nz, ny, nx), dtype, (sx, sy, sz)


def read_mvol_header(path) -> tuple[tuple[int, int, int], np.dtype]:
    """The voxel array shape (nz, ny, nx) and dtype of an MVOL file, checked
    as :func:`read_mvol` checks them, without reading the payload."""
    with open(path, "rb") as fh:
        shape, dtype, _ = _read_header(fh, path)
    return shape, dtype


def read_mvol(path) -> Volume:
    with open(path, "rb") as fh:
        shape, dtype, spacing = _read_header(fh, path)
        voxels = np.empty(shape, dtype=dtype)
        if fh.readinto(voxels) != voxels.nbytes:
            raise TruncatedPayload(f"{path}: payload cut short while reading")
    return Volume(voxels, spacing)
