"""CT processing around the network: HU windowing, 3-channel slice stacking,
probabilistic slice sampling, flip augmentation, thresholding, 3-D connected
components (a vectorized run-based two-pass labeler), bounding boxes, and the
two-stage mask merge.  Inference labels the stage-1 liver mask once: the
merge takes the liver component that ``harness.segment`` already kept.

All functions here operate on plain numpy arrays in (z, y, x) axis order;
slices are (H, W) = (ny, nx) images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HU_WINDOW = (-200, 250)


class EmptyMaskError(ValueError):
    pass


def hu_window_normalize(voxels: np.ndarray) -> np.ndarray:
    """Clamp HU values to [-200, 250] and map that window affinely onto [0, 1].

    The window is fixed, not per-slice, so intensities stay comparable
    across slices and volumes.
    """
    # clipped before the float32 cast, with int16 bounds so that an int16 CT
    # is clipped as 2-byte ints (Python floats would promote it to float64);
    # rounding to float32 keeps order and each bound is exact there, so the
    # bytes are those of clipping after the cast
    lo, hi = map(np.int16, HU_WINDOW)
    x = np.clip(voxels, lo, hi).astype(np.float32, copy=False)
    x -= lo
    x /= hi - lo
    return x


# offsets of the three input channels' slices from the centre slice
_ADJACENT = np.array([-1, 0, 1])


def check_slice_indices(z, nz: int) -> None:
    """An IndexError naming the first slice index in ``z``, one index or an
    array of them, that lies outside [0, nz).  One index is compared in
    Python: training stacks its samples one at a time."""
    if np.ndim(z) == 0:
        bad = [] if 0 <= z < nz else [z]
    else:
        z = np.asarray(z)
        bad = z[(z < 0) | (z >= nz)]
    if len(bad):
        raise IndexError(f"slice index {bad[0]} out of range for nz={nz}")


def stack_adjacent_slices(volume: np.ndarray, z) -> np.ndarray:
    """[nz,H,W] -> [3,H,W] with channels (z-1, z, z+1), edges replicated.
    An index array ``z`` of shape [n] gives [n,3,H,W], gathered in one
    copy."""
    nz = volume.shape[0]
    check_slice_indices(z, nz)
    return volume[np.minimum(np.maximum(np.add.outer(z, _ADJACENT), 0), nz - 1)]


def sample_slices(keep_p: np.ndarray, seed) -> np.ndarray:
    """Ascending z indices of the slices kept: slice z independently with
    probability ``keep_p[z]``; deterministic for a given seed.

    One uniform draw u in [0, 1) is consumed per slice in ascending z, and
    the slice is kept when u < keep_p[z].  A slice of probability 0 is never
    kept but still uses up its draw, so the other slices' outcomes do not
    depend on which slices are excluded.
    """
    return np.nonzero(np.random.default_rng(seed).random(len(keep_p)) < keep_p)[0]


def flip_augment(image: np.ndarray, target: np.ndarray, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Independently with probability 0.5 each, flip a [C,H,W] image and its
    target along the width and/or height axes; the two always flip together."""
    flip_w = rng.random() < 0.5
    flip_h = rng.random() < 0.5
    axes = [axis for axis, flip in ((1, flip_h), (2, flip_w)) if flip]
    return np.flip(image, axis=axes), np.flip(target, axis=axes)


def threshold_mask(prob: np.ndarray, t: float) -> np.ndarray:
    """Probability >= t becomes foreground."""
    return (np.asarray(prob) >= t).view(np.uint8)


def _volume_shape(mask) -> tuple[int, int, int]:
    """(nz, ny, nx) of a 3-D mask; a ValueError naming any other shape."""
    shape = np.shape(mask)
    if len(shape) != 3:
        raise ValueError(f"mask must be a 3-d (z, y, x) volume, got shape {shape}")
    return shape


# Rows (dz, dy) behind a row whose runs can touch it; 26-connectivity also
# links runs that meet only at a corner, so their x intervals widen by one.
_NEIGHBOUR_ROWS = {6: ((0, -1), (-1, 0)),
                   26: ((0, -1), (-1, -1), (-1, 0), (-1, 1))}


def connected_components_3d(mask: np.ndarray, connectivity: int = 6):
    """Label connected foreground components of a binary volume.

    Labels are 1..K in discovery order of an x-fastest scan (x, then y, then
    z); connectivity is 6 (face-adjacent) or 26.  Returns (labels int32,
    sizes int64 array where sizes[k-1] is the voxel count of label k).

    Run-based two-pass labeling (Wu, Otoo & Suzuki 2009), vectorized: the
    foreground runs along x are linked to the overlapping runs of the rows
    behind them, the links are merged by hooking roots onto smaller roots
    with pointer jumping, and each component is numbered by its first run.
    """
    if connectivity not in _NEIGHBOUR_ROWS:
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    nz, ny, nx = _volume_shape(mask)
    # one background voxel, then each x row followed by one more: every run
    # starts and ends where this flat copy changes value, in pairs
    padded = np.zeros(nz * ny * (nx + 1) + 1, dtype=bool)
    padded[1:].reshape(nz * ny, nx + 1)[:, :nx] = np.asarray(mask).reshape(nz * ny, nx)
    change = np.flatnonzero(padded[1:] != padded[:-1])
    del padded  # a volume-sized copy, freed before the labels are made
    row, start = np.divmod(change[0::2], nx + 1)  # run = [start, end) in row z*ny + y
    end = change[1::2] - row * (nx + 1)

    # Runs in row order have increasing (row, start) and (row, end) keys, so
    # the runs of a neighbour row overlapping [start - w, end + w) form one
    # contiguous index range, found by two binary searches.
    width = nx + 3
    start_key = row * width + start + 1
    end_key = row * width + end + 1
    w = 1 if connectivity == 26 else 0
    y = row % ny
    z = row // ny
    firsts, counts, sources = [], [], []
    for dz, dy in _NEIGHBOUR_ROWS[connectivity]:
        valid = (z + dz >= 0) & (y + dy >= 0) & (y + dy < ny)
        base = (row + dz * ny + dy) * width + 1
        lo = np.searchsorted(end_key, base + start - w, side="right")
        hi = np.searchsorted(start_key, base + end + w, side="left")
        firsts.append(lo[valid])
        counts.append((hi - lo)[valid])
        sources.append(np.nonzero(valid)[0])
    first = np.concatenate(firsts)
    count = np.concatenate(counts)
    a = np.repeat(np.concatenate(sources), count)
    offset = np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)
    b = np.repeat(first, count) + offset

    # Every root is the smallest run index of its set, so the roots in
    # ascending order are the components in discovery order.
    parent = np.arange(row.size)
    while True:
        ra, rb = parent[a], parent[b]
        crossing = ra != rb
        if not crossing.any():
            break
        np.minimum.at(parent, np.maximum(ra, rb)[crossing], np.minimum(ra, rb)[crossing])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    component = np.unique(parent, return_inverse=True)[1]
    length = end - start
    sizes = np.bincount(component, weights=length).astype(np.int64)

    # In flat order the volume is background, run 0, background, ..., so one
    # repeat of [0, label 0, 0, label 1, ..., 0] over the gap and run lengths
    # paints every voxel; runs that abut across rows leave a gap of 0.
    run_first = row * nx + start
    edges = np.stack([run_first, run_first + length], axis=1).ravel()
    values = np.zeros(edges.size + 1, dtype=np.int32)
    values[1::2] = component + 1
    labels = np.repeat(values, np.diff(edges, prepend=0, append=nz * ny * nx))
    return labels.reshape(nz, ny, nx), sizes


def largest_component(mask: np.ndarray, connectivity: int = 6) -> np.ndarray:
    """Keep only the largest component; ties go to the earliest-discovered
    label.  An empty mask stays empty."""
    labels, sizes = connected_components_3d(mask, connectivity)
    if sizes.size == 0:
        return np.zeros_like(np.asarray(mask), dtype=np.uint8)
    keep = int(np.argmax(sizes)) + 1
    # 0/1 bytes either way; a view saves copying them
    return (labels == keep).view(np.uint8)


@dataclass(frozen=True)
class Bbox3:
    """Inclusive axis-aligned voxel bounding box in (z, y, x) index order."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        for corner in (self.lo, self.hi):
            if not (isinstance(corner, tuple) and len(corner) == 3
                    and all(isinstance(v, (int, np.integer)) for v in corner)):
                raise ValueError(f"bbox corners must be three ints each, got lo {self.lo}, "
                                 f"hi {self.hi}")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"bbox lo {self.lo} exceeds hi {self.hi}")

    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(a, b + 1) for a, b in zip(self.lo, self.hi))

    def contains_mask(self, mask: np.ndarray) -> bool:
        """True when every foreground voxel of ``mask`` lies inside the box."""
        outside = np.array(mask, dtype=bool)  # one copy, cleared inside the box
        outside[self.slices()] = False
        return not outside.any()


def bbox_of_mask(mask: np.ndarray) -> Bbox3:
    """Tightest axis-aligned box containing every foreground voxel: each
    axis's extent is read from the mask projected onto that axis, y's and
    x's through the mask projected onto the (y, x) plane.  Both projections
    read the mask a whole (y, x) plane at a time; one that reduces over x
    alone works a row of nx at a time and measured 5x slower."""
    mask = np.asarray(mask)
    _volume_shape(mask)
    yx = mask.any(axis=0)
    extents = [np.flatnonzero(mask.any(axis=(1, 2))), np.flatnonzero(yx.any(axis=1)),
               np.flatnonzero(yx.any(axis=0))]
    if extents[0].size == 0:
        raise EmptyMaskError("cannot take the bounding box of an empty mask")
    return Bbox3(tuple(int(e[0]) for e in extents), tuple(int(e[-1]) for e in extents))


def hierarchical_postprocess(liver_mask: np.ndarray, lesion_mask: np.ndarray) -> np.ndarray:
    """Two-stage merge: ``lesion_mask`` inside the bounding box of
    ``liver_mask``, the liver component ``harness.segment`` kept; an empty
    liver yields an empty result.  The lesion mask must be bool or uint8:
    probabilities cast into the uint8 result would lose every value below 1."""
    liver_mask = np.asarray(liver_mask)
    lesion_mask = np.asarray(lesion_mask)
    if lesion_mask.dtype not in (np.bool_, np.uint8):
        raise ValueError(f"lesion mask must be bool or uint8, got {lesion_mask.dtype}")
    if liver_mask.shape != lesion_mask.shape:
        raise ValueError(
            f"volume dims mismatch: liver {liver_mask.shape} vs lesion {lesion_mask.shape}")
    final = np.zeros(liver_mask.shape, dtype=np.uint8)
    if not liver_mask.any():
        return final
    sl = bbox_of_mask(liver_mask).slices()
    final[sl] = lesion_mask[sl]
    return final
