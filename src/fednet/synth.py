"""Synthetic abdominal phantoms for desk-scale experiments.

Each volume is background noise around -100 HU holding one soft-edged
ellipsoidal "liver" around +60 HU that contains 0-3 spherical "lesions"
around +20 HU.  Labels: 0 background, 1 liver, 2 lesion; lesions are strictly
inside the liver by construction.  Generation is bit-deterministic per seed.
"""

from __future__ import annotations

import numpy as np

from .volume import Volume

BACKGROUND_HU = (-100.0, 30.0)
LIVER_HU = (60.0, 20.0)
LESION_HU = (20.0, 10.0)
_LESION_COUNT_P = (0.1, 0.3, 0.3, 0.3)


def _blend(weight: np.ndarray, fg: np.ndarray, bg: np.ndarray) -> np.ndarray:
    return weight * fg + (1.0 - weight) * bg


def synth_generate(seed, n_volumes: int, dims: tuple[int, int, int] = (64, 64, 48)
                   ) -> list[tuple[Volume, Volume]]:
    """Generate ``n_volumes`` (CT, label) pairs of size dims = (nx, ny, nz)."""
    if n_volumes < 1:
        raise ValueError(f"volume count must be at least 1, got {n_volumes}")
    nx, ny, nz = dims
    if min(nx, ny, nz) < 32:
        raise ValueError(f"dims must be >= 32 per axis, got {dims}")
    if nx % 32 or ny % 32:
        raise ValueError(
            f"in-plane dims must be multiples of 32 so slices fit the network, got {dims}")
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.meshgrid(np.arange(nz, dtype=np.float64),
                             np.arange(ny, dtype=np.float64),
                             np.arange(nx, dtype=np.float64), indexing="ij")
    out = []
    for _ in range(n_volumes):
        img = rng.normal(BACKGROUND_HU[0], BACKGROUND_HU[1], size=(nz, ny, nx))
        labels = np.zeros((nz, ny, nx), dtype=np.uint8)

        cx = nx * rng.uniform(0.42, 0.58)
        cy = ny * rng.uniform(0.42, 0.58)
        cz = nz * rng.uniform(0.45, 0.55)
        ax = nx * rng.uniform(0.20, 0.28)
        ay = ny * rng.uniform(0.20, 0.28)
        az = nz * rng.uniform(0.22, 0.30)
        ell = np.sqrt(((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2 + ((zz - cz) / az) ** 2)
        labels[ell <= 1.0] = 1
        liver_weight = np.clip((1.06 - ell) / 0.12, 0.0, 1.0)
        img = _blend(liver_weight, rng.normal(LIVER_HU[0], LIVER_HU[1], size=img.shape), img)

        min_axis = min(ax, ay, az)
        n_lesions = int(rng.choice(4, p=_LESION_COUNT_P))
        for _ in range(n_lesions):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            ecc = rng.uniform(0.0, 0.55)
            px = cx + direction[0] * ecc * ax
            py = cy + direction[1] * ecc * ay
            pz = cz + direction[2] * ecc * az
            # radius bounded so the sphere plus a one-voxel halo stays inside
            # the ellipsoid: lesion labels never touch background
            r_max = (0.98 - ecc) * min_axis - 2.0
            r = min(rng.uniform(2.5, 6.5), r_max)
            if r < 2.0:
                continue
            dist = np.sqrt((xx - px) ** 2 + (yy - py) ** 2 + (zz - pz) ** 2)
            labels[dist <= r] = 2
            lesion_weight = np.clip((1.06 - dist / r) / 0.12, 0.0, 1.0)
            img = _blend(lesion_weight,
                         rng.normal(LESION_HU[0], LESION_HU[1], size=img.shape), img)

        ct = np.rint(np.clip(img, -32768, 32767)).astype(np.int16)
        spacing = (1.0, 1.0, 2.5)
        out.append((Volume(ct, spacing), Volume(labels, spacing)))
    return out
