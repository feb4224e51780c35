"""Host-speed reference: timings reported at nominal host speed.

The benchmark runs on shared virtual machines whose speed moves by tens of
percent within seconds and drifts by as much over minutes.  On a 2-vCPU
Intel Xeon host the same deterministic gradient-check suite took 23.7 s in
one run and 36.9 s a few minutes later, and one encoder forward pass took
1.0-1.1 ms or 1.5-2.2 ms depending on the second it ran in.  Raw wall-clock
times of runs made minutes apart are then not comparable.

An untraced run therefore times two fixed reference kernels about every
``EVERY`` seconds, at operation boundaries, and reports program time at
nominal host speed: each stretch of program time between two samples is
scaled by the kernel's nominal time over its measured time there (a rolling
median of ``SMOOTH`` samples, so one interrupted sample does not count).  The
time the kernels themselves take is excluded from every measured interval.
On that host, over 90 s, scaling by the matching kernel cut the variation of
10-s window means from 10% to 3% for encoder forward passes (``calls``) and
from 6% to 2% for a batch-8 ``conv2d`` (``gemm``).

The kernels use numpy only, never fednet, so a change to the program cannot
change them; a program that spawns competing work would slow them too, which
the raw times, printed next to the scaled ones, still show.
"""

from __future__ import annotations

import time

import numpy as np

EVERY = 0.1       # seconds between samples
SMOOTH = 5        # samples in the rolling median of a kernel's time

_SMALL = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_COLS = np.linspace(-1.0, 1.0, 2048 * 144, dtype=np.float32).reshape(2048, 144)
_FILTERS = np.linspace(-1.0, 1.0, 144 * 16, dtype=np.float32).reshape(144, 16)


def _calls() -> None:
    """Sixty chained numpy calls on an 8x8 array: per-call overhead, as in
    the small-shape forward passes of a gradient check."""
    a = _SMALL
    for _ in range(60):
        a = np.maximum(a * 0.5 + _SMALL, 0.0).reshape(8, 8)


def _gemm() -> None:
    """A float32 im2col tile, 2048 rows of a 16-in 3x3 window times 16
    filters, then a relu: the inner loop of a training-size conv2d."""
    y = _COLS @ _FILTERS
    np.maximum(y, 0.0, out=y)


# name -> (kernel, nominal seconds: its typical time on the host above)
KERNELS = {"calls": (_calls, 0.20e-3), "gemm": (_gemm, 0.30e-3)}
# the geometric mean of both kernels' speeds
MIXED = "mixed"
SCALES = (*KERNELS, MIXED)


class Pacer:
    """Samples the reference kernels and converts wall intervals to program
    time.  A disabled pacer (the traced run) never samples, and its program
    time is plain wall time."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: dict[str, list[float]] = {name: [] for name in KERNELS}
        self._due = 0.0
        if enabled:
            for _ in range(20):
                for fn, _ in KERNELS.values():
                    fn()

    def tick(self, force: bool = False) -> None:
        """Sample every kernel if ``EVERY`` has passed since the last sample."""
        if not self.enabled:
            return
        t0 = time.perf_counter()
        if not force and t0 < self._due:
            return
        for name, (fn, _) in KERNELS.items():
            a = time.perf_counter()
            fn()
            self.seconds[name].append(time.perf_counter() - a)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._due = t1 + EVERY

    def burst(self, samples: int = SMOOTH) -> None:
        """Several samples back to back, around work that has no ticks inside."""
        for _ in range(samples):
            self.tick(force=True)

    def speed(self, kernel: str) -> np.ndarray:
        """Host speed at each sample: nominal over the smoothed kernel time."""
        if kernel == MIXED:
            return np.sqrt(np.prod([self.speed(name) for name in KERNELS], axis=0))
        secs = np.asarray(self.seconds[kernel])
        half = SMOOTH // 2
        padded = np.pad(secs, half, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        return KERNELS[kernel][1] / smooth

    def program_seconds(self, windows, kernel: str | None = None) -> np.ndarray:
        """Time inside each (t0, t1) window that the kernels did not take;
        with ``kernel``, scaled to nominal host speed."""
        lo = np.array([w[0] for w in windows], dtype=float)
        hi = np.array([w[1] for w in windows], dtype=float)
        if not self.starts:
            if kernel is not None:
                raise RuntimeError("no reference samples to scale by")
            return hi - lo
        a, b = np.array(self.starts), np.array(self.ends)
        g = np.ones(a.size) if kernel is None else self.speed(kernel)
        # program time runs between one sample's end and the next's start,
        # at the mean speed of the two; the clock stands still in a sample
        slope = (g[:-1] + g[1:]) / 2.0
        knots = np.empty(2 * a.size)
        knots[0::2], knots[1::2] = a, b
        clock = np.zeros(2 * a.size)
        clock[2::2] = np.cumsum((a[1:] - b[:-1]) * slope)
        clock[3::2] = clock[2::2]

        def at(t: np.ndarray) -> np.ndarray:
            value = np.interp(t, knots, clock)
            value = np.where(t < a[0], (t - a[0]) * g[0], value)
            return np.where(t > b[-1], clock[-1] + (t - b[-1]) * g[-1], value)

        return at(hi) - at(lo)

    def mean_speed(self, kernel: str) -> float:
        return float(np.mean(self.speed(kernel))) if self.starts else 1.0
