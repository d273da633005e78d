"""Window-to-sparse-frame conversion via uniform temporal event bins.

A window [Tstart, Tend) is split into n_bins equal slices; every event lands
in bin floor((t - Tstart) / biS) with biS = (Tend - Tstart) / n_bins. The
index is evaluated as floor((t - Tstart) * n_bins / (Tend - Tstart)) in
int64 arithmetic, which is algebraically identical over the rationals and
free of floating-point drift when n_bins does not divide the window.

A window is binned with one sort: one ``np.unique`` over the events'
(bin, channel, pixel) keys yields each frame's canonical pixels and counts
as one slice. A frame's t_ref is the minimum timestamp of its bin, so the
order of events inside the window does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ValidationError
from .events import COL_P, COL_T, COL_X, COL_Y, EventWindow
from .frames import _I64_MAX, SparseFrame, _frame_from_keys

__all__ = ["BinningSpec", "bin_index", "to_sparse_frames"]


@dataclass(frozen=True)
class BinningSpec:
    """Bin count and sensor dimensions for the converter."""

    n_bins: int
    width: int
    height: int

    def __post_init__(self):
        if self.n_bins < 1:
            raise ValidationError("n_bins must be >= 1")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("sensor dimensions must be positive")


def bin_index(t_us, t_start_us: int, t_end_us: int, n_bins: int) -> int | np.ndarray:
    """Bin index of a timestamp, or of each timestamp in an int64 array.

    Raises ValidationError for a timestamp outside [t_start, t_end) and
    OverflowError when span * n_bins does not fit int64.
    """
    span = t_end_us - t_start_us
    if span * n_bins > _I64_MAX:
        raise OverflowError(f"window span {span} times {n_bins} bins does not fit int64")
    t = np.asarray(t_us, dtype=np.int64)
    if t.size and (t.min() < t_start_us or t.max() >= t_end_us):
        bad = t.min() if t.min() < t_start_us else t.max()
        raise ValidationError(f"timestamp {bad} outside window [{t_start_us}, {t_end_us})")
    idx = (t - t_start_us) * n_bins // span
    return idx if idx.ndim else int(idx)


def to_sparse_frames(window: EventWindow, spec: BinningSpec) -> list[SparseFrame]:
    """Convert a window into exactly n_bins two-channel count frames.

    Frame i accumulates, per pixel, the +1 events (pos channel) and -1 events
    (neg channel) whose bin index is i; (row, col) = (y, x). Non-empty bins
    take t_ref from their earliest event, empty bins from the bin start.
    Events may be in any order. An event outside the sensor raises
    BoundsError, one outside the window ValidationError, and a key space
    n_bins * 2 * width * height beyond int64 OverflowError.
    """
    events = window.events
    t0, t1 = window.t_start_us, window.t_end_us
    n_bins, width, height = spec.n_bins, spec.width, spec.height
    n_pixels = width * height
    bin_keys = 2 * n_pixels  # one key per pixel of each channel
    if n_bins * bin_keys > _I64_MAX:
        raise OverflowError(f"{n_bins} bins of {width}x{height} pixel keys do not fit int64")
    ts, xs, ys = events[:, COL_T], events[:, COL_X], events[:, COL_Y]
    if len(events) and (min(xs.min(), ys.min()) < 0 or xs.max() >= width or ys.max() >= height):
        raise BoundsError(f"event outside {width}x{height} sensor")
    bins = bin_index(ts, t0, t1, n_bins)
    keys, counts = np.unique(
        bins * bin_keys + (events[:, COL_P] != 1) * n_pixels + ys * width + xs,
        return_counts=True,
    )
    t_first = np.full(n_bins, _I64_MAX)
    np.minimum.at(t_first, bins, ts)
    bounds = np.searchsorted(keys, np.arange(n_bins + 1) * bin_keys).tolist()

    frames = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        t_ref = int(t_first[i]) if hi > lo else t0 + i * (t1 - t0) // n_bins
        frames.append(
            _frame_from_keys(width, height, t_ref, keys[lo:hi] - i * bin_keys, counts[lo:hi], 1)
        )
    return frames
