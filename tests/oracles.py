"""Independent reference implementations used to check the library.

Everything here is deliberately brute-force: dense grids, per-event Python
loops, exact Fraction arithmetic. None of it shares code with the package
paths under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dvskit.frames import SparseFrame, to_dense


def filter_window(events: np.ndarray, t_start: int, t_end: int) -> list[list[int]]:
    """Linear-scan window filter over (t, x, y, p) rows."""
    return [row for row in events.tolist() if t_start <= row[0] < t_end]


def dump_event_rows(events: np.ndarray) -> str:
    """AER text written one f-string per (t, x, y, p) row."""
    lines = [f"{t} {x} {y} {p}" for t, x, y, p in events.tolist()]
    return "\n".join(lines) + ("\n" if lines else "")


def unsorted_scene_events(spec) -> np.ndarray:
    """A scene's events in draw order: segment by segment, as drawn.

    The draws follow ``generate_events``' documented order (per segment: the
    Poisson count, then timestamps, x, y and polarity), so
    ``generate_events(spec)`` is these rows stably sorted by time.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    rows = np.empty((0, 4), dtype=np.int64)
    for seg in spec.segments:
        dur = seg.t_end_us - seg.t_start_us
        expected = seg.rate_ev_s * dur / 1_000_000
        n = int(rng.poisson(expected)) if expected > 0 else 0
        if n == 0:
            continue
        x0, y0, w, h = seg.region if seg.region else (0, 0, spec.width, spec.height)
        t = seg.t_start_us + rng.integers(0, dur, size=n, dtype=np.int64)
        x = x0 + rng.integers(0, w, size=n, dtype=np.int64)
        y = y0 + rng.integers(0, h, size=n, dtype=np.int64)
        p = rng.integers(0, 2, size=n, dtype=np.int64) * 2 - 1
        rows = np.vstack([rows, np.stack([t, x, y, p], axis=1)])
    return rows


def rational_bin_index(t: int, t_start: int, t_end: int, n_bins: int) -> int:
    """floor((t - Tstart) / biS) with biS = (Tend - Tstart) / n_bins, exact."""
    bis = Fraction(t_end - t_start, n_bins)
    idx = math.floor(Fraction(t - t_start) / bis)
    return min(idx, n_bins - 1)


def dense_binned_counts(
    events: np.ndarray, t_start: int, t_end: int, n_bins: int, width: int, height: int
) -> np.ndarray:
    """Dense scatter-add oracle: (n_bins, 2, height, width) count grid.

    Channel 0 counts +1 events, channel 1 counts -1 events; bins come from
    the exact-rational index above, one event at a time.
    """
    grid = np.zeros((n_bins, 2, height, width), dtype=np.int64)
    for t, x, y, p in events.tolist():
        b = rational_bin_index(t, t_start, t_end, n_bins)
        grid[b, 0 if p == 1 else 1, y, x] += 1
    return grid


def dense_scatter(entries, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense Fraction grids from (row, col, channel, value) tuples."""
    pos = np.full((height, width), Fraction(0), dtype=object)
    neg = np.full((height, width), Fraction(0), dtype=object)
    for row, col, channel, value in entries:
        target = pos if channel in ("pos", 1, "+1") else neg
        target[row, col] += Fraction(value)
    return pos, neg


def dense_fraction_view(frame: SparseFrame) -> tuple[np.ndarray, np.ndarray]:
    """Exact Fraction grids of a frame, via its dense num/den expansion."""
    g = to_dense(frame)
    pos = np.array(
        [[Fraction(int(n), int(d)) for n, d in zip(nr, dr)] for nr, dr in zip(g.pos_num, g.pos_den)],
        dtype=object,
    )
    neg = np.array(
        [[Fraction(int(n), int(d)) for n, d in zip(nr, dr)] for nr, dr in zip(g.neg_num, g.neg_den)],
        dtype=object,
    )
    return pos, neg


def random_frame(
    rng: np.random.Generator,
    width: int,
    height: int,
    max_entries: int = 30,
    t_ref: int | None = None,
    rational: bool = False,
) -> tuple[SparseFrame, list[tuple]]:
    """Random canonicalizable entry list and the frame built from it."""
    from dvskit.frames import from_entries

    n = int(rng.integers(0, max_entries + 1))
    entries = []
    for _ in range(n):
        row = int(rng.integers(0, height))
        col = int(rng.integers(0, width))
        channel = "pos" if rng.random() < 0.5 else "neg"
        if rational:
            value = Fraction(int(rng.integers(0, 6)), int(rng.integers(1, 5)))
        else:
            value = int(rng.integers(0, 6))
        entries.append((row, col, channel, value))
    t = int(rng.integers(0, 1_000_000)) if t_ref is None else t_ref
    return from_entries(entries, width, height, t_ref_us=t), entries


class ReferencePlacer:
    """Brute-force bucket placement: Python pixel sets and a plain span check.

    A frame goes to the earliest bucket not yet closed that accepts it; every
    bucket that rejects it on the way is closed. An empty bucket accepts any
    frame. A held bucket accepts when the t_ref span of its frames plus the
    new one is at most ``mt_th_us`` and the frame's active-pixel count is
    within ``md_th`` (relative) of the count of pixels active in any held
    frame; a bucket with no active pixels accepts only frames without any.
    A bucket closes on reaching ``capacity`` frames.
    """

    def __init__(self, n_buckets: int, capacity: int, mt_th_us: int, md_th: float):
        self.n_buckets = n_buckets
        self.capacity = capacity
        self.mt_th_us = mt_th_us
        self.md_th = md_th
        self.buckets: list[list[int]] = []
        self.flush()

    def place(self, frame: SparseFrame) -> tuple[int, tuple[int, ...]] | None:
        """(bucket index, buckets closed on the way), or None when all are closed."""
        pixels = {(r, c) for r, c, _, _ in frame.pos.tolist() + frame.neg.tolist()}
        closed = []
        for idx, held in enumerate(self.buckets):
            if self.closed[idx]:
                continue
            if held and not self._accepts(held, self.pixels[idx], frame.t_ref_us, pixels):
                self.closed[idx] = True
                closed.append(idx)
                continue
            held.append(frame.t_ref_us)
            self.pixels[idx] |= pixels
            if len(held) == self.capacity:
                self.closed[idx] = True
                closed.append(idx)
            return idx, tuple(closed)
        return None

    def _accepts(self, t_refs: list[int], held: set, t_ref: int, pixels: set) -> bool:
        times = t_refs + [t_ref]
        if max(times) - min(times) > self.mt_th_us:
            return False
        if not held:
            return not pixels
        return abs(len(pixels) - len(held)) <= self.md_th * len(held)

    def flush(self) -> list[tuple[int, ...]]:
        """t_refs of every non-empty bucket, in bucket order; empties all buckets."""
        out = [tuple(b) for b in self.buckets if b]
        self.buckets = [[] for _ in range(self.n_buckets)]
        self.pixels = [set() for _ in range(self.n_buckets)]
        self.closed = [False] * self.n_buckets
        return out
