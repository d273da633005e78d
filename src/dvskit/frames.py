"""Two-channel sparse coordinate-list frames with exact rational values.

A frame stores per-pixel accumulation values for the positive and negative
polarity channels in COO form. Each channel is an (n, 4) int64 array with
columns (row, col, num, den): entries sorted by (row, col), duplicate-free
and zero-free. Values are rationals over one common denominator per frame:
every entry of both channels carries the same ``den``, the smallest one that
makes all values integral, so ``gcd(den, *nums) == 1``. Binning and
add-merges give ``den == 1``; an average over k frames gives a divisor of k.
Every sum and rescale is overflow-checked: a value or denominator that does
not fit int64 raises OverflowError instead of wrapping.

``_frame_from_keys`` is the one place channel arrays are laid out. It takes
sorted unique flat keys over both channels plus reduced numerators, and
every constructor ends in it: entry lists and dicts through
``_canonical_frame``, merges, and the binning module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BoundsError, ShapeError, ValidationError

ROW, COL, NUM, DEN = 0, 1, 2, 3

_I64_MAX = int(np.iinfo(np.int64).max)


def _sum_may_wrap(values: np.ndarray) -> bool:
    """Whether an int64 sum of these non-negative values can exceed int64."""
    return len(values) > 0 and int(values.max()) > _I64_MAX // len(values)


def _canonical_frame(
    width: int, height: int, t_ref_us: int, pos: np.ndarray, neg: np.ndarray
) -> SparseFrame:
    """Build a frame from raw channel entries, bringing them to the invariant.

    Entries may repeat pixels, hold zeros and use any positive denominators.
    Values are rescaled to the common denominator, each pixel's values are
    summed, zeros are dropped and the common factor of den and all nums is
    divided out.
    """
    pos = np.asarray(pos, dtype=np.int64).reshape(-1, 4)
    neg = np.asarray(neg, dtype=np.int64).reshape(-1, 4)
    rows, cols, nums, dens = np.concatenate([pos, neg]).T
    if np.any(rows < 0) or np.any(rows >= height) or np.any(cols < 0) or np.any(cols >= width):
        raise BoundsError(f"channel entry outside {width}x{height} frame")
    if np.any(dens <= 0):
        raise ValidationError("entry denominators must be positive")
    if np.any(nums < 0):
        raise ValidationError("entry values must be non-negative")
    # one sort key over both channels: the neg channel's pixels follow the pos ones
    n_pixels = width * height
    keys = rows * width + cols
    keys[len(pos):] += n_pixels
    nonzero = nums != 0
    keys, nums, dens = keys[nonzero], nums[nonzero], dens[nonzero]

    # binned and merged frames already share one den: np.unique only for mixed input
    uniform = len(dens) == 0 or dens.min() == dens.max()
    den = math.lcm(*(dens[:1] if uniform else np.unique(dens)).tolist())
    if den > _I64_MAX:
        raise OverflowError(f"common denominator {den} does not fit int64")
    if not uniform:
        factor = den // dens
        if np.any(nums > _I64_MAX // factor):
            raise OverflowError("value rescaled to the common denominator does not fit int64")
        nums = nums * factor

    order = np.argsort(keys)
    keys, nums = keys[order], nums[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if len(starts) < len(keys):
        if _sum_may_wrap(nums) and np.add.reduceat(nums.astype(object), starts).max() > _I64_MAX:
            raise OverflowError("pixel sum does not fit int64")
        keys, nums = keys[starts], np.add.reduceat(nums, starts)

    g = math.gcd(den, int(np.gcd.reduce(nums)))
    return _frame_from_keys(width, height, t_ref_us, keys, nums // g, den // g)


def _frame_from_keys(
    width: int, height: int, t_ref_us: int, keys: np.ndarray, nums: np.ndarray, den: int
) -> SparseFrame:
    """Lay out both channels from canonical flat entries.

    ``keys`` are ascending unique flat pixel ids ``row * width + col``, with
    the neg channel's offset by ``width * height``; ``nums`` are their nonzero
    numerators over ``den``, already reduced so ``gcd(den, *nums) == 1``.
    """
    n_pixels = width * height
    split = int(np.searchsorted(keys, n_pixels))

    def channel(flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.column_stack(
            [flat // width, flat % width, values, np.full(len(flat), den, dtype=np.int64)]
        )

    return SparseFrame(
        width,
        height,
        t_ref_us,
        channel(keys[:split], nums[:split]),
        channel(keys[split:] - n_pixels, nums[split:]),
    )


@dataclass(frozen=True, eq=False)
class SparseFrame:
    """Canonical two-channel sparse frame; immutable after construction."""

    width: int
    height: int
    t_ref_us: int
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        self.pos.flags.writeable = False
        self.neg.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseFrame):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.t_ref_us == other.t_ref_us
            and np.array_equal(self.pos, other.pos)
            and np.array_equal(self.neg, other.neg)
        )

    @property
    def n_entries(self) -> int:
        return len(self.pos) + len(self.neg)

    @property
    def den(self) -> int:
        """The common denominator of every entry; 1 for an empty frame."""
        for ch in (self.pos, self.neg):
            if len(ch):
                return int(ch[0, DEN])
        return 1


def empty_frame(width: int, height: int, t_ref_us: int = 0) -> SparseFrame:
    empty = np.empty(0, dtype=np.int64)
    return _frame_from_keys(width, height, t_ref_us, empty, empty, 1)


_CHANNEL_ALIASES = {"pos": "pos", "+1": "pos", 1: "pos", "neg": "neg", "-1": "neg", -1: "neg"}


def from_entries(
    entries: Iterable[tuple],
    width: int,
    height: int,
    t_ref_us: int = 0,
) -> SparseFrame:
    """Build a canonical frame from (row, col, channel, value) tuples.

    ``channel`` is "pos"/"neg" or +1/-1; values are non-negative ints or
    Fractions. Duplicate coordinates are summed exactly. Raises
    OverflowError when the frame's common denominator, a value over it or a
    pixel sum does not fit int64.
    """
    pos_rows, neg_rows = [], []
    for row, col, channel, value in entries:
        ch = _CHANNEL_ALIASES.get(channel)
        if ch is None:
            raise ValidationError(f"unknown channel {channel!r}")
        frac = Fraction(value)
        if frac < 0:
            raise ValidationError(f"negative value {value} at ({row}, {col})")
        target = pos_rows if ch == "pos" else neg_rows
        target.append((row, col, frac.numerator, frac.denominator))
    return _canonical_frame(width, height, t_ref_us, pos_rows, neg_rows)


class DenseGrids(NamedTuple):
    """Exact dense view: per-channel numerator and denominator grids."""

    pos_num: np.ndarray
    pos_den: np.ndarray
    neg_num: np.ndarray
    neg_den: np.ndarray


def to_dense(frame: SparseFrame) -> DenseGrids:
    """Expand to dense (height, width) grids; empty pixels read 0/1."""
    shape = (frame.height, frame.width)
    grids = []
    for ch in (frame.pos, frame.neg):
        num = np.zeros(shape, dtype=np.int64)
        den = np.ones(shape, dtype=np.int64)
        if len(ch):
            num[ch[:, ROW], ch[:, COL]] = ch[:, NUM]
            den[ch[:, ROW], ch[:, COL]] = ch[:, DEN]
        grids.extend([num, den])
    return DenseGrids(*grids)


def _require_uniform_dims(frames: Sequence[SparseFrame]) -> tuple[int, int]:
    if not frames:
        raise ValidationError("need at least one frame")
    width, height = frames[0].width, frames[0].height
    for f in frames[1:]:
        if f.width != width or f.height != height:
            raise ShapeError(
                f"frame dims {f.width}x{f.height} != {width}x{height}"
            )
    return width, height


def merge_add(frames: Sequence[SparseFrame]) -> SparseFrame:
    """Pointwise rational sum of frames; t_ref is the earliest input t_ref."""
    width, height = _require_uniform_dims(frames)
    t_ref = min(f.t_ref_us for f in frames)
    pos = np.concatenate([f.pos for f in frames])
    neg = np.concatenate([f.neg for f in frames])
    return _canonical_frame(width, height, t_ref, pos, neg)


def merge_average(frames: Sequence[SparseFrame]) -> SparseFrame:
    """Pointwise mean: the add-merge divided exactly by the frame count.

    The divisor is the number of frames, including frames where a pixel is
    inactive, which keeps averaging linear with the add-merge.
    """
    total = merge_add(frames)
    den = total.den * len(frames)
    if den > _I64_MAX:
        raise OverflowError(f"average denominator {den} does not fit int64")
    # the sum's keys are already sorted and unique: only the reduction is left
    width, height = total.width, total.height
    rows, cols, nums, _ = np.concatenate([total.pos, total.neg]).T
    keys = rows * width + cols
    keys[len(total.pos):] += width * height
    g = math.gcd(den, int(np.gcd.reduce(nums)))
    return _frame_from_keys(width, height, total.t_ref_us, keys, nums // g, den // g)


@dataclass(frozen=True)
class BatchedFrames:
    """Ordered batch of frames sharing dimensions; inputs kept bit-identical."""

    frames: tuple[SparseFrame, ...]

    def __post_init__(self):
        _require_uniform_dims(self.frames)

    def __len__(self) -> int:
        return len(self.frames)


def active_mask(frame: SparseFrame) -> np.ndarray:
    """Flat (height*width,) bool mask of the pixels active in either channel."""
    mask = np.zeros(frame.width * frame.height, dtype=bool)
    for ch in (frame.pos, frame.neg):
        mask[ch[:, ROW] * frame.width + ch[:, COL]] = True
    return mask


def frame_mass(frame: SparseFrame) -> Fraction:
    """Exact sum of all values across both channels."""
    nums = np.concatenate([frame.pos[:, NUM], frame.neg[:, NUM]])
    total = sum(nums.tolist()) if _sum_may_wrap(nums) else int(nums.sum())
    return Fraction(total, frame.den)


def frame_to_dict(frame: SparseFrame) -> dict:
    return {
        "width": frame.width,
        "height": frame.height,
        "t_ref_us": frame.t_ref_us,
        "pos": frame.pos.tolist(),
        "neg": frame.neg.tolist(),
    }


def frame_from_dict(data: dict) -> SparseFrame:
    return _canonical_frame(
        int(data["width"]), int(data["height"]), int(data["t_ref_us"]), data["pos"], data["neg"]
    )
