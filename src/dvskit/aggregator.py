"""Runtime sparse-frame aggregation into merge buckets.

Incoming frames are placed greedily into the earliest available bucket whose
time span and spatial density they fit. The density test compares the
frame's active-pixel count with that of the bucket's union mask, the pixels
active in any frame it holds. BATCH buckets hold one frame each, so they
never test a second one. Buckets merge on flush according to the configured
mode and the merged frames fan out to bounded per-task inference queues. A
flush is triggered by the buffer reaching capacity or by a hardware-idle
signal (early dispatch).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError
from .frames import (
    BatchedFrames,
    SparseFrame,
    active_mask,
    frame_mass,
    merge_add,
    merge_average,
)

__all__ = [
    "MergeMode",
    "AggregatorConfig",
    "PlacementReport",
    "DispatchedFrame",
    "TaskCounters",
    "Aggregator",
]


class MergeMode(enum.Enum):
    """Bucket merge policy: pointwise sum, pointwise mean, or concatenation."""

    ADD = "add"
    AVERAGE = "average"
    BATCH = "batch"

    @classmethod
    def parse(cls, value) -> "MergeMode":
        if isinstance(value, MergeMode):
            return value
        key = str(value).lower().removeprefix("c")
        try:
            return cls(key)
        except ValueError:
            raise ValidationError(f"unknown merge mode {value!r}") from None


@dataclass(frozen=True)
class AggregatorConfig:
    """Buffer geometry and merge thresholds.

    ``iq_depth=None`` leaves the inference queues unbounded.
    """

    e_buf_size: int
    mb_size: int
    c_mode: MergeMode
    mt_th_us: int
    md_th: float
    iq_depth: int | None = 4

    def __post_init__(self):
        object.__setattr__(self, "c_mode", MergeMode.parse(self.c_mode))
        if self.mb_size < 1 or self.e_buf_size < self.mb_size:
            raise ValidationError("need e_buf_size >= mb_size >= 1")
        if self.e_buf_size % self.mb_size != 0:
            raise ValidationError("e_buf_size must be divisible by mb_size")
        if self.mt_th_us <= 0:
            raise ValidationError("mt_th_us must be positive")
        if self.md_th < 0:
            raise ValidationError("md_th must be >= 0")
        if self.iq_depth is not None and self.iq_depth < 1:
            raise ValidationError("iq_depth must be >= 1 (or None for unbounded)")

    @property
    def n_buckets(self) -> int:
        return self.e_buf_size // self.mb_size

    @classmethod
    def from_dict(cls, data: dict) -> "AggregatorConfig":
        try:
            return cls(
                e_buf_size=int(data["e_buf_size"]),
                mb_size=int(data["mb_size"]),
                c_mode=MergeMode.parse(data["c_mode"]),
                mt_th_us=int(data["mt_th_us"]),
                md_th=float(data["md_th"]),
                iq_depth=None if data.get("iq_depth") is None else int(data["iq_depth"]),
            )
        except KeyError as exc:
            raise ValidationError(f"aggregator config missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad aggregator config: {exc}") from exc


@dataclass
class _Bucket:
    """Frames held, their union active-pixel mask and its count."""

    frames: list[SparseFrame] = field(default_factory=list)
    active: np.ndarray | None = None
    n_active: int = 0
    full: bool = False


@dataclass(frozen=True)
class PlacementReport:
    """Outcome of one placement: chosen bucket and buckets closed on the way."""

    bucket_index: int
    newly_full: tuple[int, ...]


@dataclass(frozen=True)
class DispatchedFrame:
    """Merged frame en route to an inference queue.

    ``divisor`` restores the pre-merge event count (frame count for averaged
    buckets, 1 otherwise), a multiple of the frame's common denominator;
    ``contrib_t_refs_us`` are the source frames' t_refs, for latency accounting.
    """

    frame: SparseFrame
    contrib_t_refs_us: tuple[int, ...]
    divisor: int
    t_dispatch_us: int


@dataclass
class TaskCounters:
    dispatched_frames: int = 0
    discarded_frames: int = 0
    consumed_frames: int = 0
    dispatched_mass: int = 0
    discarded_mass: int = 0
    consumed_mass: int = 0


class Aggregator:
    """Single-writer aggregation state: buckets plus per-task queues."""

    def __init__(
        self,
        config: AggregatorConfig,
        width: int,
        height: int,
        tasks: tuple[str, ...] = ("task0",),
    ):
        if not tasks:
            raise ValidationError("need at least one task")
        if len(set(tasks)) != len(tasks):
            raise ValidationError(f"duplicate task ids in {tuple(tasks)!r}")
        if width <= 0 or height <= 0:
            raise ValidationError(f"sensor dims {width}x{height} must be positive")
        self.config = config
        self.width = width
        self.height = height
        self.tasks = tuple(tasks)
        # a BATCH bucket dispatches its one frame unmerged
        self._capacity = 1 if config.c_mode is MergeMode.BATCH else config.mb_size
        self._buckets = [_Bucket() for _ in range(config.n_buckets)]
        self.queues: dict[str, deque[DispatchedFrame]] = {t: deque() for t in self.tasks}
        self.counters: dict[str, TaskCounters] = {t: TaskCounters() for t in self.tasks}
        self.ingested_frames = 0
        self.ingested_mass = 0

    @property
    def total_frames(self) -> int:
        return sum(len(b.frames) for b in self._buckets)

    @property
    def needs_flush(self) -> bool:
        return self.total_frames >= self.config.e_buf_size

    def buffer_mass(self) -> int:
        return sum(int(frame_mass(f)) for b in self._buckets for f in b.frames)

    def bucket_snapshot(self) -> list[tuple[int, str]]:
        """(occupancy, "AVL" or "FULL") per bucket, for metrics and tests."""
        return [(len(b.frames), "FULL" if b.full else "AVL") for b in self._buckets]

    def _accepts(self, bucket: _Bucket, frame: SparseFrame, n_active: int) -> bool:
        if not bucket.frames:
            return True
        # time condition: merged span including the candidate stays within MtTh
        t_refs = [f.t_ref_us for f in bucket.frames] + [frame.t_ref_us]
        if max(t_refs) - min(t_refs) > self.config.mt_th_us:
            return False
        # density condition: relative change of the running merge density;
        # counts compare exactly because both densities share the pixel count
        if bucket.n_active == 0:
            return n_active == 0
        return abs(n_active - bucket.n_active) <= self.config.md_th * bucket.n_active

    def place(self, frame: SparseFrame) -> PlacementReport:
        """Place one frame in the earliest bucket that accepts it.

        Buckets that reject the frame are marked FULL and never revisited.
        Raises CapacityError when no bucket can take the frame; the caller
        must flush first. ValidationError rejects frames whose den is not 1.
        """
        if frame.width != self.width or frame.height != self.height:
            raise ShapeError(
                f"frame dims {frame.width}x{frame.height} != sensor {self.width}x{self.height}"
            )
        if frame.den != 1:
            raise ValidationError(f"frame values over denominator {frame.den} are not counts")
        mask = active_mask(frame)
        n_active = int(np.count_nonzero(mask))
        newly_full: list[int] = []
        for idx, bucket in enumerate(self._buckets):
            if bucket.full:
                continue
            if not self._accepts(bucket, frame, n_active):
                bucket.full = True
                newly_full.append(idx)
                continue
            bucket.frames.append(frame)
            bucket.active = mask if bucket.active is None else bucket.active | mask
            bucket.n_active = int(np.count_nonzero(bucket.active))
            if len(bucket.frames) == self._capacity:
                bucket.full = True
                newly_full.append(idx)
            self.ingested_frames += 1
            self.ingested_mass += int(frame_mass(frame))
            return PlacementReport(idx, tuple(newly_full))
        raise CapacityError("no available merge bucket; flush required")

    def _collapse(self, bucket: _Bucket, t_now_us: int) -> DispatchedFrame:
        mode = self.config.c_mode
        contribs = tuple(f.t_ref_us for f in bucket.frames)
        if mode is MergeMode.ADD:
            merged, divisor = merge_add(bucket.frames), 1
        elif mode is MergeMode.AVERAGE:
            merged, divisor = merge_average(bucket.frames), len(bucket.frames)
        else:  # BATCH buckets hold exactly one frame
            merged, divisor = bucket.frames[0], 1
        return DispatchedFrame(merged, contribs, divisor, t_now_us)

    def flush(self, t_now_us: int) -> list[DispatchedFrame]:
        """Collapse all non-empty buckets and dispatch to every task queue.

        Queues exceeding iq_depth discard their oldest entries, which are
        counted. Buckets reset to empty/available.
        """
        dispatched = [self._collapse(b, t_now_us) for b in self._buckets if b.frames]
        self._buckets = [_Bucket() for _ in range(self.config.n_buckets)]
        depth = self.config.iq_depth
        for task in self.tasks:
            queue = self.queues[task]
            counters = self.counters[task]
            for item in dispatched:
                queue.append(item)
                counters.dispatched_frames += 1
                counters.dispatched_mass += int(frame_mass(item.frame) * item.divisor)
            while depth is not None and len(queue) > depth:
                dropped = queue.popleft()
                counters.discarded_frames += 1
                counters.discarded_mass += int(frame_mass(dropped.frame) * dropped.divisor)
        return dispatched

    def on_hardware_idle(self, t_now_us: int) -> list[DispatchedFrame]:
        """Early dispatch: flush whatever the buckets hold, if anything."""
        return self.flush(t_now_us)

    def build_batch(self, task: str) -> BatchedFrames:
        """Drain a task's queue into one batched input, order preserved."""
        queue = self.queues[task]
        if not queue:
            raise ValidationError(f"inference queue for {task!r} is empty")
        items = list(queue)
        queue.clear()
        counters = self.counters[task]
        for item in items:
            counters.consumed_frames += 1
            counters.consumed_mass += int(frame_mass(item.frame) * item.divisor)
        return BatchedFrames(tuple(item.frame for item in items))
