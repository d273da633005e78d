"""Runtime sparse-frame aggregation into merge buckets.

Incoming frames are placed greedily into the earliest available bucket whose
time span and spatial density they fit; buckets merge on flush according to
the configured mode and the merged frames fan out to bounded per-task
inference queues. A flush is triggered by the buffer reaching capacity or by
a hardware-idle signal (early dispatch).
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
    active_pixel_count,
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


class _Status(enum.Enum):
    AVL = "AVL"
    FULL = "FULL"


@dataclass
class _Bucket:
    frames: list[SparseFrame] = field(default_factory=list)
    t_first_us: int = 0
    t_last_us: int = 0
    active: set[int] = field(default_factory=set)
    status: _Status = _Status.AVL

    def occupancy(self) -> int:
        return len(self.frames)


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
        self.config = config
        self.width = width
        self.height = height
        self.tasks = tuple(tasks)
        self._buckets = [_Bucket() for _ in range(config.n_buckets)]
        self.queues: dict[str, deque[DispatchedFrame]] = {t: deque() for t in self.tasks}
        self.counters: dict[str, TaskCounters] = {t: TaskCounters() for t in self.tasks}
        self.ingested_frames = 0
        self.ingested_mass = 0
        self.dispatch_ages_us: list[int] = []
        self._occupancy_at_flush: list[int] = []

    @property
    def total_frames(self) -> int:
        return sum(b.occupancy() for b in self._buckets)

    @property
    def needs_flush(self) -> bool:
        return self.total_frames >= self.config.e_buf_size

    def buffer_mass(self) -> int:
        return sum(int(frame_mass(f)) for b in self._buckets for f in b.frames)

    def bucket_snapshot(self) -> list[tuple[int, str]]:
        """(occupancy, status) per bucket, for metrics and tests."""
        return [(b.occupancy(), b.status.value) for b in self._buckets]

    def _accepts(self, bucket: _Bucket, frame: SparseFrame, n_active: int) -> bool:
        if not bucket.frames:
            return True
        # time condition: merged span including the candidate stays within MtTh
        span = max(bucket.t_last_us, frame.t_ref_us) - min(bucket.t_first_us, frame.t_ref_us)
        if span > self.config.mt_th_us:
            return False
        # density condition: relative change of the running merge density;
        # counts compare exactly because both densities share the pixel count
        n_bucket = len(bucket.active)
        if n_bucket == 0:
            return n_active == 0
        return abs(n_active - n_bucket) <= self.config.md_th * n_bucket

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
        batch_mode = self.config.c_mode is MergeMode.BATCH
        n_active = 0 if batch_mode else active_pixel_count(frame)
        newly_full: list[int] = []
        for idx, bucket in enumerate(self._buckets):
            if bucket.status is _Status.FULL:
                continue
            if not batch_mode and not self._accepts(bucket, frame, n_active):
                bucket.status = _Status.FULL
                newly_full.append(idx)
                continue
            self._admit(bucket, frame, batch_mode)
            if batch_mode or bucket.occupancy() == self.config.mb_size:
                bucket.status = _Status.FULL
                newly_full.append(idx)
            self.ingested_frames += 1
            self.ingested_mass += int(frame_mass(frame))
            return PlacementReport(idx, tuple(newly_full))
        raise CapacityError("no available merge bucket; flush required")

    def _admit(self, bucket: _Bucket, frame: SparseFrame, batch_mode: bool) -> None:
        if bucket.frames:
            bucket.t_first_us = min(bucket.t_first_us, frame.t_ref_us)
            bucket.t_last_us = max(bucket.t_last_us, frame.t_ref_us)
        else:
            bucket.t_first_us = bucket.t_last_us = frame.t_ref_us
        bucket.frames.append(frame)
        if not batch_mode:
            for ch in (frame.pos, frame.neg):
                if len(ch):
                    bucket.active.update((ch[:, 0] * self.width + ch[:, 1]).tolist())

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
        dispatched: list[DispatchedFrame] = []
        for bucket in self._buckets:
            if bucket.frames:
                dispatched.append(self._collapse(bucket, t_now_us))
        self._buckets = [_Bucket() for _ in range(self.config.n_buckets)]
        if dispatched:
            self._occupancy_at_flush.extend(len(d.contrib_t_refs_us) for d in dispatched)
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
        for item in dispatched:
            self.dispatch_ages_us.append(t_now_us - item.frame.t_ref_us)
        return dispatched

    def on_hardware_idle(self, t_now_us: int) -> list[DispatchedFrame]:
        """Early dispatch: flush whatever the buckets hold, if anything."""
        if self.total_frames == 0:
            return []
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

    def occupancy_histogram(self) -> dict[int, int]:
        """Histogram of bucket occupancies observed at flush time."""
        hist: dict[int, int] = {}
        for occ in self._occupancy_at_flush:
            hist[occ] = hist.get(occ, 0) + 1
        return dict(sorted(hist.items()))

    def age_stats_us(self) -> dict[str, float]:
        ages = self.dispatch_ages_us
        if not ages:
            return {"mean": 0.0, "p50": 0.0, "p95": 0.0}
        arr = np.asarray(ages, dtype=np.float64)
        return {
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
        }
